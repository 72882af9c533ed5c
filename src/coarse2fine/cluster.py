"""k-means over instance-head columns: maintains the cluster membership and
the proxy matrix (column-wise means), globally or within each coarse class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (DegenerateInputError, InvariantError, column_means,
                       equal_size_groups, group_by_label)


# largest |w| of d*n entries for which no squared distance, nor a sum of n
# of them, passes the float64 maximum (|w_i - w_j|^2 <= d (2 max|w|)^2)
_KMEANS_MAX_ABS = 0.5 * np.sqrt(np.finfo(np.float64).max)


# bytes of k-means distances held at once: the problems of a stack are
# solved in sub-stacks of at most this many bytes of distances (one
# problem when a single one takes more)
_STACK_BYTES = 32 << 20


@dataclass
class Membership:
    assignment: np.ndarray        # n cluster ids in [0, P)
    P: int
    within_coarse: bool
    objective: float              # sum_i ||w_i - proxy_{mu(i)}||^2


def update_proxies(W_I: np.ndarray, membership: Membership,
                   cosine: bool = False) -> np.ndarray:
    """Proxy column p = mean of the W_I columns assigned to cluster p."""
    W_P = column_means(W_I, membership.assignment, membership.P)
    return W_P / np.linalg.norm(W_P, axis=0, keepdims=True) if cosine else W_P


def _kmeans_pp(X: np.ndarray, P: int, rngs: list) -> np.ndarray:
    """k-means++ seeds (G, P, d) of X (G, n, d); rngs[g] draws as alone: integers(0,
    n), then integers(0, n) if total <= 0, else choice(n, p=d2/total)'s random()."""
    G, n, _ = X.shape
    rows, picks, diff = np.arange(G), np.empty((G, P), np.int64), np.empty_like(X)

    def dist(j):        # summed over d in the memory order of X, as alone
        np.square(np.subtract(X, X[rows, picks[:, j], None], out=diff), out=diff)
        return diff.sum(axis=2)

    picks[:, 0] = [rng.integers(0, n) for rng in rngs]
    d2 = dist(0)
    for j in range(1, P):
        total = d2.sum(axis=1)
        live = total > 0.0
        cdf = np.cumsum(d2 / np.where(live, total, 1.0)[:, None], axis=1)
        cdf /= np.where(live, cdf[:, -1], 1.0)[:, None]
        u = np.array([rng.random() if t > 0.0 else rng.integers(0, n)
                      for rng, t in zip(rngs, total)])
        picks[:, j] = np.where(live, np.sum(cdf <= u[:, None], axis=1), u)
        d2 = np.minimum(d2, dist(j))
    return X[rows[:, None], picks]


def _repair(assign: np.ndarray, d2: np.ndarray, P: int) -> np.ndarray:
    """Fill empty clusters, lowest first, with the farthest point of a 2+ cluster."""
    counts = np.bincount((np.arange(len(assign))[:, None] * P + assign).ravel(),
                         minlength=len(assign) * P).reshape(-1, P)
    while (need := np.flatnonzero(np.any(counts == 0, axis=1))).size:
        empty, a = np.argmax(counts[need] == 0, axis=1), assign[need]
        far = d2[need[:, None], np.arange(a.shape[1]), a]
        far[np.take_along_axis(counts[need], a, axis=1) <= 1] = -np.inf
        steal = np.argmax(far, axis=1)
        counts[need, a[np.arange(need.size), steal]] -= 1
        counts[need, empty] += 1
        assign[need, steal] = empty
    return assign


def _means(X: np.ndarray, assign: np.ndarray,
           P: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster means (G, P, d) and objectives (G,), rounded as NumPy's mean
    and sum over each cluster alone: 0.0 plus a pairwise sum of its (m, d)
    block (one reduceat segment), except that for d > 1 a mean adds the
    members in ascending order. An empty cluster has mean 0 and adds 0."""
    G, n, d = X.shape
    key = (np.arange(G)[:, None] * P + assign).ravel()
    order, starts, counts = group_by_label(key, G * P)
    rows = X.reshape(G * n, d)[order]

    def block_sums(v, w):
        return np.add.reduceat(np.insert(v.ravel(), starts * w, 0.0),
                               starts * w + np.arange(G * P))

    sums = block_sums(rows, 1) if d == 1 else np.bincount(
        (key[:, None] * d + np.arange(d)).ravel(), weights=X.ravel(), minlength=G * P * d)
    means = sums.reshape(G * P, d) / np.maximum(counts, 1)[:, None]
    np.square(np.subtract(rows, means[key[order]], out=rows), out=rows)
    sse = block_sums(rows, d).reshape(G, P)
    return means.reshape(G, P, d), np.cumsum(sse, axis=1)[:, -1]


def _lloyd(X: np.ndarray, centres: np.ndarray, max_iters: int,
           tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd from centres (G, P, d), in place; a problem stops after an iteration
    that gains at most tol. Returns the final assignments and objectives."""
    G, P = centres.shape[:2]
    sq, X2 = np.sum(X * X, axis=2, keepdims=True), 2.0 * X

    def assign(act):    # X2[act] keeps each slice's memory order, so BLAS
        c = centres[act]                        # sees what a lone problem passes
        d2 = X2[act] @ c.transpose(0, 2, 1)     # then |x|^2 - 2x.c + |c|^2,
        np.subtract(sq[act], d2, out=d2)        # in place: a stack holds one
        d2 += np.sum(c * c, axis=2)[:, None, :]  # (G, n, P) array
        return np.argmin(np.maximum(d2, 0.0, out=d2), axis=2), d2

    def check(obj, prev, when=""):
        if not np.all(obj <= prev + 1e-9 * np.maximum(1.0, np.abs(prev))):
            raise InvariantError(f"k-means objective increased{when}")

    prev, act = np.full(G, np.inf), np.arange(G)
    for _ in range(max_iters):
        a = _repair(*assign(act), P)            # d2 dies before the next stack
        centres[act], obj = _means(X[act], a, P)
        check(obj, prev[act])
        prev[act], act = obj, act[~(prev[act] - obj <= tol)]
        if not act.size:
            break
    a, _ = assign(np.arange(G))
    obj = _means(X, a, P)[1]
    check(obj, prev, " at finalization")
    return a, obj


def apportion(counts: list[int], P: int) -> list[int]:
    """Largest-remainder split of P cluster slots proportional to counts,
    with every share in [1, count] for len(counts) <= P <= sum(counts)."""
    n = sum(counts)
    quotas = [P * c / n for c in counts]
    shares = [int(np.floor(q)) for q in quotas]
    remainder = P - sum(shares)
    order = sorted(range(len(counts)), key=lambda k: (shares[k] - quotas[k], k))
    for k in order[:remainder]:
        shares[k] += 1
    # share <= count: floor(quota) < count if P < n, and no remainder if P = n
    for k in range(len(shares)):
        while shares[k] < 1:
            donor = max(range(len(shares)),
                        key=lambda j: (shares[j] - 1, -j) if shares[j] > 1 else (-1, -j))
            shares[donor] -= 1
            shares[k] += 1
    return shares


def kmeans(W_I: np.ndarray, P: int, seed: int = 0, max_iters: int = 100,
           tol: float = 1e-6, restarts: int = 4,
           coarse_labels: Optional[np.ndarray] = None,
           init: Optional[np.ndarray] = None) -> Membership:
    """Cluster the columns of W_I into P clusters: k-means++ and Lloyd with
    empty-cluster repair per restart, and the lowest objective wins (ties to
    the lower restart). With coarse_labels, P is apportioned to the classes
    by size and each class is clustered alone, cluster ids offset by
    ascending class. `init` (P x d centroids) replaces k-means++ and runs
    one global restart. Restart r of class k draws from
    SeedSequence(seed).spawn(classes)[k].spawn(restarts)[r]. Problems of
    equal (n_k, P_k) are solved in one stack; `update_proxies` makes the
    proxies. DegenerateInputError: W_I is non-finite, or so large that a
    squared distance could overflow."""
    n = W_I.shape[1]
    if P > n or P < 1:
        raise ValueError(f"P={P} out of range for n={n}")
    W, seedseq = W_I.astype(np.float64), np.random.SeedSequence(seed)
    scale = np.max(np.abs(W), initial=0.0)
    if not np.isfinite(scale):
        raise DegenerateInputError("non-finite W_I")
    if scale > _KMEANS_MAX_ABS / np.sqrt(W.size):
        raise DegenerateInputError(f"W_I too large to cluster: max |w| = {scale:.3g}")
    labels, seqs = np.zeros(n, np.int64), [seedseq]
    if coarse_labels is not None:
        if init is not None:
            raise ValueError("init applies to global clustering only")
        coarse = np.asarray(coarse_labels, np.int64)     # to dense class ids
        labels = (np.cumsum(np.bincount(coarse) > 0) - 1)[coarse]
        if P < labels.max() + 1:
            raise ValueError("P must be at least the number of coarse classes")
        seqs = seedseq.spawn(int(labels.max()) + 1)
    members, first, counts = group_by_label(labels)
    budgets = np.array(apportion(counts.tolist(), P))     # [P] when global
    R = 1 if init is not None else max(restarts, 1)
    rngs = [np.random.default_rng(s) for ss in seqs for s in ss.spawn(R)]
    offsets = np.cumsum(budgets) - budgets
    assign, objective = np.empty(n, np.int64), np.empty(counts.size)
    shape = counts * (P + 1) + budgets      # one stack per (n_k, P_k)
    for cls, idx in equal_size_groups(members, first, counts, shape):
        n_k, P_k = idx.shape[1], budgets[cls[0]]
        # laid out as a lone problem's points: that fixes NumPy's sum order
        X = np.repeat(W[None], R, axis=0).transpose(0, 2, 1) \
            if coarse_labels is None else np.repeat(W.T[idx], R, axis=0)
        stack_rngs = [rngs[c * R + r] for c in cls for r in range(R)]
        # problem g is class cls[g // R], restart g % R; solved in
        # sub-stacks whose n_k x P_k distances fit the byte budget
        per = max(1, _STACK_BYTES // (8 * n_k * P_k))
        parts = []
        for g in range(0, X.shape[0], per):
            sub = X[g:g + per]
            centres = np.array(init, np.float64)[None] if init is not None \
                else _kmeans_pp(sub, P_k, stack_rngs[g:g + per])
            parts.append(_lloyd(sub, centres, max_iters, tol))
        a, obj = (np.concatenate(part) for part in zip(*parts))
        best = np.arange(0, a.shape[0], R) + np.argmin(obj.reshape(-1, R), axis=1)
        assign[idx], objective[cls] = a[best] + offsets[cls][:, None], obj[best]
    return Membership(assign, P, coarse_labels is not None,
                      float(np.cumsum(objective)[-1]))
