"""k-means over instance-head columns: maintains the cluster membership and
the proxy matrix (column-wise means), globally or within each coarse class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import InvariantError, column_means


@dataclass
class Membership:
    assignment: np.ndarray        # n cluster ids in [0, P)
    P: int
    within_coarse: bool
    objective: float              # sum_i ||w_i - proxy_{mu(i)}||^2

    def recompute_objective(self, W_I: np.ndarray) -> float:
        pts = W_I.T
        total = 0.0
        for p in range(self.P):
            members = pts[self.assignment == p]
            if members.shape[0] == 0:
                continue
            center = members.mean(axis=0)
            total += float(np.sum((members - center) ** 2))
        return total


def update_proxies(W_I: np.ndarray, membership: Membership,
                   cosine: bool = False) -> np.ndarray:
    """Proxy column p = mean of the W_I columns assigned to cluster p."""
    W_P = column_means(W_I, membership.assignment, membership.P)
    if cosine:
        W_P = W_P / np.linalg.norm(W_P, axis=0, keepdims=True)
    return W_P


def _kmeans_pp_init(pts: np.ndarray, P: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((P, pts.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = pts[first]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, P):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def _assign(pts: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = (np.sum(pts * pts, axis=1, keepdims=True)
          - 2.0 * pts @ centers.T + np.sum(centers * centers, axis=1))
    d2 = np.maximum(d2, 0.0)
    assign = np.argmin(d2, axis=1)
    return assign, d2


def _lloyd(pts: np.ndarray, P: int, rng: np.random.Generator,
           max_iters: int, tol: float,
           init: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    centers = _kmeans_pp_init(pts, P, rng) if init is None else np.array(init, dtype=np.float64)
    prev_obj = np.inf
    assign = None
    for _ in range(max_iters):
        assign, d2 = _assign(pts, centers)
        # repair empty clusters by stealing the point farthest from its centroid
        for p in range(P):
            if np.any(assign == p):
                continue
            per_point = d2[np.arange(pts.shape[0]), assign]
            # never empty another cluster down to zero
            counts = np.bincount(assign, minlength=P)
            per_point = np.where(counts[assign] > 1, per_point, -np.inf)
            steal = int(np.argmax(per_point))
            assign[steal] = p
            d2[steal, :] = np.sum((pts[steal] - centers) ** 2, axis=1)
        obj = 0.0
        for p in range(P):
            members = pts[assign == p]
            centers[p] = members.mean(axis=0)
            obj += float(np.sum((members - centers[p]) ** 2))
        if not obj <= prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
            raise InvariantError("k-means objective increased")
        if prev_obj - obj <= tol:
            prev_obj = obj
            break
        prev_obj = obj
    # final assignment consistent with the final centers
    assign, _ = _assign(pts, centers)
    obj = 0.0
    for p in range(P):
        members = pts[assign == p]
        if members.shape[0] == 0:
            continue
        obj += float(np.sum((members - members.mean(axis=0)) ** 2))
    if not obj <= prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
        raise InvariantError("k-means objective increased at finalization")
    return assign, obj


def apportion(counts: list[int], P: int) -> list[int]:
    """Largest-remainder split of P cluster slots proportional to counts,
    with every share in [1, count]."""
    n = sum(counts)
    quotas = [P * c / n for c in counts]
    shares = [int(np.floor(q)) for q in quotas]
    remainder = P - sum(shares)
    order = sorted(range(len(counts)),
                   key=lambda k: (-(quotas[k] - shares[k]), k))
    for k in order[:remainder]:
        shares[k] += 1
    # enforce 1 <= share <= count by moving slots between classes
    for k in range(len(shares)):
        while shares[k] < 1:
            donor = max(range(len(shares)),
                        key=lambda j: (shares[j] - 1, -j) if shares[j] > 1 else (-1, -j))
            shares[donor] -= 1
            shares[k] += 1
        while shares[k] > counts[k]:
            taker = min(range(len(shares)),
                        key=lambda j: (shares[j] / counts[j], j)
                        if shares[j] < counts[j] else (np.inf, j))
            shares[taker] += 1
            shares[k] -= 1
    return shares


def _kmeans_global(W_I, pts, P, seed, max_iters, tol, restarts, init=None,
                   _seedseq=None):
    if init is not None:
        restarts = 1
    seedseq = _seedseq if _seedseq is not None else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(ss) for ss in seedseq.spawn(max(restarts, 1))]
    best = None
    for r in range(max(restarts, 1)):
        assign, obj = _lloyd(pts, P, rngs[r], max_iters, tol, init=init)
        if best is None or obj < best[1]:
            best = (assign, obj)
    membership = Membership(assignment=best[0], P=P, within_coarse=False,
                            objective=best[1])
    return membership, update_proxies(W_I, membership)


def kmeans(W_I: np.ndarray, P: int, seed: int = 0, max_iters: int = 100,
           tol: float = 1e-6, restarts: int = 4,
           coarse_labels: Optional[np.ndarray] = None,
           init: Optional[np.ndarray] = None,
           _seedseq: Optional[np.random.SeedSequence] = None
           ) -> tuple[Membership, np.ndarray]:
    """Cluster the columns of W_I into P clusters.

    k-means++ initialization per restart, Lloyd iterations with empty-cluster
    repair; the restart with the lowest objective wins (ties to the lower
    restart index). With coarse_labels given, a per-class slot budget
    proportional to class size is apportioned and k-means runs independently
    inside each class, offsetting cluster ids by ascending class index.
    Passing `init` (P x d centroids) skips k-means++ and runs one restart.
    """
    pts = W_I.T.astype(np.float64)
    n = pts.shape[0]
    if P > n or P < 1:
        raise ValueError(f"P={P} out of range for n={n}")
    if coarse_labels is None:
        return _kmeans_global(W_I, pts, P, seed, max_iters, tol, restarts,
                              init=init, _seedseq=_seedseq)

    y = np.asarray(coarse_labels, dtype=np.int64)
    classes = np.unique(y).tolist()
    counts = [int(np.sum(y == k)) for k in classes]
    if P < len(classes):
        raise ValueError("P must be at least the number of coarse classes")
    budgets = apportion(counts, P)
    assign = np.empty(n, dtype=np.int64)
    total_obj = 0.0
    offset = 0
    seedseq = _seedseq if _seedseq is not None else np.random.SeedSequence(seed)
    subseeds = seedseq.spawn(len(classes))
    for k, P_k, ss in zip(classes, budgets, subseeds):
        idx = np.nonzero(y == k)[0]
        sub, _ = kmeans(W_I[:, idx], P_k, max_iters=max_iters, tol=tol,
                        restarts=restarts, _seedseq=ss)
        assign[idx] = sub.assignment + offset
        total_obj += sub.objective
        offset += P_k
    membership = Membership(assignment=assign, P=P, within_coarse=True,
                            objective=total_obj)
    return membership, update_proxies(W_I, membership)
