"""Row normalisation, indices grouped by label, grouped column means, the
row blocks the O(n^2) read paths stream over, the one softmax core, the
workspace buffers of the training step, and a finite-difference checker.

Everything here operates on float64 numpy arrays, as does the whole
package: `model.encode` casts every batch to float64, and the bound checks
evaluate exp() of large dot products.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np


# rows per block in the passes that score every example against all n
# columns (retrieval, bound constants, the epoch metrics): memory is
# O(block * n), not n x n
_ROW_BLOCK = 128


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (e.g. near-zero norm)."""


class InvariantError(RuntimeError):
    """A check that holds for correct code failed: an implementation bug."""


def buffer(ws: Optional[dict], key: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of `shape`: fresh without a workspace
    `ws`, else the leading part of the flat array kept under `key` (made, or
    grown, when it is too small)."""
    if ws is None:
        return np.empty(shape)
    size = math.prod(shape)               # np.prod of a tuple costs ~7 us
    buf = ws.get(key)
    if buf is None or buf.size < size:
        buf = ws[key] = np.empty(size)
    return buf[:size].reshape(shape)


def row_blocks(n: int, *widths: int):
    """Cover rows 0..n-1 in consecutive index blocks of up to _ROW_BLOCK
    rows. Each block comes with one float64 scratch array of shape
    (block size, width) per width: allocated once, reused by every block."""
    scratch = [np.empty((min(n, _ROW_BLOCK), w)) for w in widths]
    bounds = list(range(0, n, _ROW_BLOCK)) + [n]
    if _ROW_BLOCK > 2 and len(bounds) > 2 and n - bounds[-2] == 1:
        # no trailing one-row block: NumPy computes a one-row product as a
        # matrix-vector product, which can round differently from the rows
        # of a matrix product
        bounds[-2] -= 1
    for start, stop in zip(bounds[:-1], bounds[1:]):
        blk = np.arange(start, stop)
        yield (blk, *(buf[:blk.size] for buf in scratch))


def softmax_core(x: np.ndarray, at: Optional[tuple] = None
                 ) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Softmax over the last axis, in place: subtract the max m (0 where m is
    not finite, so a slice of -inf only sums to 0), read the label cells `at`
    (one index array per axis) when given, exponentiate and sum. Returns the
    shifted label cells, m and the sums (last axis kept); log Σexp(x) is
    m + log(sums), and x is left holding exp(x - m)."""
    m = x.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        m[~np.isfinite(m)] = 0.0
    x -= m
    own = None if at is None else x[at]
    np.exp(x, out=x)
    return own, m, x.sum(axis=-1, keepdims=True)


def check_finite_embeddings(emb: np.ndarray) -> None:
    """Raise DegenerateInputError naming the first embedding row that holds
    a NaN or an infinity."""
    bad = ~np.all(np.isfinite(emb), axis=1)
    if bad.any():
        raise DegenerateInputError(
            f"embedding row {int(np.argmax(bad))} is not finite")


def normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms <= eps):
        raise DegenerateInputError("row with near-zero norm")
    return x / norms


def normalize_rows_backward(x: np.ndarray, grad_out: np.ndarray,
                            eps: float = 1e-12) -> np.ndarray:
    """Row-wise VJP of x -> x/||x||."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms <= eps):
        raise DegenerateInputError("row with near-zero norm")
    u = x / norms
    dots = np.sum(u * grad_out, axis=1, keepdims=True)
    return (grad_out - dots * u) / norms


def group_by_label(labels: np.ndarray, K: int = 0) -> tuple[np.ndarray, ...]:
    """(order, starts, counts): label s's indices, ascending, are
    order[starts[s]:starts[s] + counts[s]]. A stable argsort, and a bincount
    of the non-negative integer labels with at least K entries."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=K)
    return np.argsort(labels, kind="stable"), np.cumsum(counts) - counts, counts


def column_means(W: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """d x K matrix whose column s is the mean of the columns of W labelled s,
    each taken over its contiguous run of `group_by_label`'s order.
    DegenerateInputError: a label in [0, K) labels no column."""
    order, starts, counts = group_by_label(labels, K)
    if not counts[:K].all():
        s = int(np.argmin(counts[:K]))
        raise DegenerateInputError(f"group {s} is empty: no column is labelled {s}")
    grouped = W[:, order]
    out = np.empty((W.shape[0], K))
    for s in range(K):
        out[:, s] = grouped[:, starts[s]:starts[s] + counts[s]].mean(axis=1)
    return out


def own_proxy_softmax(emb: np.ndarray, W: np.ndarray, labels: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i of emb against the proxies, the `column_means` of W by label:
    the logit of its own proxy labels[i], and the m and sum of the softmax
    core over all proxies, so log Pr{labels[i]} = own - (m + log(sum)).
    One row block at a time: no n x K matrix is held."""
    labels = np.asarray(labels, dtype=np.int64)
    proxies = column_means(W, labels, int(labels.max()) + 1)
    own, m, total = (np.empty(emb.shape[0]) for _ in range(3))
    for blk, logits in row_blocks(emb.shape[0], proxies.shape[1]):
        np.matmul(emb[blk], proxies, out=logits)
        own[blk] = logits[np.arange(blk.size), labels[blk]]
        _, m_blk, total_blk = softmax_core(logits)
        m[blk], total[blk] = m_blk[:, 0], total_blk[:, 0]
    return own, m, total


def grad_check(fn: Callable[[np.ndarray], float], point: np.ndarray,
               analytic_grad: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error of analytic_grad vs central finite differences.

    Relative error per coordinate uses max(1, |analytic|, |numeric|) as
    the denominator.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if point.shape != analytic_grad.shape:
        raise ValueError("point and analytic_grad shapes differ")
    worst = 0.0
    flat = point.ravel()
    aflat = analytic_grad.ravel()
    for i in range(flat.size):
        x = flat.copy()
        x[i] = flat[i] + step
        fp = fn(x.reshape(point.shape))
        x[i] = flat[i] - step
        fm = fn(x.reshape(point.shape))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(
                f"non-finite evaluation while perturbing coordinate {i}")
        numeric = (fp - fm) / (2.0 * step)
        denom = max(1.0, abs(aflat[i]), abs(numeric))
        worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
