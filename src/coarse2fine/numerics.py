"""Row normalisation, indices grouped by label, groups of equal size, grouped
column means, the row blocks the O(n^2) read paths and the wide example
reads and forwards stream over (on one thread or two), the one softmax
core, the step's workspace buffers, the memory guard of the size flags and
a finite-difference checker.

Everything here operates on float64 numpy arrays, as does the whole
package: `model.encode` casts every batch to float64, and the bound checks
evaluate exp() of large dot products.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from typing import Any, Callable, Optional

import numpy as np


# rows per block in the passes that score every example against all n
# columns (retrieval, bound constants, the epoch metrics): memory is
# O(block * n), not n x n
_ROW_BLOCK = 128

# the width from which a `threaded_row_blocks` pass is wide: its blocks
# take half the rows, and from _WIDE x _WIDE cells up two threads share
# them. Below, a second thread costs more than it saves
_WIDE = 640


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


def index_blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of up to `size` indices covering 0..n-1. For
    size > 2 none is a trailing single index where there are several:
    NumPy computes a one-row product as a matrix-vector product, which can
    round differently from the rows of a matrix product."""
    bounds = list(range(0, n, size)) + [n]
    if size > 2 and len(bounds) > 2 and n - bounds[-2] == 1:
        bounds[-2] -= 1
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def is_wide(n: int, width: int) -> bool:
    """Whether a pass over n rows of `width` columns is wide: width >= _WIDE
    and at least _WIDE x _WIDE cells. A wide pass may take two threads; a
    narrow one costs more on two than on one."""
    return width >= _WIDE and n * width >= _WIDE * _WIDE


def _threads(n: int, width: int) -> int:
    """Threads for a pass over n rows of `width` columns: two where the pass
    `is_wide` and the process may run on two CPUs, else one."""
    if not is_wide(n, width):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def threaded_row_blocks(n: int, body: Callable[..., None], *widths: int,
                        columns: int = 0) -> None:
    """Call body(blk, *scratch) on each of the consecutive `index_blocks`
    covering rows 0..n-1, blk the block's row indices: of _ROW_BLOCK // 2
    rows (at least one) where the pass's width reaches min(n, _WIDE), else
    of _ROW_BLOCK, on `_threads` threads: the caller and, for two, one
    helper thread that runs in a copy of the caller's context (so NumPy's
    errstate holds there too). The pass's width is its widest scratch, or
    `columns` when that is wider: the width of rows it reads but keeps no
    scratch of. Each thread takes the next block in turn and has its own
    scratch, one float64 array of shape (block size, width) per width.
    `body` writes its results per row into the caller's arrays, so they do
    not depend on the thread count, and must call no traced seam. The
    helper is joined on every path. Once a block raises, no later block is
    begun, and the exception of the lowest block that raised is re-raised,
    as on one thread."""
    width = max((columns, *widths))
    size = max(1, _ROW_BLOCK // 2) if width >= min(n, _WIDE) else _ROW_BLOCK
    blocks = index_blocks(n, size)
    todo = iter(range(len(blocks)))
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()

    def work() -> None:
        scratch = [np.empty((min(n, size), w)) for w in widths]
        while True:
            with lock:
                i = next(todo, None)
                if i is None or (errors and i > min(errors)):
                    return
            blk = np.arange(blocks[i].start, blocks[i].stop)
            try:
                body(blk, *(buf[:blk.size] for buf in scratch))
            except BaseException as exc:      # re-raised below, after the join
                with lock:
                    errors[i] = exc
                return

    helper = None
    if _threads(n, width) > 1:
        helper = threading.Thread(target=contextvars.copy_context().run,
                                  args=(work,))
        try:
            helper.start()
        except RuntimeError:          # no thread to be had: all on this one
            helper = None
    try:
        work()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[min(errors)]


def check_bytes(bytes_of: Callable[..., int],
                flags: dict[str, tuple[str, Any, Any]], what: str) -> None:
    """ValueError naming the flag whose least value frees the most, when
    bytes_of(**values) exceeds half of the physical memory (`os.sysconf`).
    `flags` maps each keyword of bytes_of to its (flag, value, least
    value). bytes_of counts in Python ints, so no size overflows, and the
    check runs before anything of that size is allocated."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    values = {key: value for key, (_, value, _) in flags.items()}
    need = bytes_of(**values)
    if need <= limit:
        return
    key = min(flags, key=lambda k: bytes_of(**{**values, k: flags[k][2]}))
    value = values[key]
    raise ValueError(
        f"{flags[key][0]} "
        f"{','.join(map(str, value)) if isinstance(value, list) else value}: "
        f"{what} take {need >> 20} MiB, more than half of the "
        f"{2 * limit >> 20} MiB of physical memory")


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


def equal_size_groups(order: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray, key: Optional[np.ndarray] = None):
    """For each distinct key, ascending, of the non-empty groups of a
    `group_by_label` layout (order, starts, counts): the ids of its groups,
    ascending, and their (groups, size) matrix of indices, row g holding
    group ids[g]'s. A group's key is its size unless `key` gives one per
    group; the groups of one key must be of one size."""
    key = counts if key is None else key
    live = np.flatnonzero(counts)
    live = live[np.argsort(key[live], kind="stable")]
    cuts = np.flatnonzero(np.diff(key[live])) + 1
    for ids in np.split(live, cuts) if live.size else []:
        yield ids, order[starts[ids][:, None] + np.arange(counts[ids[0]])]


def column_means(W: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """d x K matrix whose column s is the mean of the columns of W labelled s,
    each taken over its columns in index order, as `W[:, labels == s]`
    holds them; a label >= K is ignored. The groups of one size are
    gathered as one (d, groups, size) array (`equal_size_groups`), and one
    `mean` over its last axis serves them all.
    DegenerateInputError: a label in [0, K) labels no column."""
    order, starts, counts = group_by_label(labels, K)
    if not counts[:K].all():
        s = int(np.argmin(counts[:K]))
        raise DegenerateInputError(f"group {s} is empty: no column is labelled {s}")
    out = np.empty((W.shape[0], K))
    for ids, idx in equal_size_groups(order, starts[:K], counts[:K]):
        out[:, ids] = W[:, idx].mean(axis=2)
    return out


def own_proxy_softmax(emb: np.ndarray, W: np.ndarray, labels: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i of emb against the proxies, the `column_means` of W by label:
    the logit of its own proxy labels[i], and the m and sum of the softmax
    core over all proxies, so log Pr{labels[i]} = own - (m + log(sum)).
    One `threaded_row_blocks` block at a time: no n x K matrix is held."""
    labels = np.asarray(labels, dtype=np.int64)
    proxies = column_means(W, labels, int(labels.max()) + 1)
    own, m, total = (np.empty(emb.shape[0]) for _ in range(3))

    def score(blk: np.ndarray, logits: np.ndarray) -> None:
        np.matmul(emb[blk], proxies, out=logits)
        own[blk] = logits[np.arange(blk.size), labels[blk]]
        _, m_blk, total_blk = softmax_core(logits)
        m[blk], total[blk] = m_blk[:, 0], total_blk[:, 0]

    threaded_row_blocks(emb.shape[0], score, proxies.shape[1])
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
