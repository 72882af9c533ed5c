"""The training objective with analytic gradients.

`objective` returns a weighted sum of mean cross-entropy terms over the
batch together with gradients w.r.t. the backbone embeddings, each head
it read (dense, d x K) and the projection weights when the instance/proxy
branch has one. Instance-head column reads are counted so the
within-coarse speedup can be verified exactly. A training loop can
pass `objective` one workspace dict `ws` for many steps, so that the large
per-step arrays are overwritten (through `numerics.buffer`) instead of
page-faulted afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .cluster import Membership
from .model import (EncodeCache, ModelParams, branch_backward, branch_forward,
                    encode)
from .numerics import buffer, group_by_label, row_blocks, softmax_core


class AccessCounter:
    """Counts instance-head column reads (one per column per example)."""

    def __init__(self) -> None:
        self.reads = 0

    def add(self, k: int) -> None:
        self.reads += k

    def reset(self) -> None:
        self.reads = 0


# global counter for W_I column accesses; reset it around a measurement
WI_READS = AccessCounter()


@dataclass
class LossValue:
    value: float
    grad_embeddings: Optional[np.ndarray]       # w.r.t. backbone f(x)
    grad_heads: dict[str, np.ndarray]           # head -> dense d x K gradient
    grad_mlp_head: Optional[tuple[np.ndarray, np.ndarray]] = None
    encoder_cache: Optional[EncodeCache] = None
    embeddings: Optional[np.ndarray] = None     # backbone f(x) of the batch
    components: dict[str, float] = field(default_factory=dict)  # head -> CE

    def check_finite(self) -> "LossValue":
        grads = () if self.grad_embeddings is None else self.grad_embeddings
        if not (np.isfinite(self.value) and np.all(np.isfinite(grads))):
            raise FloatingPointError("non-finite loss or gradient")
        return self


TERMS = ("coarse", "instance", "within", "proxy")

# padded logits per chunk of coarse classes in the within-coarse term
# (16k floats, 128 KiB): one product over every class of a large batch
# would hold classes x r_max x n_max floats at once
_CHUNK_FLOATS = 1 << 14

# floats per block of the staged within-coarse gradient copied into the
# d x n dW (32 KiB, within L1): one copy of the whole n x d buffer sweeps
# it d times with a stride of d floats, and once it outgrows the cache
# every row misses on every sweep (3.7x slower at n = 16384, d = 32)
_TRANSPOSE_FLOATS = 1 << 12


def _ce_block(params: ModelParams, G: np.ndarray, head: str,
              labels: np.ndarray, denom: int, values_only: bool = False,
              ws: Optional[dict] = None
              ) -> tuple[float, Optional[np.ndarray], Optional[np.ndarray]]:
    """Cross-entropy of G against every column of a head, summed and divided
    by denom: (value, grad wrt G, d x K grad wrt the head). `values_only`
    gives None gradients and scores each row block in one reused block x K
    scratch; else the logits are one G @ W (a block's own product can round
    differently) whose row blocks become softmax minus one-hot in place.
    The logits and the head gradient go into workspace `ws` when given."""
    W = params.head_matrix(head)
    log_p = np.empty(G.shape[0])
    dlogits = None if values_only else np.matmul(
        G, W, out=buffer(ws, "logits", (G.shape[0], W.shape[1])))
    widths = (W.shape[1],) if values_only else ()
    for blk, *block_buf in row_blocks(G.shape[0], *widths):
        rows = slice(blk[0], blk[-1] + 1)     # a view: writes reach dlogits
        logits = np.matmul(G[rows], W, out=block_buf[0]) if values_only \
            else dlogits[rows]
        if params.cosine:
            logits /= params.temperature
        at = (np.arange(blk.size), labels[rows])
        own, _, total = softmax_core(logits, at)
        log_p[rows] = own - np.log(total[:, 0])
        if not values_only:
            logits /= total                                  # softmax
            logits[at] -= 1.0
    value = float(-np.sum(log_p)) / denom
    if values_only:
        return value, None, None
    dlogits /= denom
    if params.cosine:
        dlogits /= params.temperature
    return value, dlogits @ W.T, np.matmul(
        G.T, dlogits, out=buffer(ws, "grad_" + head, W.shape))


@dataclass(frozen=True)
class CoarseIndex:
    """The instance columns by coarse class, built once per run: row k of
    `grid` is class k's counts[k] columns in ascending order, padded with 0."""
    labels: np.ndarray      # column j's coarse class
    counts: np.ndarray      # per class, from numerics.group_by_label
    slot: np.ndarray        # column j's position within its class
    grid: np.ndarray        # classes x largest class


def build_coarse_index(coarse_labels: np.ndarray) -> CoarseIndex:
    """The layout of columns 0..n-1, column j in class coarse_labels[j]."""
    y = np.asarray(coarse_labels, dtype=np.int64)
    order, starts, counts = group_by_label(y)
    slot = np.empty_like(y)
    slot[order] = np.arange(y.size) - np.repeat(starts, counts)
    grid = np.zeros((counts.size, counts.max(initial=0)), dtype=np.int64)
    grid[np.arange(grid.shape[1]) < counts[:, None]] = order
    return CoarseIndex(y, counts, slot, grid)


def _within_coarse_term(params: ModelParams, G: np.ndarray, ids: np.ndarray,
                        coarse_labels: np.ndarray, index: CoarseIndex,
                        denom: int, ws: Optional[dict] = None,
                        values_only: bool = False
                        ) -> tuple[float, Optional[np.ndarray],
                                   Optional[np.ndarray]]:
    """Instance CE restricted to each example's coarse class: only member
    columns are read, so the per-example head cost is O(d n_k), not O(d n).

    The batch rows are sorted by class into a padded classes x r_max x d
    block and the member columns gathered by `index.grid` as classes x
    n_max x d, so one batched product scores a chunk of classes; padded
    members are masked to -inf and padded rows are zero, so neither
    reaches a gradient. `values_only` stops each chunk once its value is
    added and gives None gradients. Else each member's gradient is staged
    as one contiguous row of an n x d buffer, whose transpose is copied
    into the d x n dW once per call, in blocks of rows."""
    W_I = params.W_I
    order, starts, counts = group_by_label(coarse_labels)
    sorted_ids = ids[order]
    bad = np.flatnonzero(index.labels[sorted_ids] != coarse_labels[order])
    if bad.size:
        raise ValueError(f"example {sorted_ids[bad[0]]} not listed in coarse "
                         f"class {coarse_labels[order[bad[0]]]} membership")
    classes = np.flatnonzero(counts)
    starts, counts, sizes = starts[classes], counts[classes], index.counts[classes]
    r_max, n_max, d = int(counts.max()), int(sizes.max()), G.shape[1]
    padded = index.grid[classes, :n_max]
    is_member = np.arange(n_max) < sizes[:, None]
    row_class = np.repeat(np.arange(classes.size), counts)   # per sorted row
    row_slot = np.arange(order.size) - np.repeat(starts, counts)
    WI_READS.add(int(np.dot(counts, sizes)))

    not_member = ~is_member[:, None, :]
    per_chunk = max(1, _CHUNK_FLOATS // (r_max * n_max))
    K = min(per_chunk, classes.size)
    # reused by every chunk (a fresh array per chunk would page-fault each
    # time once it passes the mmap threshold) and by every call that
    # shares `ws`
    rows_buf = buffer(ws, "within_rows", (K, r_max, d))
    cols_buf = buffer(ws, "within_cols", (d * K * n_max,))
    logits_buf = buffer(ws, "within_logits", (K, r_max, n_max))
    if not values_only:
        grad_buf = buffer(ws, "within_grad", (K * n_max, d))
        member_buf = buffer(ws, "within_members", (K * n_max, d))
        dG = np.empty_like(G)
        staged = buffer(ws, "within_staged", W_I.shape[::-1])
        staged.fill(0.0)
    value = 0.0
    for c0 in range(0, classes.size, per_chunk):
        c1 = min(c0 + per_chunk, classes.size)
        t = slice(starts[c0], starts[c1] if c1 < classes.size else order.size)
        cls, pos, lab = row_class[t] - c0, row_slot[t], index.slot[sorted_ids[t]]
        rows = rows_buf[:c1 - c0]
        rows.fill(0.0)
        rows[cls, pos] = G[order[t]]
        # member columns as classes x d x n_max, gathered along W_I's rows
        cols = np.take(W_I, padded[c0:c1], axis=1, mode="clip",
                       out=cols_buf[:d * (c1 - c0) * n_max]
                       .reshape(d, c1 - c0, n_max)).transpose(1, 0, 2)
        logits = np.matmul(rows, cols, out=logits_buf[:c1 - c0])
        if params.cosine:
            logits /= params.temperature
        np.copyto(logits, -np.inf, where=not_member[c0:c1])
        own, _, total = softmax_core(logits, (cls, pos, lab))
        value -= float(np.sum(own - np.log(total[cls, pos, 0]))) / denom
        if values_only:
            continue
        logits /= total                                      # softmax
        logits[cls, pos, lab] -= 1.0
        logits /= denom
        if params.cosine:
            logits /= params.temperature
        dG[order[t]] = np.matmul(logits, cols.transpose(0, 2, 1))[cls, pos]
        grads = grad_buf[:(c1 - c0) * n_max]
        np.matmul(logits.transpose(0, 2, 1), rows,
                  out=grads.reshape(c1 - c0, n_max, d))
        cell = np.flatnonzero(is_member[c0:c1])    # member cells of the chunk
        staged[padded[c0:c1].ravel()[cell]] = np.take(
            grads, cell, axis=0, mode="clip", out=member_buf[:cell.size])
    if values_only:
        return value, None, None
    dW = buffer(ws, "grad_instance", W_I.shape)
    step = max(1, _TRANSPOSE_FLOATS // d)
    for j in range(0, W_I.shape[1], step):
        np.copyto(dW[:, j:j + step], staged[j:j + step].T)
    return value, dG, dW


def _accumulate(total, weight, x):
    """total + weight * x, or weight * x for the first term."""
    return weight * x if total is None else total + weight * x


def objective(params: ModelParams, batch: np.ndarray,
              instance_ids: Optional[np.ndarray], terms: Mapping[str, float],
              coarse_labels: Optional[np.ndarray] = None,
              coarse_index: Optional[CoarseIndex] = None,
              membership: Optional[Membership] = None,
              values_only: bool = False,
              ws: Optional[dict] = None) -> LossValue:
    """Weighted sum of mean cross-entropy terms over the batch.

    `terms` maps a term to its weight: "coarse" (`coarse_labels` on the
    coarse head), "instance" (the full n-way instance softmax), "within"
    (the instance softmax restricted to the example's coarse class, whose
    members `coarse_index` lists) and "proxy" (the example's cluster in
    `membership` over the P proxy columns). A term that is absent or
    weighted 0 is not computed. Head gradients are dense d x K arrays,
    present only for heads some term read; `components` holds each head's
    unweighted cross-entropy. `values_only` forms no gradient (None or
    empty), stops each within-coarse chunk at its value and scores the
    full-softmax terms in row blocks: bitwise alike where the BLAS rounds
    a block's product as the same rows of the whole product, which not
    every kernel does at every shape (README, "One cross-entropy loop").

    `ws` is a workspace dict the caller keeps between calls (start it
    empty; `train` keeps one per epoch): the logits, the head gradients,
    the within-coarse chunk buffers and its staged gradient are
    `numerics.buffer`s in it. The returned head gradients then alias its
    buffers and hold only until the next call with the same dict, which
    overwrites them: use them at once, as `trainer.apply_gradients` does.
    Without it every array is fresh. The bits are the same either way.
    """
    if set(terms) - set(TERMS):
        raise ValueError(f"unknown loss terms {sorted(set(terms) - set(TERMS))}")
    if any(w < 0 for w in terms.values()):
        raise ValueError("loss weights must be non-negative")
    active = {t: terms[t] for t in TERMS if terms.get(t, 0) > 0}
    if not active:
        raise ValueError("no loss term has a positive weight")
    if "instance" in active and "within" in active:
        raise ValueError("the 'instance' and 'within' terms exclude each other")
    y = None if coarse_labels is None else np.asarray(coarse_labels, dtype=np.int64)
    ids = None if instance_ids is None else np.asarray(instance_ids, dtype=np.int64)
    if "coarse" in active and (y.min(initial=0) < 0
                               or y.max(initial=0) >= params.W_C.shape[1]):
        raise ValueError("coarse label out of range")
    if set(active) - {"coarse"} and (
            ids.min(initial=0) < 0 or ids.max(initial=0) >= params.W_I.shape[1]):
        raise ValueError("instance id out of range")
    if "proxy" in active:
        if params.W_P is None:
            raise RuntimeError("instance-proxy loss requested before the proxy "
                               "head was initialized")
        if membership is None:
            raise RuntimeError("proxy term requires a membership and W_P")

    f, ecache = encode(params, batch)
    if values_only:
        ecache = None         # no backward pass: free each layer's input rows
    B = f.shape[0]
    value = dF = mlp_grad = None
    grad_heads: dict[str, np.ndarray] = {}
    components: dict[str, float] = {}
    for term, weight in active.items():
        head = "instance" if term == "within" else term
        G, bcache = branch_forward(params, f, head)
        if term == "within":
            v, dG, dW = _within_coarse_term(params, G, ids, y, coarse_index,
                                            B, ws, values_only)
        else:
            if term == "coarse":
                labels = y
            elif term == "instance":
                WI_READS.add(B * params.W_I.shape[1])
                labels = ids
            else:
                labels = membership.assignment[ids]
            v, dG, dW = _ce_block(params, G, head, labels, B, values_only,
                                  ws)
        value = _accumulate(value, weight, v)
        components[head] = v
        if values_only:
            continue
        dF_term, dmlp = branch_backward(params, bcache, dG)
        dF = _accumulate(dF, weight, dF_term)
        dW *= weight          # fresh, or this call's buffer: scaled in place
        grad_heads[head] = dW
        if dmlp is not None:
            prev = mlp_grad or (None, None)
            mlp_grad = (_accumulate(prev[0], weight, dmlp[0]),
                        _accumulate(prev[1], weight, dmlp[1]))
    return LossValue(value=value, grad_embeddings=dF, grad_heads=grad_heads,
                     grad_mlp_head=mlp_grad, encoder_cache=ecache,
                     embeddings=f, components=components).check_finite()


# The single-term and combined forms as entry points of their own.

def coarse_loss(params: ModelParams, batch: np.ndarray,
                coarse_labels: np.ndarray) -> LossValue:
    return objective(params, batch, None, {"coarse": 1.0}, coarse_labels)


def instance_loss_full(params: ModelParams, batch: np.ndarray,
                       instance_ids: np.ndarray) -> LossValue:
    return objective(params, batch, instance_ids, {"instance": 1.0})


def instance_loss_within_coarse(params: ModelParams, batch: np.ndarray,
                                instance_ids: np.ndarray,
                                coarse_labels: np.ndarray,
                                coarse_index: CoarseIndex
                                ) -> LossValue:
    return objective(params, batch, instance_ids, {"within": 1.0},
                     coarse_labels, coarse_index)


def instance_proxy_loss(params: ModelParams, batch: np.ndarray,
                        instance_ids: np.ndarray,
                        membership: Membership) -> LossValue:
    return objective(params, batch, instance_ids, {"proxy": 1.0},
                     membership=membership)


def combined_objective(params: ModelParams, batch: np.ndarray,
                       instance_ids: np.ndarray, coarse_labels: np.ndarray,
                       coarse_index: CoarseIndex,
                       lambda_I: float, lambda_P: float,
                       membership: Optional[Membership] = None,
                       within_coarse: bool = True) -> LossValue:
    """coarse + lambda_I * (within-coarse or full) instance + lambda_P * proxy."""
    return objective(params, batch, instance_ids,
                     {"coarse": 1.0, "within" if within_coarse else "instance":
                      lambda_I, "proxy": lambda_P},
                     coarse_labels, coarse_index, membership)
