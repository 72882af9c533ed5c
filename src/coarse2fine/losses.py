"""The training objective with analytic gradients.

`objective` returns a weighted sum of mean cross-entropy terms over the
batch together with gradients w.r.t. the backbone embeddings, each head
it read (dense, d x K) and the projection weights when the instance/proxy
branch has one. Instance-head column reads are counted so the
within-coarse speedup can be verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .cluster import Membership
from .model import (EncodeCache, ModelParams, branch_backward, branch_forward,
                    encode, head_logits)
from .numerics import log_softmax_rows, softmax_rows


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
    grad_embeddings: np.ndarray                 # w.r.t. backbone f(x)
    grad_heads: dict[str, np.ndarray]           # head -> dense d x K gradient
    grad_mlp_head: Optional[tuple[np.ndarray, np.ndarray]] = None
    encoder_cache: Optional[EncodeCache] = None
    embeddings: Optional[np.ndarray] = None     # backbone f(x) of the batch
    components: dict[str, float] = field(default_factory=dict)  # head -> CE

    def check_finite(self) -> "LossValue":
        if not np.isfinite(self.value) or not np.all(np.isfinite(self.grad_embeddings)):
            raise FloatingPointError("non-finite loss or gradient")
        return self


TERMS = ("coarse", "instance", "within", "proxy")


def _ce_block(params: ModelParams, G: np.ndarray, head: str,
              cols: Optional[np.ndarray], label_pos: np.ndarray,
              denom: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy of G against head columns, summed and divided by denom.

    Returns (value, grad wrt G, d x len(cols) grad wrt the columns read)."""
    logits = head_logits(params, G, head, cols)
    logp = log_softmax_rows(logits)
    rows = np.arange(G.shape[0])
    value = float(-np.sum(logp[rows, label_pos])) / denom
    dlogits = softmax_rows(logits)
    dlogits[rows, label_pos] -= 1.0
    dlogits /= denom
    if params.cosine:
        dlogits = dlogits / params.temperature
    W = params.head_matrix(head)
    Wsel = W if cols is None else W[:, cols]
    return value, dlogits @ Wsel.T, G.T @ dlogits


def _within_coarse_term(params: ModelParams, G: np.ndarray, ids: np.ndarray,
                        coarse_labels: np.ndarray,
                        coarse_index: Mapping[int, Sequence[int]],
                        denom: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Instance CE restricted to each example's coarse class: only member
    columns are read, so the per-example head cost is O(d n_k), not O(d n)."""
    value = 0.0
    dG = np.zeros_like(G)
    dW = np.zeros_like(params.W_I)
    for k in sorted(set(coarse_labels.tolist())):
        members = np.asarray(coarse_index[k], dtype=np.int64)
        rows = np.nonzero(coarse_labels == k)[0]
        pos_of = {int(j): p for p, j in enumerate(members)}
        try:
            label_pos = np.asarray([pos_of[int(i)] for i in ids[rows]])
        except KeyError as exc:
            raise ValueError(
                f"example {exc} not listed in coarse class {k} membership") from exc
        WI_READS.add(len(rows) * len(members))
        v, dGk, dWk = _ce_block(params, G[rows], "instance", members, label_pos, denom)
        value += v
        dG[rows] += dGk
        dW[:, members] += dWk
    return value, dG, dW


def _accumulate(total, weight, x):
    """total + weight * x, or weight * x for the first term."""
    return weight * x if total is None else total + weight * x


def objective(params: ModelParams, batch: np.ndarray,
              instance_ids: Optional[np.ndarray], terms: Mapping[str, float],
              coarse_labels: Optional[np.ndarray] = None,
              coarse_index: Optional[Mapping[int, Sequence[int]]] = None,
              membership: Optional[Membership] = None) -> LossValue:
    """Weighted sum of mean cross-entropy terms over the batch.

    `terms` maps a term to its weight: "coarse" (`coarse_labels` on the
    coarse head), "instance" (the full n-way instance softmax), "within"
    (the instance softmax restricted to the example's coarse class, whose
    members `coarse_index` lists) and "proxy" (the example's cluster in
    `membership` over the P proxy columns). A term that is absent or
    weighted 0 is not computed. Head gradients are dense d x K arrays,
    present only for heads some term read; `components` holds each head's
    unweighted cross-entropy.
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
    B = f.shape[0]
    value = dF = mlp_grad = None
    grad_heads: dict[str, np.ndarray] = {}
    components: dict[str, float] = {}
    for term, weight in active.items():
        head = "instance" if term == "within" else term
        G, bcache = branch_forward(params, f, head)
        if term == "within":
            v, dG, dW = _within_coarse_term(params, G, ids, y, coarse_index, B)
        else:
            if term == "coarse":
                labels = y
            elif term == "instance":
                WI_READS.add(B * params.W_I.shape[1])
                labels = ids
            else:
                labels = membership.assignment[ids]
            v, dG, dW = _ce_block(params, G, head, None, labels, B)
        dF_term, dmlp = branch_backward(params, bcache, dG)
        value = _accumulate(value, weight, v)
        dF = _accumulate(dF, weight, dF_term)
        grad_heads[head] = weight * dW
        if dmlp is not None:
            prev = mlp_grad or (None, None)
            mlp_grad = (_accumulate(prev[0], weight, dmlp[0]),
                        _accumulate(prev[1], weight, dmlp[1]))
        components[head] = v
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
                                coarse_index: Mapping[int, Sequence[int]]
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
                       coarse_index: Mapping[int, Sequence[int]],
                       lambda_I: float, lambda_P: float,
                       membership: Optional[Membership] = None,
                       within_coarse: bool = True) -> LossValue:
    """coarse + lambda_I * (within-coarse or full) instance + lambda_P * proxy."""
    return objective(params, batch, instance_ids,
                     {"coarse": 1.0, "within" if within_coarse else "instance":
                      lambda_I, "proxy": lambda_P},
                     coarse_labels, coarse_index, membership)


def build_coarse_index(coarse_labels: np.ndarray) -> dict[int, np.ndarray]:
    """Map coarse class -> ascending global ids of its members."""
    y = np.asarray(coarse_labels, dtype=np.int64)
    return {int(k): np.nonzero(y == k)[0] for k in np.unique(y)}
