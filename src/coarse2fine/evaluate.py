"""Retrieval (Recall@k via cosine similarity), top-k accuracy, and the
fine-class prediction probability used by the theory checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import (check_finite_embeddings, group_by_label,
                       own_proxy_softmax, threaded_row_blocks)


class NoValidQueriesError(ValueError):
    """Every label occurs once; no query has a possible match."""


@dataclass
class EvalReport:
    recall_at: dict[int, float] = field(default_factory=dict)
    topk_acc: dict[int, float] = field(default_factory=dict)
    fine_prob_min: Optional[float] = None
    fine_prob_mean: Optional[float] = None
    n_queries: int = 0

    def to_dict(self) -> dict:
        return {
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "topk_acc": {str(k): v for k, v in self.topk_acc.items()},
            "fine_prob_min": self.fine_prob_min,
            "fine_prob_mean": self.fine_prob_mean,
            "n_queries": self.n_queries,
        }


def recall_at_k(embeddings: np.ndarray, labels: np.ndarray,
                ks: list[int]) -> tuple[dict[int, float], int]:
    """Self-excluded cosine-similarity retrieval over the pool itself.

    Queries whose label is a singleton are dropped from the denominator;
    similarity ties break toward the lower example index. Returns the
    recall map and the retained query count.

    A query hits at k when its best same-label neighbour b (highest
    similarity, lowest index among ties) ranks below min(k, n - 1): its
    rank counts the other examples that beat b on similarity, or tie it
    at a lower index. Queries are scored one row block at a time, by
    `numerics.threaded_row_blocks`. b is sought among the query's own label
    members only; one argmax over the block's rows finds the queries whose
    rank is 0, and only the others take the exact count, on a copy of
    their rows in the block's second scratch array.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = emb.shape[0]
    if n < 2:
        raise ValueError("need at least two examples")
    check_finite_embeddings(emb)
    order, starts, counts = group_by_label(labels)
    valid = counts[labels] >= 2
    if not np.any(valid):
        raise NoValidQueriesError("all labels are singletons")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = emb / norms
    queries = np.nonzero(valid)[0]
    ranks = np.empty(queries.size, dtype=np.int64)
    cols = np.arange(n)

    def rank_block(blk: np.ndarray, sims: np.ndarray,
                   hard_sims: np.ndarray) -> None:
        q = queries[blk]
        rows = np.arange(q.size)
        np.matmul(unit[q], unit.T, out=sims)
        sims[rows, q] = -np.inf
        # each query's label members, padded with the query itself, whose
        # similarity is -inf: argmax picks the lowest index among ties
        size = counts[labels[q]][:, None]
        slot = np.arange(size.max())
        at = np.minimum(starts[labels[q]][:, None] + slot, n - 1)
        members = np.where(slot < size, order[at], q[:, None])
        best = members[rows, np.argmax(sims[rows[:, None], members], axis=1)]
        # rank 0 exactly when b is the first maximum of its row
        hard = np.flatnonzero(np.argmax(sims, axis=1) != best)
        rank = np.zeros(q.size, dtype=np.int64)
        if hard.size:
            h = np.take(sims, hard, axis=0, out=hard_sims[:hard.size],
                        mode="clip")          # "raise" would buffer `out`
            s_best = sims[hard, best[hard]][:, None]
            rank[hard] = (np.count_nonzero(h > s_best, axis=1)
                          + np.count_nonzero((h == s_best)
                                             & (cols < best[hard, None]),
                                             axis=1))
        ranks[blk] = rank

    threaded_row_blocks(queries.size, rank_block, n, n)
    kmax = min(max(ks), n - 1)
    return ({k: int(np.count_nonzero(ranks < min(k, kmax))) / queries.size
             for k in ks}, int(queries.size))


def topk_accuracy(logits: np.ndarray, labels: np.ndarray,
                  ks: list[int]) -> dict[int, float]:
    """Fraction of rows whose label sits among the k largest logits
    (ties break toward the lower class index)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, K = logits.shape
    if max(ks) > K:
        raise ValueError(f"k={max(ks)} exceeds the {K} classes")
    own = logits[np.arange(n), labels][:, None]
    rank = (np.count_nonzero(logits > own, axis=1)
            + np.count_nonzero((logits == own)
                               & (np.arange(K) < labels[:, None]), axis=1))
    return {k: float(np.mean(rank < k)) for k in ks}


def fine_class_prob(embeddings: np.ndarray, W_I: np.ndarray,
                    fine_labels: np.ndarray) -> np.ndarray:
    """Each example's probability of its own fine class, Pr{s_i | f(x_i), W_I},
    under the softmax over fine-class proxies (the mean of the W_I columns
    of each class). Row i of `embeddings` is example i, whose W_I column
    and fine label are column i and fine_labels[i]. Scored by
    `numerics.own_proxy_softmax`, so no n x F matrix is held."""
    own, m, total = own_proxy_softmax(
        np.asarray(embeddings, dtype=np.float64), W_I, fine_labels)
    return np.exp(own - m) / total


def evaluate_model(params, emb: np.ndarray, dataset, ks: list[int]
                   ) -> EvalReport:
    """Full EvalReport of the embeddings `emb` of the data set's examples
    under `params` (`model.embed`): retrieval on fine labels when present
    (coarse otherwise), top-k accuracy on the coarse head, fine-class
    probability stats when fine labels exist."""
    from .model import head_logits

    labels = dataset.fine_labels if dataset.fine_labels is not None \
        else dataset.coarse_labels
    recall, n_queries = recall_at_k(emb, labels, ks)
    C = params.W_C.shape[1]
    acc_ks = [k for k in (1, 5) if k <= C]
    acc_labels = dataset.fine_labels if C == dataset.F else dataset.coarse_labels
    topk = topk_accuracy(head_logits(params, emb, "coarse"), acc_labels, acc_ks) \
        if acc_ks else {}
    report = EvalReport(recall_at=recall, topk_acc=topk, n_queries=n_queries)
    if (dataset.fine_labels is not None and params.W_I.shape[1] == dataset.n
            and np.all(np.bincount(dataset.fine_labels,
                                   minlength=dataset.F) > 0)):
        own = fine_class_prob(emb, params.W_I, dataset.fine_labels)
        report.fine_prob_min = float(own.min())
        report.fine_prob_mean = float(own.mean())
    return report
