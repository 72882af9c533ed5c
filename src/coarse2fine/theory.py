"""Numerical verification of the probability lower bounds.

All constants are measured as exact minima/maxima over the data, which
makes every inequality unconditionally checkable: a violation indicates
an implementation bug, not a modelling assumption failure. The right-hand
sides involve exp() of squared norm bounds, so every comparison is done
in log space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy import logaddexp

from . import numerics
from .numerics import (InvariantError, check_finite_embeddings, column_means,
                       buffer, equal_size_groups, group_by_label, index_blocks,
                       own_proxy_softmax, softmax_core, threaded_row_blocks)

REL_TOL = 1e-9


class NonUniformClassSizeError(ValueError):
    """Fine classes have unequal sizes; the analysis assumes z*F = n."""


class DomainError(ValueError):
    """A measured constant leaves no valid bound (e.g. alpha = 1)."""


def _block_log_probs(E: np.ndarray, W: np.ndarray, own: np.ndarray,
                     L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the rows i of each slice j of the stacks E (k, rows, d) and W
    (k, d, K), with logits L = E @ W (k, rows, K; overwritten) and own
    column own[i]: log softmax(L[j, i])[own[i]] and the logsumexp of the
    other logits (-inf when there are none), each of shape (k, rows)."""
    rows = np.arange(L.shape[1])
    np.matmul(E, W, out=L)
    own_logit = L[:, rows, own]
    L[:, rows, own] = -np.inf
    _, m, total = softmax_core(L)
    with np.errstate(divide="ignore"):     # no other column: log 0
        lse_rest = m[..., 0] + np.log(total[..., 0])
    return own_logit - np.logaddexp(own_logit, lse_rest), lse_rest


def _block_minima(emb: np.ndarray, W: np.ndarray, own: np.ndarray,
                  ws: Optional[dict] = None) -> list[tuple]:
    """For each row block of _ROW_BLOCK rows of the stacks emb (k, n, d) and
    W (k, d, K), the min over its rows of every slice j of
    `_block_log_probs`' two values. One batched product per block, into
    the `numerics.buffer` "logits" of `ws`."""
    block = numerics._ROW_BLOCK
    L = buffer(ws, "logits", (len(emb), min(emb.shape[1], block), W.shape[2]))
    minima = []
    for blk in index_blocks(emb.shape[1], block):
        lp, lr = _block_log_probs(emb[:, blk], W, own[blk],
                                  L[:, :blk.stop - blk.start])
        minima.append((lp.min(), lr.min()))
    return minima


def _min_log_prob_and_rest(emb: np.ndarray, W: np.ndarray, own: np.ndarray
                           ) -> tuple[float, float]:
    """The min over the rows i of emb of `_block_log_probs`' two values
    against the columns of W, own column own[i]: scored per row by
    `numerics.threaded_row_blocks` and reduced by one `np.min` each, so a
    NaN row makes its constant NaN. Theorem 1's log alpha and log a (W_I,
    own column i), and log beta and log b (W_C, own column the coarse
    label)."""
    log_prob, log_rest = np.empty((2, emb.shape[0]))

    def score(blk: np.ndarray, L: np.ndarray) -> None:
        lp, lr = _block_log_probs(emb[None, blk], W[None], own[blk], L[None])
        log_prob[blk], log_rest[blk] = lp[0], lr[0]

    threaded_row_blocks(emb.shape[0], score, W.shape[1])
    return float(np.min(log_prob)), float(np.min(log_rest))


def uniform_z(fine_labels: np.ndarray) -> int:
    fine = np.asarray(fine_labels, dtype=np.int64)
    counts = np.bincount(fine)            # every class id in [0, max]
    if counts.size == 0:
        raise NonUniformClassSizeError("no fine labels")
    if np.any(counts != counts[0]):
        raise NonUniformClassSizeError(
            f"fine class sizes range from {counts.min()} to {counts.max()}; "
            "the bounds assume a uniform size z")
    return int(counts[0])


@dataclass
class Constants:
    mode: str                    # "theorem1" | "theorem2"
    log_alpha: float
    log_beta: float
    log_a: float
    log_b: float
    c: float
    z: int
    M: int

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    @property
    def beta(self) -> float:
        return float(np.exp(self.log_beta))


@np.errstate(over="ignore", invalid="ignore")
def measure_constants(embeddings: np.ndarray, W_C: np.ndarray,
                      W_I: np.ndarray, coarse_labels: np.ndarray,
                      fine_labels: np.ndarray, mode: str = "theorem1"
                      ) -> Constants:
    """Exact minima/maxima over the dataset of every constant in the bounds.

    alpha/a use the full instance softmax in theorem1 mode and the
    within-coarse softmax in theorem2 mode; both are computed in log space,
    over row blocks of logits: theorem 1 and beta/b by
    `threaded_row_blocks`, theorem 2 over stacks of the coarse classes of
    one size whose logits fit one _ROW_BLOCK x _ROW_BLOCK block (or one
    class), each class's rows against its own columns. Overflow and NaN
    warn nowhere: DomainError names a constant that comes out NaN."""
    if mode not in ("theorem1", "theorem2"):
        raise ValueError(f"unknown mode {mode!r}")
    emb = np.asarray(embeddings, dtype=np.float64)
    y_c = np.asarray(coarse_labels, dtype=np.int64)
    z = uniform_z(fine_labels)
    n = emb.shape[0]
    if W_I.shape[1] != n:
        raise ValueError(f"W_I has {W_I.shape[1]} instance columns, the data "
                         f"set has {n} examples")
    check_finite_embeddings(emb)

    order, starts, counts = group_by_label(y_c)
    if mode == "theorem1":
        log_alpha, log_a = _min_log_prob_and_rest(emb, W_I, np.arange(n))
    else:
        block, ws, minima = numerics._ROW_BLOCK, {}, []
        for _, runs in equal_size_groups(order, starts, counts):
            size = runs.shape[1]
            per = max(1, block * block // (min(size, block) * size))
            for stack in np.split(runs, range(per, len(runs), per)):
                # each W_I slice column-major, as a lone class's
                # W_I[:, members] is: BLAS rounds by the operands' layout
                minima += _block_minima(
                    emb[stack], W_I.T[stack].transpose(0, 2, 1),
                    np.arange(size), ws)
        # one np.min, which a NaN block makes NaN (a Python min drops it)
        log_alpha, log_a = np.min(minima, axis=0).tolist()
    log_beta, log_b = _min_log_prob_and_rest(emb, W_C, y_c)

    for name, value in (("alpha", log_alpha), ("a", log_a),
                        ("beta", log_beta), ("b", log_b)):
        if np.isnan(value):
            raise DomainError(f"log {name} is NaN: a logit is NaN or "
                              "overflows")
    if log_alpha >= 0.0 or log_beta >= 0.0:
        raise DomainError("alpha or beta is exactly 1; the 1-alpha "
                          "denominator in the bound is undefined")

    c = max(float(np.max(np.linalg.norm(emb, axis=1))),
            float(np.max(np.linalg.norm(W_I, axis=0))),
            float(np.max(np.linalg.norm(W_C, axis=0))))
    M = int(n - counts[y_c].min())
    return Constants(mode=mode, log_alpha=log_alpha, log_beta=log_beta,
                     log_a=log_a, log_b=log_b, c=c, z=z, M=M)


def _root_sum(c: float, log_alpha: float, log_beta: float, log_a: float,
              log_b: float) -> float:
    """sqrt(2c^2 - 2 log(a alpha / (1 - alpha))) plus the same in (b, beta):
    the sum that scales both log h and theorem 2's log c'. Each argument is
    clamped at tiny negatives; log(1 - p) is formed as log(-expm1(log p))."""
    total = 0.0
    for log_resid, log_prob in ((log_a, log_alpha), (log_b, log_beta)):
        arg = 2.0 * c * c - 2.0 * (log_resid + log_prob
                                   - np.log(-np.expm1(log_prob)))
        if arg < -1e-12:
            raise DomainError(f"inconsistent constants: sqrt argument {arg}")
        total += np.sqrt(max(arg, 0.0))
    return float(total)


def log_h_factor(c: float, log_alpha: float, log_beta: float, log_a: float,
                 log_b: float, z: int) -> float:
    """log of the intra-class contraction factor; 0 (h = 1) when z = 1."""
    if log_alpha >= 0.0 or log_beta >= 0.0:
        raise DomainError("alpha and beta must be below 1")
    if z == 1:
        return 0.0
    return float(-(2.0 * c * (z - 1) / z)
                 * _root_sum(c, log_alpha, log_beta, log_a, log_b))


@dataclass
class Lemma1Report:
    jensen_slack_min: float      # min over (i, s) of log-RHS - log-LHS
    lemma_slack_min: float       # min over i of log-LHS - log-RHS
    jensen_ok: bool
    lemma_ok: bool
    log_alpha: float


def verify_lemma1(embeddings: np.ndarray, W_I: np.ndarray,
                  fine_labels: np.ndarray) -> Lemma1Report:
    """Checks the Jensen averaging step and the instance-to-fine lower bound
    per example, in log space."""
    emb = np.asarray(embeddings, dtype=np.float64)
    fine = np.asarray(fine_labels, dtype=np.int64)
    z = uniform_z(fine)
    n = emb.shape[0]
    F = int(fine.max()) + 1
    proxies = column_means(W_I, fine, F)

    # fine class s's columns, in ascending index order, at s*z .. s*z+z-1
    by_class = group_by_label(fine)[0]
    own_inst, jensen = np.empty((2, n))    # f_i . w_i; row i's Jensen slack

    def check(blk: np.ndarray, L_I: np.ndarray, grouped: np.ndarray,
              proxy_logits: np.ndarray) -> None:
        np.matmul(emb[blk], W_I, out=L_I)
        np.matmul(emb[blk], proxies, out=proxy_logits)
        own_inst[blk] = L_I[np.arange(blk.size), blk]
        # Jensen: f.wbar_s <= logsumexp_{j in s}(f.w_j) - log z, for every i, s
        np.take(L_I, by_class, axis=1, out=grouped)
        _, m, total = softmax_core(grouped.reshape(blk.size, F, z))
        jensen[blk] = ((m[..., 0] + np.log(total[..., 0]) - np.log(z))
                       - proxy_logits).min(axis=1)

    threaded_row_blocks(n, check, n, n, F)
    jensen_slack = float(np.min(jensen))

    # alpha over the full instance softmax, as theorem 1 measures it
    log_alpha, _ = _min_log_prob_and_rest(emb, W_I, np.arange(n))
    own_proxy, m, total = own_proxy_softmax(emb, W_I, fine)   # f_i . wbar_s(i)
    log_lhs = own_proxy - (m + np.log(total))
    log_rhs = np.log(z) + log_alpha + own_proxy - own_inst
    lemma_slack = float(np.min(log_lhs - log_rhs))
    return Lemma1Report(jensen_slack_min=jensen_slack,
                        lemma_slack_min=lemma_slack,
                        jensen_ok=jensen_slack >= -1e-12,
                        lemma_ok=lemma_slack >= -REL_TOL,
                        log_alpha=log_alpha)


@dataclass
class BoundReport:
    """Fields in to_json's key order; theorem 2's stay None for theorem 1."""
    theorem: int
    alpha: float
    beta: float
    a: float
    b: float
    c: float
    z: int
    M: int
    h: float
    log_alpha: float
    log_a: float
    log_b: float
    log_lhs: list[float]
    log_rhs: list[float]
    all_hold: bool
    slack_min: float             # min(lhs - rhs), linear scale
    slack_log_min: float         # min(log lhs - log rhs)
    vacuous: bool                # log rhs (one value for all) not finite
    c_prime: Optional[float] = None
    c_doubleprime: Optional[float] = None
    alpha_prime: Optional[float] = None
    log_alpha_prime: Optional[float] = None

    def to_json(self) -> str:
        """The report as `json.dump(..., indent=2)` of its non-None fields
        writes it, with the linear lhs and rhs of each example as
        "per_example" before "log_lhs". Every value's text is json's own,
        from its C encoder: one call formats a whole list, whose items are
        split at the ", " that no float's text holds, and a list of one
        value (a rhs list is one value n times) has that value's text
        repeated. The value is told by its float64 bits, so that -0.0 and
        0.0 keep their own texts."""
        def texts(values: list) -> list[str]:
            if not values:
                return []
            bits = np.asarray(values, dtype=np.float64).view(np.int64)
            if (bits == bits[0]).all():
                return [json.dumps(values[0])] * len(values)
            return json.dumps(values)[1:-1].split(", ")

        def array(items: list[str]) -> str:      # a list at depth 1
            return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"

        with np.errstate(over="ignore"):
            lhs = texts(np.exp(self.log_lhs).tolist())
            rhs = texts(np.exp(self.log_rhs).tolist())
        per_example = ['{\n      "lhs": ' + l + ',\n      "rhs": ' + r + "\n    }"
                       for l, r in zip(lhs, rhs)]
        fields = []
        for key, value in vars(self).items():
            if key == "log_lhs":
                fields.append(("per_example", array(per_example)))
            if value is not None:
                fields.append((key, array(texts(value)) if isinstance(value, list)
                               else json.dumps(value)))
        return ("{\n" + ",\n".join(f"  {json.dumps(key)}: {text}"
                                     for key, text in fields) + "\n}")


def verify_theorem(embeddings: np.ndarray, W_C: np.ndarray, W_I: np.ndarray,
                   coarse_labels: np.ndarray, fine_labels: np.ndarray,
                   which: int = 1) -> BoundReport:
    """Per-example check of the fine-class probability lower bound.

    Theorem 1 uses the full-softmax constants; theorem 2 measures the
    within-coarse constants and pays the relaxation cost in alpha'."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    emb = np.asarray(embeddings, dtype=np.float64)
    mode = "theorem1" if which == 1 else "theorem2"
    k = measure_constants(emb, W_C, W_I, coarse_labels, fine_labels, mode)

    extras: dict = {}
    if which == 1:
        log_alpha_eff = k.log_alpha
    else:
        log_c_prime = 2.0 * k.c * _root_sum(k.c, k.log_alpha, k.log_beta,
                                            k.log_a, k.log_b)
        log_c_dp = log_c_prime + np.log(k.M) if k.M > 0 else -np.inf
        # alpha' = 1 / (1/alpha + (1-beta) c'' / beta)
        log1m_beta = np.log(-np.expm1(k.log_beta))
        log_inv = logaddexp(-k.log_alpha, log1m_beta - k.log_beta + log_c_dp)
        log_alpha_eff = -float(log_inv)
        if log_alpha_eff > k.log_alpha + 1e-12:
            raise InvariantError("alpha' exceeds alpha")
        with np.errstate(over="ignore"):
            extras = {
                "c_prime": float(np.exp(log_c_prime)),
                "c_doubleprime": float(np.exp(log_c_dp)),
                "alpha_prime": float(np.exp(log_alpha_eff)),
                "log_alpha_prime": log_alpha_eff,
            }

    log_h = log_h_factor(k.c, log_alpha_eff, k.log_beta, k.log_a, k.log_b,
                         k.z)

    own, m, total = own_proxy_softmax(emb, W_I, fine_labels)
    log_lhs = own - (m + np.log(total))
    log_rhs_scalar = log_alpha_eff + np.log(k.z) + log_h
    log_rhs = np.full_like(log_lhs, log_rhs_scalar)

    slack_log = log_lhs - log_rhs
    all_hold = bool(np.all(slack_log >= -REL_TOL) or not np.isfinite(log_rhs_scalar))
    with np.errstate(over="ignore"):
        lhs_lin = np.exp(log_lhs)
        rhs_lin = np.exp(log_rhs)
        a_lin, b_lin = float(np.exp(k.log_a)), float(np.exp(k.log_b))
    return BoundReport(
        theorem=which,
        alpha=k.alpha, beta=k.beta,
        a=a_lin, b=b_lin,
        c=k.c, z=k.z, M=k.M, h=float(np.exp(log_h)),
        log_lhs=log_lhs.tolist(), log_rhs=log_rhs.tolist(),
        all_hold=all_hold,
        slack_min=float(np.min(lhs_lin - rhs_lin)),
        slack_log_min=float(np.min(slack_log)),
        vacuous=not np.isfinite(log_rhs_scalar),
        log_alpha=k.log_alpha, log_a=k.log_a, log_b=k.log_b,
        **extras,
    )
