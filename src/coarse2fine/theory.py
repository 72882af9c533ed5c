"""Numerical verification of the probability lower bounds.

All constants are measured as exact minima/maxima over the data, which
makes every inequality unconditionally checkable: a violation indicates
an implementation bug, not a modelling assumption failure. The right-hand
sides involve exp() of squared norm bounds, so every comparison is done
in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy import logaddexp

from .numerics import column_means

REL_TOL = 1e-9


class NonUniformClassSizeError(ValueError):
    """Fine classes have unequal sizes; the analysis assumes z*F = n."""


class DomainError(ValueError):
    """A measured constant leaves no valid bound (e.g. alpha = 1)."""


def _logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


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


def measure_constants(embeddings: np.ndarray, W_C: np.ndarray,
                      W_I: np.ndarray, coarse_labels: np.ndarray,
                      fine_labels: np.ndarray, mode: str = "theorem1"
                      ) -> Constants:
    """Exact minima/maxima over the dataset of every constant in the bounds.

    alpha/a use the full instance softmax in theorem1 mode and the
    within-coarse softmax in theorem2 mode; both are computed in log space.
    """
    if mode not in ("theorem1", "theorem2"):
        raise ValueError(f"unknown mode {mode!r}")
    emb = np.asarray(embeddings, dtype=np.float64)
    y_c = np.asarray(coarse_labels, dtype=np.int64)
    z = uniform_z(fine_labels)
    n = emb.shape[0]
    if W_I.shape[1] != n:
        raise ValueError("W_I must have one column per example")

    L_I = emb @ W_I                    # n x n instance logits
    L_C = emb @ W_C                    # n x C coarse logits

    log_alpha = np.inf
    log_a = np.inf
    for i in range(n):
        if mode == "theorem1":
            cols = np.arange(n)
        else:
            cols = np.nonzero(y_c == y_c[i])[0]
        row = L_I[i, cols]
        own_pos = int(np.nonzero(cols == i)[0][0])
        lse = _logsumexp(row)
        log_alpha = min(log_alpha, row[own_pos] - lse)
        rest = np.delete(row, own_pos)
        log_a = min(log_a, _logsumexp(rest) if rest.size else -np.inf)

    log_beta = np.inf
    log_b = np.inf
    for i in range(n):
        row = L_C[i]
        lse = _logsumexp(row)
        log_beta = min(log_beta, row[y_c[i]] - lse)
        rest = np.delete(row, y_c[i])
        log_b = min(log_b, _logsumexp(rest) if rest.size else -np.inf)

    if log_alpha >= 0.0 or log_beta >= 0.0:
        raise DomainError("alpha or beta is exactly 1; the 1-alpha "
                          "denominator in the bound is undefined")

    c = max(float(np.max(np.linalg.norm(emb, axis=1))),
            float(np.max(np.linalg.norm(W_I, axis=0))),
            float(np.max(np.linalg.norm(W_C, axis=0))))
    counts = np.bincount(y_c, minlength=int(y_c.max()) + 1)
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


def _fine_log_probs(embeddings: np.ndarray, W_I: np.ndarray,
                    fine_labels: np.ndarray) -> np.ndarray:
    """log Pr{own fine class} per example via mean-column proxies."""
    fine = np.asarray(fine_labels, dtype=np.int64)
    logits = embeddings @ column_means(W_I, fine, int(fine.max()) + 1)
    lse = np.array([_logsumexp(row) for row in logits])
    return logits[np.arange(embeddings.shape[0]), fine] - lse


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

    L_I = emb @ W_I
    proxy_logits = emb @ proxies

    # Jensen: f.wbar_s <= logsumexp_{j in s}(f.w_j) - log z, for every i, s
    jensen_slack = np.inf
    for s in range(F):
        cols = np.nonzero(fine == s)[0]
        lse = np.array([_logsumexp(L_I[i, cols]) for i in range(n)])
        slack = (lse - np.log(z)) - proxy_logits[:, s]
        jensen_slack = min(jensen_slack, float(slack.min()))

    # alpha measured over the full instance softmax
    lse_full = np.array([_logsumexp(L_I[i]) for i in range(n)])
    log_inst = np.diag(L_I) - lse_full
    log_alpha = float(log_inst.min())

    log_lhs = _fine_log_probs(emb, W_I, fine)
    rows = np.arange(n)
    log_rhs = (np.log(z) + log_alpha
               + proxy_logits[rows, fine] - L_I[rows, rows])
    lemma_slack = float(np.min(log_lhs - log_rhs))
    return Lemma1Report(jensen_slack_min=jensen_slack,
                        lemma_slack_min=lemma_slack,
                        jensen_ok=jensen_slack >= -1e-12,
                        lemma_ok=lemma_slack >= -REL_TOL,
                        log_alpha=log_alpha)


@dataclass
class BoundReport:
    theorem: int
    alpha: float
    beta: float
    a: float
    b: float
    c: float
    z: int
    M: int
    h: float
    log_lhs: list[float]
    log_rhs: list[float]
    all_hold: bool
    slack_min: float             # min(lhs - rhs), linear scale
    slack_log_min: float         # min(log lhs - log rhs)
    vacuous: bool                # rhs underflowed to 0 everywhere
    log_alpha: float = 0.0
    log_a: float = 0.0
    log_b: float = 0.0
    c_prime: Optional[float] = None
    c_doubleprime: Optional[float] = None
    alpha_prime: Optional[float] = None
    log_alpha_prime: Optional[float] = None

    def to_dict(self) -> dict:
        with np.errstate(over="ignore"):
            lhs = [float(np.exp(v)) for v in self.log_lhs]
            rhs = [float(np.exp(v)) for v in self.log_rhs]
        out = {
            "theorem": self.theorem,
            "alpha": self.alpha, "beta": self.beta,
            "a": self.a, "b": self.b, "c": self.c,
            "z": self.z, "M": self.M, "h": self.h,
            "log_alpha": self.log_alpha, "log_a": self.log_a,
            "log_b": self.log_b,
            "per_example": [{"lhs": l, "rhs": r} for l, r in zip(lhs, rhs)],
            "log_lhs": list(map(float, self.log_lhs)),
            "log_rhs": list(map(float, self.log_rhs)),
            "all_hold": self.all_hold,
            "slack_min": self.slack_min,
            "slack_log_min": self.slack_log_min,
            "vacuous": self.vacuous,
        }
        if self.theorem == 2:
            out["c_prime"] = self.c_prime
            out["c_doubleprime"] = self.c_doubleprime
            out["alpha_prime"] = self.alpha_prime
            out["log_alpha_prime"] = self.log_alpha_prime
        return out


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
            raise AssertionError("alpha' exceeds alpha")
        with np.errstate(over="ignore"):
            extras = {
                "c_prime": float(np.exp(log_c_prime)),
                "c_doubleprime": float(np.exp(log_c_dp)),
                "alpha_prime": float(np.exp(log_alpha_eff)),
                "log_alpha_prime": log_alpha_eff,
            }

    log_h = log_h_factor(k.c, log_alpha_eff, k.log_beta, k.log_a, k.log_b,
                         k.z)

    log_lhs = _fine_log_probs(emb, W_I, fine_labels)
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
