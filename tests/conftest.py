"""Shared builders for small random models and datasets, and a check that
no test leaves a thread running."""

import threading

import numpy as np
import pytest

from coarse2fine.model import ModelParams, head_logits


def make_params(rng, input_dim=4, hidden=(3,), d=3, C=2, n=6,
                cosine=False, mlp_head=False, with_proxy=0,
                temperature=0.05, scale=0.5):
    """Random small ModelParams; `with_proxy` > 0 adds a d x P proxy head."""
    sizes = [input_dim] + list(hidden) + [d]
    encoder = [(scale * rng.standard_normal((a, b)),
                scale * rng.standard_normal(b))
               for a, b in zip(sizes[:-1], sizes[1:])]
    W_C = scale * rng.standard_normal((d, C))
    W_I = scale * rng.standard_normal((d, n))
    W_P = scale * rng.standard_normal((d, with_proxy)) if with_proxy else None
    mlp = None
    if mlp_head:
        mlp = (scale * rng.standard_normal((d, d)),
               scale * rng.standard_normal((d, d)))
    params = ModelParams(encoder=encoder, W_C=W_C, W_I=W_I, W_P=W_P,
                         mlp_head=mlp, cosine=cosine, temperature=temperature)
    if cosine:
        from coarse2fine.model import renormalize_heads
        renormalize_heads(params)
    return params


def identity_params(dim, C=2, n=4, **kw):
    """Single identity encoder layer: f(x) = x."""
    rng = np.random.default_rng(0)
    params = make_params(rng, input_dim=dim, hidden=(), d=dim, C=C, n=n, **kw)
    params.encoder = [(np.eye(dim), np.zeros(dim))]
    return params


def softmax_rows(logits):
    """Row-wise softmax of a 2-D logit matrix (the form the training
    losses used before they exponentiated in place)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise ValueError("softmax_rows expects a non-empty 2-D matrix")
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def log_softmax_rows(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def cross_entropy(logits, label):
    """-log softmax(logits)[label], computed in log space."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("cross_entropy expects a non-empty 1-D vector")
    label = int(label)
    if not 0 <= label < logits.size:
        raise ValueError(f"label {label} out of range for {logits.size} logits")
    shifted = logits - np.max(logits)
    return float(np.log(np.sum(np.exp(shifted))) - shifted[label])


def ce_block_oracle(params, G, head, labels, denom, values_only=False,
                    ws=None):
    """The cross-entropy block in its two-softmax form (log_softmax_rows for
    the value, softmax_rows for the gradient) over the whole batch at once:
    value, grad wrt G and the d x K grad wrt the head. Signature-compatible
    with losses._ce_block; always forms the gradients, in fresh arrays."""
    logits = head_logits(params, G, head)
    rows = np.arange(G.shape[0])
    value = float(-np.sum(log_softmax_rows(logits)[rows, labels])) / denom
    dlogits = softmax_rows(logits)
    dlogits[rows, labels] -= 1.0
    dlogits /= denom
    if params.cosine:
        dlogits = dlogits / params.temperature
    return value, dlogits @ params.head_matrix(head).T, G.T @ dlogits


def bound_report_dict(report):
    """The bound report as a dict for `json.dumps(..., indent=2)`: the
    non-None fields in order, with the linear lhs and rhs of each example,
    one float(np.exp(.)) each, as "per_example" before "log_lhs". The
    oracle for BoundReport.to_json."""
    out = {}
    for key, value in vars(report).items():
        if key == "log_lhs":
            with np.errstate(over="ignore"):
                out["per_example"] = [
                    {"lhs": float(np.exp(lhs)), "rhs": float(np.exp(rhs))}
                    for lhs, rhs in zip(report.log_lhs, report.log_rhs)]
        if value is not None:
            out[key] = value
    return out


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with more live threads than it started with,
    such as a row-block helper thread left unjoined on an error path."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert left == [], f"threads left running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
