"""SGD with momentum / weight decay / step-decay schedule, and the
two-phase training loop that adds the instance-proxy loss at epoch M and
refreshes the proxies by k-means after every later epoch."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .cluster import Membership, kmeans, update_proxies
from .data import Dataset, augment
from .losses import LossValue, build_coarse_index, objective
from .model import (ModelParams, branch_forward, encode_backward,
                    init_params, param_arrays, renormalize_heads)
from .numerics import DegenerateInputError, buffer, check_bytes, index_blocks

OBJECTIVES = ("ins", "cos", "coins", "coins-imp", "coinsP", "opt")


class DivergenceError(FloatingPointError):
    """Training produced a non-finite loss, gradient or epoch metric; the
    message names the epoch, and the batch when a training step hit it."""


@dataclass
class TrainConfig:
    objective: str = "coins-imp"
    epochs: int = 200
    ip_start_epoch: Optional[int] = None     # M; defaults to epochs // 2
    lambda_I: float = 1.0
    lambda_P: float = 1.0
    P: Optional[int] = None                  # defaults to max(C, n // 5)
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_epochs: list[int] = field(default_factory=lambda: [60, 120, 160])
    lr_decay_factor: float = 5.0
    batch_size: int = 256
    seed: int = 0
    cosine: bool = False
    mlp_head: bool = False
    temperature: float = 0.05
    hidden: list[int] = field(default_factory=lambda: [256])
    embed_dim: int = 128
    pad: int = 4                             # crop padding for image data
    cluster_within_coarse: bool = True
    kmeans_restarts: int = 4

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        for name in ("lambda_I", "lambda_P", "lr", "weight_decay",
                     "lr_decay_factor", "temperature"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        decays = self.lr_decay_epochs
        for ok, rule in (
                (self.embed_dim >= 1, "embed_dim must be >= 1"),
                (min(self.hidden, default=1) >= 1, "hidden widths must be >= 1"),
                (self.epochs >= 0 and self.lr > 0, "epochs must be >= 0 and lr > 0"),
                (0.0 <= self.momentum < 1.0, "momentum must be in [0, 1)"),
                (self.batch_size >= 1, "batch_size must be >= 1"),
                (self.seed >= 0, "seed must be >= 0"),
                (self.pad >= 0, "pad must be >= 0"),
                (self.kmeans_restarts >= 1, "kmeans_restarts must be >= 1"),
                (self.temperature > 0, "temperature must be > 0"),
                (self.lr_decay_factor > 0, "lr_decay_factor must be > 0"),
                (self.weight_decay >= 0, "weight_decay must be >= 0"),
                (self.m_epoch(self.epochs) >= 0, "ip_start_epoch must be >= 0"),
                (all(a < b for a, b in zip(decays, decays[1:])),
                 "lr decay epochs must be strictly increasing"),
                (min(decays, default=0) >= 0, "lr decay epochs must be >= 0")):
            if not ok:                 # the first rule broken, in this order
                raise ValueError(rule)

    def m_epoch(self, T: int) -> int:
        return T // 2 if self.ip_start_epoch is None else self.ip_start_epoch


def _run_bytes(config: TrainConfig, n: int, dim: int, C: int) -> int:
    """The bytes a run over n examples of width dim with C coarse-head
    columns holds at once at least: its float64 parameters (coinsP's proxy
    columns among them) and their velocities, plus its largest buffer, the
    n rows of the widest layer in the metrics pass or a step's batch x n
    instance logits. In Python ints, so no size overflows."""
    widths, d = [dim, *config.hidden, config.embed_dim], config.embed_dim
    P = config.P if config.P is not None else max(C, n // 5)
    heads = C + n + (min(P, n) if config.objective == "coinsP" else 0)
    size = (sum((a + 1) * b for a, b in zip(widths, widths[1:])) + d * heads
            + (2 * d * d if config.mlp_head else 0))
    logits = min(config.batch_size, n) * n if config.objective in (
        "ins", "coins") else 0
    return 8 * (2 * size + max(n * max(widths), logits))


def _check_run_size(config: TrainConfig, n: int, dim: int, C: int) -> None:
    """ValueError naming the flag whose least value frees the most, when
    `_run_bytes` exceeds half of the physical memory (`check_bytes`):
    raised before anything of that size is allocated."""
    check_bytes(lambda **sizes: _run_bytes(replace(config, **sizes), n, dim, C),
                {"embed_dim": ("--embed-dim", config.embed_dim, 1),
                 "hidden": ("--hidden", config.hidden,
                            [1] * len(config.hidden)),
                 "batch_size": ("--batch", config.batch_size, 1)},
                "the parameters, their velocities and the largest buffer")


# floats per slice of the in-place SGD update: the slice buffer stays
# below glibc's default 128 KiB mmap threshold
_SGD_SLICE = 15 * 1024


def _sgd_slice(p: np.ndarray, g: np.ndarray, v: np.ndarray, t: np.ndarray,
               lr: float, momentum: float, weight_decay: float) -> None:
    """The update of one slice, in place, with t as scratch:
    t = g + wd*p; v = momentum*v + t; p -= lr*v."""
    np.multiply(weight_decay, p, out=t)
    np.add(g, t, out=t)
    v *= momentum
    v += t
    np.multiply(lr, v, out=t)
    p -= t


def sgd_step(param: np.ndarray,
             grad: Union[np.ndarray, tuple[np.ndarray, np.ndarray]],
             state: np.ndarray, lr: float, momentum: float,
             weight_decay: float, ws: Optional[dict] = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """g' = grad + wd*param; v <- momentum*v + g'; param <- param - lr*v.

    Updates param and state in place, one slice at a time through the
    `numerics.buffer` "sgd" of workspace `ws` (fresh without one). `grad`
    is an array of param's shape, walked in flat slices, or the factors
    (x, g) of an encoder weight gradient x.T @ g (`encode_backward`): then
    each `index_blocks` slice of param's rows gets its gradient rows
    x[:, rows].T @ g in the buffer and is updated while they are in cache,
    so the whole gradient is never held. The bits are the unsliced formula's
    either way."""
    factored = isinstance(grad, tuple)
    grad_shape = ((grad[0].shape[1], grad[1].shape[1]) if factored
                  else grad.shape)
    if param.shape != grad_shape or param.shape != state.shape:
        raise ValueError("shape mismatch in sgd_step")
    if not (param.flags.c_contiguous and state.flags.c_contiguous):
        raise ValueError("sgd_step updates C-contiguous param and state only")
    if factored:
        # each slice's product is bitwise those rows of the whole one while
        # both have at least two rows (`index_blocks`) and two columns: NumPy
        # forms a one-row or one-column product as a matrix-vector product,
        # whose rounding depends on the rows it is given. So a one-column
        # weight goes in one slice
        x, gy = grad
        height, width = param.shape
        per = max(3, _SGD_SLICE // width) if width > 1 else height
        for rows in index_blocks(height, per):
            g, t = buffer(ws, "sgd", (2, rows.stop - rows.start, width))
            np.matmul(x[:, rows].T, gy, out=g)
            _sgd_slice(param[rows], g, state[rows], t, lr, momentum,
                       weight_decay)
        return param, state
    p, g, v = param.reshape(-1), grad.reshape(-1), state.reshape(-1)
    scratch = buffer(ws, "sgd", (min(p.size, _SGD_SLICE),))
    for s in index_blocks(p.size, _SGD_SLICE):
        _sgd_slice(p[s], g[s], v[s], scratch[:s.stop - s.start], lr,
                   momentum, weight_decay)
    return param, state


def lr_at(config: TrainConfig, epoch: int) -> float:
    if not 0 <= epoch < max(config.epochs, 1):
        raise ValueError(f"epoch {epoch} out of range")
    n_decays = sum(1 for e in config.lr_decay_epochs if e <= epoch)
    return config.lr / (config.lr_decay_factor ** n_decays)


def _gradients(params: ModelParams, lv: LossValue) -> dict:
    """Gradient of every array the loss touched, by `param_arrays` name; an
    encoder weight's as the factors (x, g) of x.T @ g, which `sgd_step`
    takes as they are and `gradient_vector` multiplies out."""
    grads = {}
    for li, (x, g, gb) in enumerate(encode_backward(
            params, lv.encoder_cache, lv.grad_embeddings)):
        grads[f"W{li}"], grads[f"b{li}"] = (x, g), gb
    grads.update(lv.grad_heads)
    if lv.grad_mlp_head is not None:
        grads["mlp0"], grads["mlp1"] = lv.grad_mlp_head
    return grads


def apply_gradients(params: ModelParams, lv: LossValue,
                    vel: dict[str, np.ndarray], lr: float, momentum: float,
                    weight_decay: float, ws: Optional[dict] = None) -> None:
    """One SGD step on every array the loss touched, biases undecayed (the
    proxy gradient is discarded: clustering rebuilds W_P, never SGD).
    `vel` holds each array's velocity by `param_arrays` name; the SGD
    slices, encoder weight gradient rows among them, are the buffer "sgd"
    of workspace `ws`."""
    arrays = param_arrays(params)
    for name, grad in _gradients(params, lv).items():
        if name != "proxy":
            sgd_step(arrays[name], grad, vel[name], lr, momentum,
                     0.0 if name.startswith("b") else weight_decay, ws)
    if params.cosine:
        renormalize_heads(params)


def objective_terms(config: TrainConfig, proxy_phase: bool) -> dict[str, float]:
    """The weighted loss terms each objective trains (see losses.objective).

    `opt` is `cos` with one coarse-head column per fine class; `coinsP`
    adds the proxy term once the proxy phase starts after epoch M."""
    return {
        "ins": {"instance": 1.0},
        "cos": {"coarse": 1.0},
        "opt": {"coarse": 1.0},
        "coins": {"coarse": 1.0, "instance": config.lambda_I},
        "coins-imp": {"coarse": 1.0, "within": config.lambda_I},
        "coinsP": {"coarse": 1.0, "within": config.lambda_I,
                   "proxy": config.lambda_P if proxy_phase else 0.0},
    }[config.objective]


def _epoch_metrics(params: ModelParams, config: TrainConfig, dataset: Dataset,
                   coarse_index, class_labels: np.ndarray,
                   membership: Optional[Membership], proxy_phase: bool,
                   epoch: int, lr: float) -> dict:
    """Full-batch loss values (no gradients) on clean data at the current
    parameters."""
    try:
        lv = objective(params, dataset.examples, np.arange(dataset.n),
                       objective_terms(config, proxy_phase), class_labels,
                       coarse_index, membership, values_only=True)
    except (FloatingPointError, DegenerateInputError) as exc:
        raise DivergenceError(f"{exc} in the epoch {epoch} metrics pass") from exc
    g, _ = branch_forward(params, lv.embeddings, "instance")
    gap = np.subtract(g, params.W_I.T)
    w_gap = float(np.mean(np.sum(np.square(gap, out=gap), axis=1)))
    record = {"epoch": epoch, "lr": lr,
              "loss_coarse": lv.components.get("coarse", 0.0),
              "loss_instance": lv.components.get("instance", 0.0),
              "loss_proxy": lv.components.get("proxy", 0.0),
              "loss_total": lv.value, "w_gap": w_gap}
    bad = [key for key, value in record.items() if not np.isfinite(value)]
    if bad:
        raise DivergenceError(f"non-finite {bad[0]} at epoch {epoch}")
    return record


@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, dataset: Dataset
          ) -> tuple[ModelParams, list[dict], Optional[Membership]]:
    """Run the two-phase training loop; returns final parameters, one
    metrics record per epoch, and the final cluster membership (if any).
    Overflow and NaN warn nowhere: `check_finite`, the metrics-record check
    and kmeans's W_I check turn every non-finite value into DivergenceError,
    as does `train` a DegenerateInputError in a step, metrics pass or refresh."""
    config.validate()
    dataset.validate()
    if config.objective == "opt" and dataset.fine_labels is None:
        raise ValueError("objective 'opt' needs fine labels")
    n = dataset.n
    T = config.epochs
    M = config.m_epoch(T)
    if config.objective == "coinsP" and M >= T:
        import warnings
        warnings.warn("ip_start_epoch >= epochs: the instance-proxy phase "
                      "never runs", stacklevel=3)   # past np.errstate's frame

    head_C = dataset.F if config.objective == "opt" else dataset.C
    _check_run_size(config, n, dataset.dim, head_C)
    class_labels = dataset.fine_labels if config.objective == "opt" \
        else dataset.coarse_labels
    params = init_params(dataset.dim, config.hidden, config.embed_dim,
                         head_C, n, seed=config.seed, cosine=config.cosine,
                         mlp_head=config.mlp_head,
                         temperature=config.temperature)
    vel = {name: np.zeros_like(a) for name, a in param_arrays(params).items()}
    coarse_index = build_coarse_index(dataset.coarse_labels)
    P = config.P if config.P is not None else max(dataset.C, n // 5)
    P_min = np.count_nonzero(coarse_index.counts) if config.cluster_within_coarse else 1
    if config.objective == "coinsP" and not P_min <= P <= n:
        raise ValueError(f"P={P} out of range: coinsP needs "
                         f"{P_min} <= P <= n={n}")
    membership: Optional[Membership] = None
    metrics: list[dict] = []

    def recluster(t: int) -> Membership:
        try:
            m = kmeans(params.W_I, P, seed=config.seed * 1000003 + t,
                       restarts=config.kmeans_restarts,
                       coarse_labels=dataset.coarse_labels
                       if config.cluster_within_coarse else None)
            params.W_P = update_proxies(params.W_I, m, cosine=config.cosine)
        except DegenerateInputError as exc:   # the cause, then ": detail"
            what, sep, detail = str(exc).partition(":")
            raise DivergenceError(f"{what} after epoch {t}{sep}{detail}") from exc
        return m

    if config.objective == "coinsP" and M == 0 and T > 0:
        membership = recluster(0)

    # the steps' reused buffers (numerics.buffer): `run_ws` holds those the
    # model and the batch size, `epoch_ws` the n-sized ones (README,
    # "Memory in the hot loops")
    run_ws: dict = {}
    for t in range(1, T + 1):
        lr = lr_at(config, t - 1)
        rng = np.random.default_rng([config.seed, t])
        perm = rng.permutation(n)
        proxy_phase = config.objective == "coinsP" and t > M
        terms = objective_terms(config, proxy_phase)
        epoch_ws: dict = {}
        for b, start in enumerate(range(0, n, config.batch_size), 1):
            batch_ids = perm[start:start + config.batch_size]
            if dataset.image_shape is not None:
                out = buffer(run_ws, "batch", (batch_ids.size, dataset.dim))
                X = augment(dataset.examples, batch_ids, *dataset.image_shape,
                            config.pad, rng, out)
            else:
                X = dataset.examples[batch_ids]
            try:
                lv = objective(params, X, batch_ids, terms,
                               class_labels[batch_ids], coarse_index,
                               membership, ws=epoch_ws)
            except (FloatingPointError, DegenerateInputError) as exc:
                raise DivergenceError(f"{exc} at epoch {t}, batch {b}") from exc
            apply_gradients(params, lv, vel, lr, config.momentum,
                            config.weight_decay, run_ws)
        # freed before the refresh and the metrics pass, whose n-row arrays
        # would otherwise sit beside them (the last step's gradients alias
        # the buffers)
        lv = epoch_ws = None

        if config.objective == "coinsP" and t >= M:
            membership = recluster(t)
        metrics.append(_epoch_metrics(params, config, dataset, coarse_index,
                                      class_labels, membership, proxy_phase,
                                      t, lr))
    return params, metrics, membership


# --- flat parameter vector helpers (used by the gradient checks) --------

def param_vector(params: ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in param_arrays(params).values()])


def set_param_vector(params: ModelParams, vec: np.ndarray) -> ModelParams:
    """New ModelParams with the same shapes, values taken from vec."""
    out = copy.deepcopy(params)
    arrays = list(param_arrays(out).values())
    ends = np.cumsum([a.size for a in arrays])
    if ends[-1] != vec.size:
        raise ValueError("vector length does not match parameter count")
    for a, part in zip(arrays, np.split(vec, ends[:-1])):
        a[...] = part.reshape(a.shape)
    return out


def gradient_vector(params: ModelParams, lv: LossValue) -> np.ndarray:
    """Flat end-to-end gradient matching param_vector's layout."""
    grads = {name: grad[0].T @ grad[1] if isinstance(grad, tuple) else grad
             for name, grad in _gradients(params, lv).items()}
    return np.concatenate([grads[name].ravel() if name in grads
                           else np.zeros(a.size)
                           for name, a in param_arrays(params).items()])
