"""MLP encoder with hand-derived backward pass, linear classification heads,
optional cosine softmax and an optional 2-layer projection on the
instance/proxy branch, plus a byte-exact checkpoint format."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import buffer, normalize_rows, normalize_rows_backward

CKPT_MAGIC = b"CFCK1\x00"

HEADS = ("coarse", "instance", "proxy")


class CheckpointFormatError(ValueError):
    pass


@dataclass
class ModelParams:
    # encoder layers: (weight in x out, bias out), ReLU between layers,
    # no activation after the last
    encoder: list[tuple[np.ndarray, np.ndarray]]
    W_C: np.ndarray                      # d x C, no bias
    W_I: np.ndarray                      # d x n, column j owned by example j
    W_P: Optional[np.ndarray] = None     # d x P, absent until the proxy phase
    # projection on the instance/proxy branch only: (d x d_h, d_h x d)
    mlp_head: Optional[tuple[np.ndarray, np.ndarray]] = None
    cosine: bool = False
    temperature: float = 0.05

    def head_matrix(self, head: str) -> np.ndarray:
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        if head == "proxy" and self.W_P is None:
            raise RuntimeError("proxy head requested before it was initialized")
        return param_arrays(self)[head]


def init_params(input_dim: int, hidden: list[int], d: int, C: int, n: int,
                seed: int, cosine: bool = False, mlp_head: bool = False,
                temperature: float = 0.05) -> ModelParams:
    """He-uniform encoder weights, zero biases, +-1/sqrt(d) uniform heads."""
    rng = np.random.default_rng(seed)
    sizes = [input_dim] + list(hidden) + [d]
    encoder = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        encoder.append((W, np.zeros(fan_out)))
    head_limit = 1.0 / np.sqrt(d)
    W_C = rng.uniform(-head_limit, head_limit, size=(d, C))
    W_I = rng.uniform(-head_limit, head_limit, size=(d, n))
    mlp = None
    if mlp_head:
        limit = np.sqrt(6.0 / d)
        mlp = (rng.uniform(-limit, limit, size=(d, d)),
               rng.uniform(-limit, limit, size=(d, d)))
    params = ModelParams(encoder=encoder, W_C=W_C, W_I=W_I, mlp_head=mlp,
                         cosine=cosine, temperature=temperature)
    if cosine:
        renormalize_heads(params)
    return params


def renormalize_heads(params: ModelParams) -> None:
    """Unit-normalize head columns in place (cosine softmax invariant)."""
    for W in (params.W_C, params.W_I, params.W_P):
        if W is not None:
            W /= np.linalg.norm(W, axis=0, keepdims=True)


@dataclass
class EncodeCache:
    layer_inputs: list[np.ndarray]       # input to each layer
    relu_masks: list[np.ndarray]         # masks for all but the last layer
    pre_norm: Optional[np.ndarray]       # last-layer output before unit norm


def encode(params: ModelParams, batch: np.ndarray) -> tuple[np.ndarray, EncodeCache]:
    """Backbone embedding f(x) for a batch; caches activations for backward."""
    h = np.asarray(batch, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.encoder[0][0].shape[0]:
        raise ValueError("batch dimension does not match the first encoder layer")
    layer_inputs = []
    relu_masks = []
    n_layers = len(params.encoder)
    for li, (W, b) in enumerate(params.encoder):
        layer_inputs.append(h)
        h = h @ W
        h += b                  # in place: the bits of h @ W + b and h * mask
        if li < n_layers - 1:
            mask = h > 0
            np.multiply(h, mask, out=h)
            relu_masks.append(mask)
    pre_norm = None
    if params.cosine:
        pre_norm = h
        h = normalize_rows(h)
    return h, EncodeCache(layer_inputs, relu_masks, pre_norm)


def embed(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """f(x) alone, for the read commands (`eval`, `verify-bounds`): no cache
    is kept, and overflow and NaN warn nowhere, as in `train`, because
    `recall_at_k` and `measure_constants` name the first non-finite row."""
    with np.errstate(over="ignore", invalid="ignore"):
        return encode(params, batch)[0]


def encode_backward(params: ModelParams, cache: EncodeCache,
                    grad_f: np.ndarray, ws: Optional[dict] = None
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of a scalar loss w.r.t. encoder weights and biases.

    Layer li's weight gradient is the `numerics.buffer` "grad_W{li}" of
    workspace `ws`: fresh without one."""
    g = np.asarray(grad_f, dtype=np.float64)
    if params.cosine:
        g = normalize_rows_backward(cache.pre_norm, g)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.encoder)
    n_layers = len(params.encoder)
    for li in range(n_layers - 1, -1, -1):
        W, _ = params.encoder[li]
        if li < n_layers - 1:
            g = g * cache.relu_masks[li]
        x = cache.layer_inputs[li]
        gW = np.matmul(x.T, g, out=buffer(ws, f"grad_W{li}", W.shape))
        grads[li] = (gW, g.sum(axis=0))
        if li > 0:
            g = g @ W.T
    return grads


@dataclass
class BranchCache:
    branch: str
    f: np.ndarray
    hidden: Optional[np.ndarray] = None      # relu(f A) when the projection runs
    pre_norm: Optional[np.ndarray] = None    # projection output before unit norm


def branch_forward(params: ModelParams, f: np.ndarray,
                   branch: str) -> tuple[np.ndarray, BranchCache]:
    """Branch embedding fed to a head.

    The coarse head always reads the backbone embedding; the instance and
    proxy branches go through the optional projection (re-normalized when
    cosine softmax is on).
    """
    if branch not in HEADS:
        raise ValueError(f"unknown branch {branch!r}")
    if branch == "coarse" or params.mlp_head is None:
        return f, BranchCache(branch=branch, f=f)
    A, B = params.mlp_head
    hidden = np.maximum(f @ A, 0.0)
    g = hidden @ B
    cache = BranchCache(branch=branch, f=f, hidden=hidden)
    if params.cosine:
        cache.pre_norm = g
        g = normalize_rows(g)
    return g, cache


def branch_backward(params: ModelParams, cache: BranchCache, grad_g: np.ndarray
                    ) -> tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
    """Returns (grad wrt backbone embedding, grad wrt projection weights or None)."""
    if cache.branch == "coarse" or params.mlp_head is None:
        return grad_g, None
    A, B = params.mlp_head
    g = grad_g
    if params.cosine:
        g = normalize_rows_backward(cache.pre_norm, g)
    dB = cache.hidden.T @ g
    dh = (g @ B.T) * (cache.hidden > 0)
    dA = cache.f.T @ dh
    return dh @ A.T, (dA, dB)


def head_logits(params: ModelParams, embeddings: np.ndarray,
                head: str) -> np.ndarray:
    """Branch embeddings times every head column (temperature-scaled when
    cosine softmax is on). `embeddings` is the branch output."""
    logits = embeddings @ params.head_matrix(head)
    if params.cosine:
        logits = logits / params.temperature
    return logits


def param_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Every array of `params` by name, in checkpoint body order: W0, b0,
    ... per encoder layer, the HEADS (proxy once W_P exists), then mlp0,
    mlp1 when the projection is on. The one place that order is written;
    built from the current attributes, so rebinding an array is safe."""
    arrays = {}
    for li, (W, b) in enumerate(params.encoder):
        arrays[f"W{li}"], arrays[f"b{li}"] = W, b
    arrays["coarse"], arrays["instance"] = params.W_C, params.W_I
    if params.W_P is not None:
        arrays["proxy"] = params.W_P
    if params.mlp_head is not None:
        arrays["mlp0"], arrays["mlp1"] = params.mlp_head
    return arrays


# --- checkpoint format -------------------------------------------------

def save_checkpoint(params: ModelParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(params.encoder)))
        for W, _ in params.encoder:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
        arrays = param_arrays(params)
        widths = [arrays[k].shape[1] if k in arrays else 0
                  for k in ("coarse", "instance", "proxy", "mlp0")]
        fh.write(struct.pack("<IIIIBd", *widths,
                             1 if params.cosine else 0, params.temperature))
        for a in arrays.values():
            fh.write(a.astype("<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != CKPT_MAGIC:
        raise CheckpointFormatError(f"bad magic at offset 0: {raw[:6]!r}")
    off = len(CKPT_MAGIC)

    def take(size: int) -> int:
        """Claim the next `size` bytes and return their offset."""
        nonlocal off
        if len(raw) < off + size:
            raise CheckpointFormatError(f"truncated at offset {len(raw)}")
        off += size
        return off - size

    def unpack(fmt: str) -> tuple:
        return struct.unpack_from(fmt, raw, take(struct.calcsize(fmt)))

    (n_layers,) = unpack("<I")
    if n_layers == 0:
        raise CheckpointFormatError("zero encoder layers at offset 6")
    shapes = [unpack("<II") for _ in range(n_layers)]
    for li in range(1, n_layers):
        if shapes[li][0] != shapes[li - 1][1]:
            raise CheckpointFormatError(
                f"encoder layer {li} takes {shapes[li][0]} inputs but layer "
                f"{li - 1} gives {shapes[li - 1][1]} outputs "
                f"(shape at offset {10 + 8 * li})")
    C, n, P, d_h, cosine_flag, temperature = unpack("<IIIIBd")
    if not (np.isfinite(temperature) and temperature > 0):
        raise CheckpointFormatError(f"temperature {temperature!r} at offset "
                                    f"{off - 8} must be finite and > 0")
    d = shapes[-1][1]
    # the header's body size is checked before any array of it is allocated
    end = off + 8 * (sum(r * c + c for r, c in shapes)
                     + d * (C + n + P + 2 * d_h))
    if len(raw) < end:
        raise CheckpointFormatError(f"truncated at offset {len(raw)}")
    if len(raw) > end:
        raise CheckpointFormatError(
            f"{len(raw) - end} trailing bytes at offset {end}")
    params = ModelParams(
        encoder=[(np.empty(shape), np.empty(shape[1])) for shape in shapes],
        W_C=np.empty((d, C)), W_I=np.empty((d, n)),
        W_P=np.empty((d, P)) if P > 0 else None,
        mlp_head=(np.empty((d, d_h)), np.empty((d_h, d))) if d_h > 0 else None,
        cosine=bool(cosine_flag), temperature=float(temperature))
    for name, a in param_arrays(params).items():
        start = take(8 * a.size)
        a[...] = np.frombuffer(raw, dtype="<f8", count=a.size,
                               offset=start).reshape(a.shape)
        if not np.isfinite(a).all():
            bad = int(np.argmin(np.isfinite(a)))      # first, in body order
            raise CheckpointFormatError(f"{name} value {bad} is not finite "
                                        f"(at offset {start + 8 * bad})")
    return params
