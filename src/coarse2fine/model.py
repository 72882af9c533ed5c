"""MLP encoder with hand-derived backward pass, linear classification heads,
optional cosine softmax and an optional 2-layer projection on the
instance/proxy branch, plus a byte-exact checkpoint format."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import normalize_rows, normalize_rows_backward

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

    @property
    def d(self) -> int:
        return self.encoder[-1][0].shape[1]

    def head_matrix(self, head: str) -> np.ndarray:
        if head == "coarse":
            return self.W_C
        if head == "instance":
            return self.W_I
        if head == "proxy":
            if self.W_P is None:
                raise RuntimeError("proxy head requested before it was initialized")
            return self.W_P
        raise ValueError(f"unknown head {head!r}")


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
        h = h @ W + b
        if li < n_layers - 1:
            mask = h > 0
            h = h * mask
            relu_masks.append(mask)
    pre_norm = None
    if params.cosine:
        pre_norm = h
        h = normalize_rows(h)
    return h, EncodeCache(layer_inputs, relu_masks, pre_norm)


def encode_backward(params: ModelParams, cache: EncodeCache,
                    grad_f: np.ndarray, out: Optional[list[np.ndarray]] = None
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of a scalar loss w.r.t. encoder weights and biases.

    With `out` (one float64 buffer per layer, shaped like its weight) the
    weight gradients are written there instead of into fresh arrays."""
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
        gW = x.T @ g if out is None else np.matmul(x.T, g, out=out[li])
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


# --- checkpoint format -------------------------------------------------

def save_checkpoint(params: ModelParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(params.encoder)))
        for W, _ in params.encoder:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
        C = params.W_C.shape[1]
        n = params.W_I.shape[1]
        P = 0 if params.W_P is None else params.W_P.shape[1]
        d_h = 0 if params.mlp_head is None else params.mlp_head[0].shape[1]
        fh.write(struct.pack("<IIIIBd", C, n, P, d_h,
                             1 if params.cosine else 0, params.temperature))
        for W, b in params.encoder:
            fh.write(W.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())
        fh.write(params.W_C.astype("<f8").tobytes())
        fh.write(params.W_I.astype("<f8").tobytes())
        if params.W_P is not None:
            fh.write(params.W_P.astype("<f8").tobytes())
        if params.mlp_head is not None:
            fh.write(params.mlp_head[0].astype("<f8").tobytes())
            fh.write(params.mlp_head[1].astype("<f8").tobytes())


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

    def matrix(rows: int, cols: int) -> np.ndarray:
        count = rows * cols
        return np.frombuffer(raw, dtype="<f8", count=count,
                             offset=take(8 * count)).reshape(rows, cols).copy()

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
    encoder = [(matrix(rows, cols), matrix(1, cols).reshape(cols))
               for rows, cols in shapes]
    d = shapes[-1][1]
    W_C = matrix(d, C)
    W_I = matrix(d, n)
    W_P = matrix(d, P) if P > 0 else None
    mlp = (matrix(d, d_h), matrix(d_h, d)) if d_h > 0 else None
    if off != len(raw):
        raise CheckpointFormatError(
            f"{len(raw) - off} trailing bytes at offset {off}")
    return ModelParams(encoder=encoder, W_C=W_C, W_I=W_I, W_P=W_P,
                       mlp_head=mlp, cosine=bool(cosine_flag),
                       temperature=float(temperature))
