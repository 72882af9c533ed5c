"""MLP encoder with hand-derived backward pass, linear classification heads,
optional cosine softmax and an optional 2-layer projection on the
instance/proxy branch, plus a byte-exact checkpoint format."""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (is_wide, normalize_rows, normalize_rows_backward,
                       threaded_row_blocks)

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


def encode(params: ModelParams, batch: np.ndarray, cache: bool = True
           ) -> tuple[np.ndarray, Optional[EncodeCache]]:
    """Backbone embedding f(x) of a batch, with the activations
    `encode_backward` reads when `cache` (else None). Without the cache, a
    wide batch (`numerics.is_wide` of its rows and width) runs the layer
    stack per `threaded_row_blocks` block, its hidden activations in the
    walker's per-thread scratch; each row's bits are those of the whole
    products where the BLAS rounds a block's product as the same rows of
    the whole one (README, "The row walker"). Any other batch takes one
    product per layer."""
    h = np.asarray(batch, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.encoder[0][0].shape[0]:
        raise ValueError("batch dimension does not match the first encoder layer")
    n, dim = h.shape
    widths = [W.shape[1] for W, _ in params.encoder]
    out = np.empty((n, widths[-1]))
    if not cache and is_wide(n, dim):
        def block(blk: np.ndarray, *scratch: np.ndarray) -> None:
            rows = slice(blk[0], blk[-1] + 1)
            _forward(params, h[rows], [*scratch, out[rows]])

        threaded_row_blocks(n, block, *widths[:-1], columns=dim)
        layer_inputs, relu_masks = [], []
    else:
        layer_inputs = [h] + [np.empty((n, w)) for w in widths[:-1]]
        relu_masks = [np.empty((n, w), dtype=bool) for w in widths[:-1]]
        _forward(params, h, layer_inputs[1:] + [out], relu_masks)
    h, pre_norm = out, None
    if params.cosine:
        pre_norm = h
        h = normalize_rows(h)
    return h, EncodeCache(layer_inputs, relu_masks, pre_norm) if cache else None


def _forward(params: ModelParams, x: np.ndarray, dests: list[np.ndarray],
             masks: Optional[list[np.ndarray]] = None) -> None:
    """The encoder's layer stack on the rows x: layer li's output into
    dests[li] and, for all but the last layer, its ReLU mask into masks[li]
    (a temporary without `masks`). The product, bias and mask are applied
    in place, with the bits of h @ W + b and h * mask."""
    h = x
    for li, (W, b) in enumerate(params.encoder):
        dest = dests[li]
        np.matmul(h, W, out=dest)
        dest += b
        if li < len(dests) - 1:
            mask = np.greater(dest, 0, out=None if masks is None else masks[li])
            np.multiply(dest, mask, out=dest)
        h = dest


def embed(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """f(x) alone, for evaluating a data set held in memory (the read
    commands on a CSV file, `reproduce-synthetic`): no cache is kept, and
    overflow and NaN warn nowhere, as in `train`, because
    `recall_at_k` and `measure_constants` name the first non-finite row."""
    with np.errstate(over="ignore", invalid="ignore"):
        return encode(params, batch, cache=False)[0]


class BlockEmbedder:
    """`embed` of n rows handed over a block at a time, as a streamed read
    hands them (`data.load_dataset` with `use`): call block(rows, x,
    *scratch) on blocks of rows that cover 0..n-1, x a block's float64
    rows and scratch one array of its rows per hidden width in `widths`,
    then take `result()`. Each row gets the bits `embed` gives it where the
    blocks are the ones `encode` walks: 64-row blocks of a wide input, one
    block of a narrow one."""

    def __init__(self, params: ModelParams, n: int) -> None:
        self.params = params
        self.widths = [W.shape[1] for W, _ in params.encoder[:-1]]
        self.out = np.empty((n, params.encoder[-1][0].shape[1]))

    def block(self, rows: slice, x: np.ndarray, *scratch: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            _forward(self.params, x, [*scratch, self.out[rows]])

    def result(self) -> np.ndarray:
        if not self.params.cosine:
            return self.out
        with np.errstate(over="ignore", invalid="ignore"):
            return normalize_rows(self.out)


def encode_backward(params: ModelParams, cache: EncodeCache,
                    grad_f: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per encoder layer, the factors (x, g) of its weight gradient x.T @ g
    (its input rows and the gradient at its output) and its bias gradient."""
    g = np.asarray(grad_f, dtype=np.float64)
    if params.cosine:
        g = normalize_rows_backward(cache.pre_norm, g)
    grads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = \
        [None] * len(params.encoder)
    n_layers = len(params.encoder)
    for li in range(n_layers - 1, -1, -1):
        W, _ = params.encoder[li]
        if li < n_layers - 1:
            g = g * cache.relu_masks[li]
        grads[li] = (cache.layer_inputs[li], g, g.sum(axis=0))
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
    """Each array is written from its own buffer when it is already a
    contiguous little-endian float64 array, as every trained array is."""
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
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def load_checkpoint(path: str) -> ModelParams:
    """Read a CFCK1 file. The header is read in its three short parts, and
    each array is `readinto` straight from the file once the header's body
    size matches the file's."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(10)
        if head[:6] != CKPT_MAGIC:
            raise CheckpointFormatError(f"bad magic at offset 0: {head[:6]!r}")
        if len(head) < 10:
            raise CheckpointFormatError(f"truncated at offset {size}")
        (n_layers,) = struct.unpack_from("<I", head, 6)
        if n_layers == 0:
            raise CheckpointFormatError("zero encoder layers at offset 6")
        # the shapes, then C, n, P, d_h, the cosine flag and the temperature
        at_widths = 10 + 8 * n_layers
        if size < at_widths:
            raise CheckpointFormatError(f"truncated at offset {size}")
        shapes = list(struct.iter_unpack("<II", fh.read(8 * n_layers)))
        for li, shape in enumerate(shapes):
            if 0 in shape:
                raise CheckpointFormatError(
                    f"zero-width encoder layer {li} at offset "
                    f"{10 + 8 * li + 4 * shape.index(0)}")
        for li in range(1, n_layers):
            if shapes[li][0] != shapes[li - 1][1]:
                raise CheckpointFormatError(
                    f"encoder layer {li} takes {shapes[li][0]} inputs but "
                    f"layer {li - 1} gives {shapes[li - 1][1]} outputs "
                    f"(shape at offset {10 + 8 * li})")
        off = at_widths + 25
        if size < off:
            raise CheckpointFormatError(f"truncated at offset {size}")
        C, n, P, d_h, cosine_flag, temperature = struct.unpack(
            "<IIIIBd", fh.read(25))
        if C == 0:
            raise CheckpointFormatError(
                f"zero coarse-head columns at offset {at_widths}")
        if cosine_flag not in (0, 1):
            raise CheckpointFormatError(f"cosine flag {cosine_flag} at offset "
                                        f"{off - 9} must be 0 or 1")
        if not (np.isfinite(temperature) and temperature > 0):
            raise CheckpointFormatError(f"temperature {temperature!r} at "
                                        f"offset {off - 8} must be finite "
                                        f"and > 0")
        d = shapes[-1][1]
        # the header's body size is checked before any array of it is
        # allocated
        end = off + 8 * (sum(r * c + c for r, c in shapes)
                         + d * (C + n + P + 2 * d_h))
        if size < end:
            raise CheckpointFormatError(f"truncated at offset {size}")
        if size > end:
            raise CheckpointFormatError(
                f"{size - end} trailing bytes at offset {end}")
        params = ModelParams(
            encoder=[(np.empty(shape), np.empty(shape[1]))
                     for shape in shapes],
            W_C=np.empty((d, C)), W_I=np.empty((d, n)),
            W_P=np.empty((d, P)) if P > 0 else None,
            mlp_head=((np.empty((d, d_h)), np.empty((d_h, d))) if d_h > 0
                      else None),
            cosine=bool(cosine_flag), temperature=float(temperature))
        for name, a in param_arrays(params).items():
            got = fh.readinto(a)
            if got < a.nbytes:
                raise CheckpointFormatError(
                    f"truncated at offset {off + got}")
            if sys.byteorder == "big":
                a.byteswap(inplace=True)     # the body is little-endian
            if not np.isfinite(a).all():
                bad = int(np.argmin(np.isfinite(a)))   # first, in body order
                raise CheckpointFormatError(
                    f"{name} value {bad} is not finite "
                    f"(at offset {off + 8 * bad})")
            off += a.nbytes
    return params
