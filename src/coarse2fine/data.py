"""Synthetic datasets (patch images and hierarchical Gaussian blobs),
light augmentation, and the bit-exact CFDS1 dataset file format."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .numerics import group_by_label

MAGIC = b"CFDS1\x00"


class DatasetFormatError(ValueError):
    """Malformed dataset file; message names the byte offset."""


class PlacementError(ValueError):
    """Patches could not be placed without overlap."""


@dataclass
class Dataset:
    examples: np.ndarray            # n x dim, float32 or float64
    coarse_labels: np.ndarray       # n, int in [0, C)
    C: int
    fine_labels: Optional[np.ndarray] = None  # n, int in [0, F)
    F: int = 0
    # set by the patch generator; not serialized (the CFDS1 format is
    # image-agnostic), so pass image dims explicitly after a load
    image_shape: Optional[tuple[int, int]] = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.examples.shape[0]

    @property
    def dim(self) -> int:
        return self.examples.shape[1]

    def validate(self) -> None:
        if self.examples.ndim != 2:
            raise ValueError("examples must be 2-D")
        if self.coarse_labels.shape != (self.n,):
            raise ValueError("coarse_labels length mismatch")
        if np.any(self.coarse_labels < 0) or np.any(self.coarse_labels >= self.C):
            raise ValueError("coarse label out of range")
        if self.fine_labels is not None:
            if self.fine_labels.shape != (self.n,):
                raise ValueError("fine_labels length mismatch")
            if np.any(self.fine_labels < 0) or np.any(self.fine_labels >= self.F):
                raise ValueError("fine label out of range")
            # a fine class never spans two coarse classes: name the first
            # example whose coarse label differs from that of the first
            # example of its fine class
            order, starts, _ = group_by_label(self.fine_labels)
            owner = self.coarse_labels[order[starts[self.fine_labels]]]
            bad = np.flatnonzero(owner != self.coarse_labels)
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"fine class {self.fine_labels[i]} spans coarse classes "
                    f"{owner[i]} and {self.coarse_labels[i]}")


# 64-bit PCG64 words per refill of the patch generator's draws: the 32 KiB
# block and the 64 KiB pointer array of the list of its 32-bit halves stay
# below glibc's 128 KiB mmap threshold; a 4096-image set at the default
# sizes uses about 25 600 halves, 4 blocks
_WORD_BLOCK = 4 * 1024


def _uint32_words(bit_generator: np.random.BitGenerator) -> Iterator[int]:
    """The generator's 32-bit outputs in PCG64's `next_uint32` order: the
    low half of each 64-bit word, then its high half. Words are drawn
    _WORD_BLOCK at a time, so the generator ends up past the last word
    used; only a generator that is thrown away afterwards may be read so.
    Start it on a generator with no half word pending (one that has drawn
    only whole words, such as doubles)."""
    while True:
        yield from (bit_generator.random_raw(_WORD_BLOCK)
                    .astype("<u8", copy=False).view("<u4").tolist())


def _below(words: Iterator[int], k: int) -> int:
    """`int(Generator.integers(0, k))` for 1 <= k <= 2**32, taken from
    `words` by NumPy's rule (Lemire's bounded draw): scale one 32-bit word
    by k, reject while the low 32 bits fall below 2**32 mod k, return the
    high bits. k = 1 consumes no word, as NumPy's draw does not."""
    if k == 1:
        return 0
    floor = (1 << 32) % k
    while True:
        m = next(words) * k
        if m & 0xFFFFFFFF >= floor:
            return m >> 32


def gen_patch_dataset(n: int, n_big: int, n_small: int, img_h: int = 32,
                      img_w: int = 32, big_size: int = 12, small_size: int = 4,
                      seed: int = 0) -> Dataset:
    """Images with one big and one small solid-color patch each.

    A pool of n_big big colors and n_small small colors is drawn first;
    each image places one sampled patch of each kind at non-overlapping
    positions on a mid-gray background. The big-patch index is the coarse
    label, the small-patch index the fine label. Small patch s is nested
    under big patch s mod n_big so that the fine classes refine the coarse
    classes (the label-hierarchy invariant every consumer relies on):
    each image samples its small patch uniformly and takes the owning big
    patch.

    Per image the draws are the small patch, then per placement attempt the
    big patch's row and column and the small patch's row and column, each
    `integers(0, bound)` of the seeded generator; they are taken from
    blocks of its raw words (`_below`), which gives the same integers.
    """
    if n < 1:
        raise ValueError("need at least one image")
    if n_big < 1 or n_small < 1:
        raise ValueError("need at least one big and one small patch")
    if big_size < 1 or small_size < 1:
        raise ValueError("patch sizes must be >= 1")
    if big_size > min(img_h, img_w) or small_size > min(img_h, img_w):
        raise ValueError("patch does not fit inside the image")
    if big_size + small_size > img_h and big_size + small_size > img_w:
        raise ValueError("patches cannot be placed without overlap: "
                         "big_size + small_size exceeds both image sides")
    rng = np.random.default_rng(seed)
    big_colors = rng.uniform(0.0, 1.0, size=(n_big, 3))
    small_colors = rng.uniform(0.0, 1.0, size=(n_small, 3))

    # the generator is local and dropped after the loop, so the words
    # drawn past the last one used do not matter
    words = _uint32_words(rng.bit_generator)
    big_h, big_w = img_h - big_size + 1, img_w - big_size + 1
    small_h, small_w = img_h - small_size + 1, img_w - small_size + 1
    examples = np.full((n, img_h * img_w * 3), 0.5, dtype=np.float64)
    images = examples.reshape(n, img_h, img_w, 3)
    coarse = np.empty(n, dtype=np.int64)
    fine = np.empty(n, dtype=np.int64)
    for i in range(n):
        si = _below(words, n_small)
        bi = si % n_big
        for _ in range(1000):
            by = _below(words, big_h)
            bx = _below(words, big_w)
            sy = _below(words, small_h)
            sx = _below(words, small_w)
            overlap = (by < sy + small_size and sy < by + big_size and
                       bx < sx + small_size and sx < bx + big_size)
            if not overlap:
                break
        else:
            raise PlacementError("could not place patches without overlap "
                                 "in 1000 attempts")
        img = images[i]
        img[by:by + big_size, bx:bx + big_size] = big_colors[bi]
        img[sy:sy + small_size, sx:sx + small_size] = small_colors[si]
        coarse[i] = bi
        fine[i] = si
    return Dataset(examples=examples, coarse_labels=coarse, C=n_big,
                   fine_labels=fine, F=n_small, image_shape=(img_h, img_w))


def gen_blob_dataset(C: int, fine_per_coarse: int, z: int, dim: int,
                     coarse_spread: float = 10.0, fine_spread: float = 1.0,
                     noise: float = 0.1, seed: int = 0) -> Dataset:
    """Hierarchical Gaussian blobs with exactly z examples per fine class.

    Coarse centers ~ N(0, coarse_spread^2 I); fine centers scatter around
    their coarse center with fine_spread; examples scatter around their
    fine center with noise. Fine classes are a partition refining the
    coarse classes, so every generator invariant holds by construction.
    """
    if min(C, fine_per_coarse, z, dim) < 1:
        raise ValueError("all counts must be >= 1")
    if not (np.isfinite([coarse_spread, fine_spread]).all()
            and coarse_spread > 0 and fine_spread > 0):
        raise ValueError("spreads must be finite and positive")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError("noise must be finite and >= 0")
    rng = np.random.default_rng(seed)
    n = C * fine_per_coarse * z
    F = C * fine_per_coarse
    examples = np.empty((F, z, dim), dtype=np.float64)
    for c in range(C):
        c_center = rng.normal(0.0, coarse_spread, size=dim)
        for s in range(fine_per_coarse):
            f_center = c_center + rng.normal(0.0, fine_spread, size=dim)
            # one (z, dim) draw is the same stream as z draws of dim
            examples[c * fine_per_coarse + s] = f_center + (
                rng.normal(0.0, noise, size=(z, dim)) if noise > 0 else 0.0)
    return Dataset(examples=examples.reshape(n, dim),
                   coarse_labels=np.repeat(np.arange(C, dtype=np.int64),
                                           fine_per_coarse * z),
                   C=C, fine_labels=np.repeat(np.arange(F, dtype=np.int64), z),
                   F=F)


def augment(examples: np.ndarray, ids: np.ndarray, img_h: int, img_w: int,
            pad: int, rng: np.random.Generator,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Augmented copies of examples[ids] as one len(ids) x dim array: each
    image is mirrored horizontally with probability 1/2, then cropped at a
    random offset from the image zero-padded by `pad` on every side.

    Per image the draws are random(), then the crop row and column offsets
    (when pad > 0). The part of the crop that overlaps the image is written
    straight from examples[id] into the output, which is `out` when given
    (len(ids) x dim, of the examples' dtype or float64, into which float32
    widens exactly), so no padded image is built."""
    B = len(ids)
    if out is None:
        out = np.empty((B, examples.shape[1]), dtype=examples.dtype)
    images = examples.reshape(-1, img_h, img_w, 3)
    crops = out.reshape(B, img_h, img_w, 3)
    if pad > 0:
        out.fill(0.0)
    for b, i in enumerate(ids):
        mirror = rng.random() < 0.5
        oy = ox = pad
        if pad > 0:
            oy = int(rng.integers(0, 2 * pad + 1))
            ox = int(rng.integers(0, 2 * pad + 1))
        # crop pixel (y, x) is padded pixel (y + oy, x + ox): image row
        # y + oy - pad and (mirrored) image column x + ox - pad
        y0, y1 = max(0, pad - oy), min(img_h, img_h + pad - oy)
        x0, x1 = max(0, pad - ox), min(img_w, img_w + pad - ox)
        if y0 >= y1 or x0 >= x1:
            continue                      # the crop lies in the padding
        src = images[i, y0 + oy - pad:y1 + oy - pad]
        c0, c1 = x0 + ox - pad, x1 + ox - pad
        crops[b, y0:y1, x0:x1] = (src[:, img_w - c1:img_w - c0][:, ::-1]
                                  if mirror else src[:, c0:c1])
    return out


def _first_non_finite_row(examples: np.ndarray) -> Optional[int]:
    """Index of the first example holding a NaN or an infinity, if any.

    Only rows whose sum is not finite are inspected element by element (a
    finite row can overflow its sum), so no n x dim mask is built."""
    if examples.ndim != 2:
        return None                     # no rows: a CSV with a header only
    with np.errstate(over="ignore", invalid="ignore"):    # inf + -inf
        sums = examples.sum(axis=1)
    suspects = np.flatnonzero(~np.isfinite(sums))
    bad = suspects[~np.isfinite(examples[suspects]).all(axis=1)]
    return int(bad[0]) if bad.size else None


def save_dataset(d: Dataset, path: str) -> None:
    d.validate()
    dtype_code = 0 if d.examples.dtype == np.float32 else 1
    values = d.examples.astype("<f4" if dtype_code == 0 else "<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", d.n, d.dim, d.C, d.F))
        fh.write(struct.pack("<B", dtype_code))
        fh.write(np.ascontiguousarray(values).data)
        fh.write(d.coarse_labels.astype("<u4").tobytes())
        if d.F > 0:
            fh.write(d.fine_labels.astype("<u4").tobytes())


def load_dataset(path: str) -> Dataset:
    """Read a CFDS1 file. The example block is read straight into the
    returned array; only the header and the labels are read as bytes."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(23)
        if head[:6] != MAGIC:
            raise DatasetFormatError(f"bad magic at offset 0: {head[:6]!r}")
        off = 6
        if len(head) < off + 17:
            raise DatasetFormatError(f"truncated header at offset {len(head)}")
        n, dim, C, F = struct.unpack_from("<IIII", head, off)
        off += 16
        (dtype_code,) = struct.unpack_from("<B", head, off)
        off += 1
        if dtype_code not in (0, 1):
            raise DatasetFormatError(
                f"unknown dtype code {dtype_code} at offset {off - 1}")
        itemsize = 4 if dtype_code == 0 else 8
        need = n * dim * itemsize
        if size < off + need:
            raise DatasetFormatError(f"truncated example block at offset {size}")
        values = np.empty((n, dim), dtype="<f4" if dtype_code == 0 else "<f8")
        got = fh.readinto(values)
        if got < need:
            raise DatasetFormatError(
                f"truncated example block at offset {off + got}")
        bad = _first_non_finite_row(values)
        if bad is not None:
            raise DatasetFormatError(f"example row {bad} is not finite "
                                     f"(at offset {off + bad * dim * itemsize})")
        off += need
        # the labels and any trailing bytes; label offsets count from `base`
        base, raw = off, fh.read()
    end = base + len(raw)
    if end < off + 4 * n:
        raise DatasetFormatError(f"truncated coarse labels at offset {end}")
    coarse = np.frombuffer(raw, dtype="<u4", count=n,
                           offset=off - base).astype(np.int64)
    bad = np.nonzero(coarse >= C)[0]
    if bad.size:
        raise DatasetFormatError(
            f"coarse label out of range at offset {off + 4 * int(bad[0])}")
    off += 4 * n
    fine = None
    if F > 0:
        if end < off + 4 * n:
            raise DatasetFormatError(f"truncated fine labels at offset {end}")
        fine = np.frombuffer(raw, dtype="<u4", count=n,
                             offset=off - base).astype(np.int64)
        bad = np.nonzero(fine >= F)[0]
        if bad.size:
            raise DatasetFormatError(
                f"fine label out of range at offset {off + 4 * int(bad[0])}")
        off += 4 * n
    if off != end:
        raise DatasetFormatError(f"{end - off} trailing bytes at offset {off}")
    d = Dataset(examples=values, coarse_labels=coarse, C=C,
                fine_labels=fine, F=F)
    d.validate()
    return d


def load_dataset_csv(path: str) -> Dataset:
    """CSV with columns coarse,fine,x0..x{dim-1}; empty fine column = no fine labels."""
    import csv

    coarse: list[int] = []
    fine: list[int] = []
    rows: list[list[float]] = []
    has_fine = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0] != "coarse" or header[1] != "fine":
            raise DatasetFormatError("CSV header must start with coarse,fine,x0")
        for row in reader:
            if not row:
                continue
            coarse.append(int(row[0]))
            if row[1].strip() == "":
                has_fine = False
                fine.append(0)
            else:
                fine.append(int(row[1]))
            rows.append([float(v) for v in row[2:]])
    examples = np.asarray(rows, dtype=np.float64)
    bad = _first_non_finite_row(examples)
    if bad is not None:
        raise DatasetFormatError(f"example row {bad} is not finite")
    coarse_arr = np.asarray(coarse, dtype=np.int64)
    fine_arr = np.asarray(fine, dtype=np.int64) if has_fine else None
    d = Dataset(examples=examples, coarse_labels=coarse_arr,
                C=int(coarse_arr.max()) + 1,
                fine_labels=fine_arr,
                F=int(fine_arr.max()) + 1 if fine_arr is not None else 0)
    d.validate()
    return d
