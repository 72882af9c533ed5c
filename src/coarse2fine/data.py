"""Synthetic datasets (patch images and hierarchical Gaussian blobs),
light augmentation, and the bit-exact CFDS1 dataset file format."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .numerics import check_bytes, group_by_label, threaded_row_blocks

MAGIC = b"CFDS1\x00"


class DatasetFormatError(ValueError):
    """Malformed dataset file; message names the byte offset."""


class PlacementError(ValueError):
    """Patches could not be placed without overlap."""


@dataclass
class Dataset:
    # n x dim, float32 or float64; None where a streamed read handed the
    # examples to the encoder and kept none (`load_dataset` with `use`)
    examples: Optional[np.ndarray]
    coarse_labels: np.ndarray       # n, int in [0, C)
    C: int
    fine_labels: Optional[np.ndarray] = None  # n, int in [0, F)
    F: int = 0
    width: int = 0                  # the header's, where examples is None
    # set by the patch generator; not serialized (the CFDS1 format is
    # image-agnostic), so pass image dims explicitly after a load
    image_shape: Optional[tuple[int, int]] = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.coarse_labels.shape[0]

    @property
    def dim(self) -> int:
        return self.width if self.examples is None else self.examples.shape[1]

    def validate(self) -> None:
        if self.examples is not None and self.examples.ndim != 2:
            raise ValueError("examples must be 2-D")
        if self.coarse_labels.ndim != 1 or (
                self.examples is not None and len(self.examples) != self.n):
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
    if seed < 0:
        raise ValueError("seed must be >= 0")
    check_bytes(lambda n, img_h, img_w: 8 * n * (3 * img_h * img_w + 2),
                {"n": ("--n", n, 1), "img_h": ("--img-h", img_h, 1),
                 "img_w": ("--img-w", img_w, 1)},
                "the images and their two label arrays")
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
    if seed < 0:
        raise ValueError("seed must be >= 0")
    check_bytes(lambda C, per, z, dim: 8 * C * per * z * (dim + 2),
                {"C": ("--classes", C, 1),
                 "per": ("--fine-per-coarse", fine_per_coarse, 1),
                 "z": ("--z", z, 1), "dim": ("--dim", dim, 1)},
                "the examples and their two label arrays")
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


def _scalar_draws(rng: np.random.Generator, B: int, pad: int
                  ) -> tuple[list, list, list]:
    """The augmentation draws of B images, one image at a time: random() <
    0.5 for the mirror, then the crop row and column offsets, each
    integers(0, 2 pad + 1) (both pad when pad = 0, with no draw)."""
    mirror, oy, ox = [], [], []
    for _ in range(B):
        mirror.append(rng.random() < 0.5)
        oy.append(int(rng.integers(0, 2 * pad + 1)) if pad > 0 else pad)
        ox.append(int(rng.integers(0, 2 * pad + 1)) if pad > 0 else pad)
    return mirror, oy, ox


def _block_draws(rng: np.random.Generator, B: int, pad: int
                 ) -> Optional[tuple[list, list, list]]:
    """`_scalar_draws` from one block of raw PCG64 words, leaving the
    generator's state as the scalar draws leave it; None, with the state
    untouched, for another bit generator or a batch the block cannot
    draw.

    random() is (w >> 11) 2^-53 of one 64-bit word w, so it is below 0.5
    exactly when w < 2^63. An offset is NumPy's 32-bit Lemire draw: the
    high half of u (2 pad + 1) for the next 32-bit output u, taken, as
    `next_uint32` takes it, from the pending half word (`has_uint32`,
    `uinteger` in the state) or else the low half of a fresh word, whose
    high half is left pending. So an image takes two words with pad > 0,
    and the pending flag is the same after it as before; the last word's
    high half is left in `uinteger` either way. When some low 32 bits of a
    product fall below 2 pad + 1, the scalar draw might reject it and draw
    again: the state is restored and None returned."""
    bits = getattr(rng, "bit_generator", None)
    k = 2 * pad + 1
    if not isinstance(bits, np.random.PCG64) or k >= 1 << 32:
        return None
    if pad == 0 or B == 0:
        coins = bits.random_raw(B)
        return (coins < 1 << 63).tolist(), [pad] * B, [pad] * B
    saved = bits.state
    words = bits.random_raw(2 * B)
    halves = words[1::2].astype("<u8").view("<u4")
    last_high = int(halves[-1])
    if saved["has_uint32"]:
        halves = np.concatenate(([saved["uinteger"]], halves[:-1]))
    m = halves.astype(np.uint64) * np.uint64(k)
    if np.any(m & np.uint64(0xFFFFFFFF) < k):
        bits.state = saved
        return None
    state = bits.state
    state["uinteger"] = last_high
    bits.state = state
    offsets = (m >> np.uint64(32)).tolist()
    return (words[0::2] < 1 << 63).tolist(), offsets[0::2], offsets[1::2]


def augment(examples: np.ndarray, ids: np.ndarray, img_h: int, img_w: int,
            pad: int, rng: np.random.Generator,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Augmented copies of examples[ids] as one len(ids) x dim array: each
    image is mirrored horizontally with probability 1/2, then cropped at a
    random offset from the image zero-padded by `pad` on every side.

    Per image the draws are random(), then the crop row and column offsets
    (when pad > 0), in `_scalar_draws`' order; a PCG64 generator gives the
    same values from one block of words (`_block_draws`). The part of the
    crop that overlaps the image is written straight from examples[id] into
    the output, which is `out` when given (len(ids) x dim, of the examples'
    dtype or float64, into which float32 widens exactly), so no padded
    image is built."""
    B = len(ids)
    if out is None:
        out = np.empty((B, examples.shape[1]), dtype=examples.dtype)
    images = examples.reshape(-1, img_h, img_w, 3)
    crops = out.reshape(B, img_h, img_w, 3)
    if pad > 0:
        out.fill(0.0)
    draws = _block_draws(rng, B, pad) or _scalar_draws(rng, B, pad)
    for b, (i, mirror, oy, ox) in enumerate(zip(ids, *draws)):
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
    """Index of the first row of `examples` holding a NaN or an infinity,
    if any. Only rows whose sum is not finite are inspected element by
    element (a finite row can overflow its sum), so no mask of every value
    is built."""
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


def _read_header(fh) -> tuple[int, int, int, int, str]:
    """n, dim, C, F and the example dtype from the 23-byte header of the
    CFDS1 file fh, whose example block follows it. A bad field is named by
    its offset."""
    head = fh.read(23)
    if head[:6] != MAGIC:
        raise DatasetFormatError(f"bad magic at offset 0: {head[:6]!r}")
    if len(head) < 23:
        raise DatasetFormatError(f"truncated header at offset {len(head)}")
    n, dim, C, F, dtype_code = struct.unpack_from("<IIIIB", head, 6)
    if n == 0:
        raise DatasetFormatError("zero examples at offset 6")
    if dim == 0:
        raise DatasetFormatError("zero example width at offset 10")
    if dtype_code not in (0, 1):
        raise DatasetFormatError(f"unknown dtype code {dtype_code} at offset 22")
    return n, dim, C, F, "<f4" if dtype_code == 0 else "<f8"


def read_header(path: str) -> tuple[int, int, int]:
    """(n, dim, C) from the header of the CFDS1 file at `path`, checked as
    `load_dataset` checks it."""
    with open(path, "rb") as fh:
        return _read_header(fh)[:3]


def _read_rows(fd: int, off: int, n: int, dim: int, dtype: str,
               values: Optional[np.ndarray] = None,
               use: Optional[Callable[..., None]] = None,
               widths: Sequence[int] = ()) -> None:
    """Read the n x dim example block of `dtype` ("<f4" or "<f8") at byte
    `off` of file fd, one `threaded_row_blocks` block at a time. Each
    block's rows go into values[rows] when `values` is given; else into
    the thread's scratch, widened to float64 there, and use(rows, x,
    *scratch) runs on them, rows a slice, x their values and scratch one
    array of their rows per width in `widths`: no n x dim array is made.
    Each block checks its own rows (`_first_non_finite_row`). A block that
    comes back short raises DatasetFormatError at its first missing byte,
    the lowest such block's; else the first row holding a NaN or an
    infinity is named."""
    itemsize = np.dtype(dtype).itemsize
    row = dim * itemsize
    # scratch of the float64 rows and, for float32, of the bytes they are
    # widened from
    own = () if values is not None else \
        (dim,) if itemsize == 8 else (dim, -(-dim // 2))
    bad_rows: list[int] = []

    def read(rows: slice, *scratch: np.ndarray) -> None:
        if values is not None:
            x = raw = values[rows]
        else:
            x, raw = scratch[0], scratch[len(own) - 1]
        buf = raw.reshape(-1).view(np.uint8)[:(rows.stop - rows.start) * row]
        at = off + rows.start * row
        done = 0
        while done < buf.size:        # a read may return part of its span
            got = os.preadv(fd, [buf[done:]], at + done)
            if got == 0:
                raise DatasetFormatError(
                    f"truncated example block at offset {at + done}")
            done += got
        if x.dtype != dtype:          # float32, or float64 on a big-endian host
            np.copyto(x, buf.view(dtype).reshape(x.shape))
        bad = _first_non_finite_row(x)
        if bad is not None:
            bad_rows.append(rows.start + bad)
        elif use is not None:
            use(rows, x, *scratch[len(own):])

    threaded_row_blocks(
        n, lambda blk, *scratch: read(slice(blk[0], blk[-1] + 1), *scratch),
        *own, *widths, columns=dim)
    if bad_rows:
        bad = min(bad_rows)
        raise DatasetFormatError(f"example row {bad} is not finite "
                                 f"(at offset {off + bad * row})")


def load_dataset(path: str, use: Optional[Callable[..., None]] = None,
                 widths: Sequence[int] = ()) -> Dataset:
    """Read a CFDS1 file, checking its header, its example block and its
    labels in that order. `_read_rows` reads the example block straight
    into the returned array or, given `use`, hands it to use block by block
    (see there); the returned data set then holds no examples. Only the
    header and the labels are read as bytes."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        n, dim, C, F, dtype = _read_header(fh)
        off = 23
        need = n * dim * np.dtype(dtype).itemsize
        if size < off + need:
            raise DatasetFormatError(f"truncated example block at offset {size}")
        values = None if use is not None else np.empty((n, dim), dtype=dtype)
        _read_rows(fh.fileno(), off, n, dim, dtype, values, use, widths)
        off += need
        fh.seek(off)
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
                fine_labels=fine, F=F, width=dim)
    d.validate()
    return d


def load_dataset_csv(path: str) -> Dataset:
    """CSV with columns coarse,fine,x0..x{dim-1}; empty fine column = no fine
    labels. A file with no example row, or a row with another number of
    fields than the first, a label that is not an integer >= 0 or an x
    value that is not a number, is a DatasetFormatError; a bad row is named
    by its line."""
    import csv

    def label(field: str, what: str, line: int) -> int:
        try:
            value = int(field)
        except ValueError:
            raise DatasetFormatError(f"line {line}: {what} label {field!r} "
                                     f"is not an integer") from None
        if value < 0:
            raise DatasetFormatError(
                f"line {line}: {what} label {value} is negative")
        return value

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
            line = reader.line_num
            width = len(rows[0]) + 2 if rows else max(2, len(row))
            if len(row) != width:
                raise DatasetFormatError(
                    f"line {line} has {len(row)} fields, where "
                    + (f"the first example row has {width}" if rows
                       else "a row starts with its two labels"))
            coarse.append(label(row[0], "coarse", line))
            if row[1].strip() == "":
                has_fine = False
                fine.append(0)
            else:
                fine.append(label(row[1], "fine", line))
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise DatasetFormatError(f"line {line}: {exc}") from None
    if not rows:
        raise DatasetFormatError("no example rows")
    examples = np.asarray(rows, dtype=np.float64)
    if examples.shape[1] == 0:
        raise DatasetFormatError("zero example width: no row holds an x value")
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
