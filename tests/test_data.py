import dataclasses
import hashlib
import os
import struct
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coarse2fine import data, numerics
from coarse2fine.cli import main as cli_main
from coarse2fine.data import (MAGIC, Dataset, DatasetFormatError,
                              PlacementError, augment, gen_blob_dataset,
                              gen_patch_dataset, load_dataset,
                              load_dataset_csv, save_dataset)
from coarse2fine.evaluate import recall_at_k


class _FixedRng:
    """Deterministic stand-in for a Generator: fixed coin, fixed offsets."""

    def __init__(self, coin, offset):
        self.coin = coin
        self.offset = offset

    def random(self):
        return self.coin

    def integers(self, low, high):
        return min(self.offset, high - 1)


class TestPatchDataset:
    def test_counts(self):
        d = gen_patch_dataset(64, 32, 128, seed=0)
        assert (d.n, d.C, d.F) == (64, 32, 128)
        assert d.dim == 32 * 32 * 3
        assert d.image_shape == (32, 32)

    def test_deterministic(self):
        a = gen_patch_dataset(16, 4, 8, seed=3)
        b = gen_patch_dataset(16, 4, 8, seed=3)
        assert a.examples.tobytes() == b.examples.tobytes()
        assert np.array_equal(a.coarse_labels, b.coarse_labels)
        assert np.array_equal(a.fine_labels, b.fine_labels)

    def test_single_patch_pool(self):
        d = gen_patch_dataset(5, 1, 1, seed=0)
        assert np.all(d.coarse_labels == 0)
        assert np.all(d.fine_labels == 0)

    def test_pixel_range(self):
        d = gen_patch_dataset(8, 4, 8, seed=1)
        assert d.examples.min() >= 0.0 and d.examples.max() <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            gen_patch_dataset(4, 0, 8)
        with pytest.raises(ValueError):
            gen_patch_dataset(4, 4, 8, big_size=40)

    @pytest.mark.parametrize("args, kw, match", [
        ((0, 4, 8), {}, "at least one image"),
        ((-2, 4, 8), {}, "at least one image"),
        ((4, 4, 8), {"big_size": -3}, "patch sizes must be >= 1"),
        ((4, 4, 8), {"small_size": 0}, "patch sizes must be >= 1"),
        ((4, 4, 8), {"big_size": 32, "small_size": 32}, "without overlap"),
        ((4, 4, 8), {"img_h": 8, "img_w": 10, "big_size": 6,
                     "small_size": 5}, "without overlap"),
    ])
    def test_rejects_bad_shapes(self, args, kw, match):
        with pytest.raises(ValueError, match=match):
            gen_patch_dataset(*args, **kw)

    def test_placement_error_is_value_error(self, monkeypatch):
        # every draw 0: both patches sit at the corner, so every attempt
        # overlaps although a placement exists
        monkeypatch.setattr(data, "_below", lambda words, k: 0)
        with pytest.raises(PlacementError, match="1000 attempts"):
            gen_patch_dataset(2, 2, 4, img_h=8, img_w=8, big_size=4,
                              small_size=2)
        assert issubclass(PlacementError, ValueError)

    # the shapes cross word-block refills (n = 4096 at 32 x 128), take no
    # word for a bound of 1 (one patch pool, patches as tall as the image)
    # and place patches on odd image sides
    @pytest.mark.parametrize("args, kw", [
        ((4096, 32, 128), {"seed": 3}),
        ((7, 3, 5), {"img_h": 9, "img_w": 13, "big_size": 5,
                     "small_size": 3, "seed": 11}),
        ((20, 1, 1), {"img_h": 8, "img_w": 8, "big_size": 3,
                      "small_size": 2, "seed": 2}),
        ((30, 2, 6), {"img_h": 6, "img_w": 15, "big_size": 6,
                      "small_size": 2, "seed": 5}),
        ((25, 4, 4), {"img_h": 3, "img_w": 40, "big_size": 3,
                      "small_size": 3, "seed": 8}),
        ((9, 5, 1), {"img_h": 1, "img_w": 5, "big_size": 1,
                     "small_size": 1, "seed": 0}),
    ])
    def test_bytes_equal_to_scalar_draw_loop(self, args, kw):
        d = gen_patch_dataset(*args, **kw)
        examples, coarse, fine = patch_loop_oracle(*args, **kw)
        assert d.examples.tobytes() == examples.tobytes()
        assert d.coarse_labels.tobytes() == coarse.tobytes()
        assert d.fine_labels.tobytes() == fine.tobytes()

    def test_gen_data_file_is_pinned(self, tmp_path):
        # the bytes of this command before the draws came from word blocks
        out = tmp_path / "p.cfds"
        assert cli_main(["gen-data", "--kind", "patch", "--n", "64",
                         "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "da70ab516baaa15ea793dc1bad808def5f2c7a953ab4294cb61e6de6004ad81e")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hierarchy_consistency(self, seed):
        d = gen_patch_dataset(24, 3, 9, seed=seed)
        d.validate()  # raises if a fine class spans two coarse classes
        # the small-patch index determines the big-patch index
        assert np.array_equal(d.coarse_labels, d.fine_labels % d.C)


def patch_loop_oracle(n, n_big, n_small, img_h=32, img_w=32, big_size=12,
                      small_size=4, seed=0):
    """gen_patch_dataset as a fresh image per example and one scalar
    `integers` call per draw."""
    rng = np.random.default_rng(seed)
    big_colors = rng.uniform(0.0, 1.0, size=(n_big, 3))
    small_colors = rng.uniform(0.0, 1.0, size=(n_small, 3))

    examples = np.empty((n, img_h * img_w * 3), dtype=np.float64)
    coarse = np.empty(n, dtype=np.int64)
    fine = np.empty(n, dtype=np.int64)
    for i in range(n):
        img = np.full((img_h, img_w, 3), 0.5, dtype=np.float64)
        si = int(rng.integers(0, n_small))
        bi = si % n_big
        for attempt in range(1000):
            by = int(rng.integers(0, img_h - big_size + 1))
            bx = int(rng.integers(0, img_w - big_size + 1))
            sy = int(rng.integers(0, img_h - small_size + 1))
            sx = int(rng.integers(0, img_w - small_size + 1))
            overlap = (by < sy + small_size and sy < by + big_size and
                       bx < sx + small_size and sx < bx + big_size)
            if not overlap:
                break
        else:
            raise PlacementError("could not place patches without overlap")
        img[by:by + big_size, bx:bx + big_size, :] = big_colors[bi]
        img[sy:sy + small_size, sx:sx + small_size, :] = small_colors[si]
        examples[i] = img.ravel()
        coarse[i] = bi
        fine[i] = si
    return examples, coarse, fine


@pytest.mark.parametrize("block", [data._WORD_BLOCK, 1, 5])
def test_below_matches_integers(monkeypatch, block):
    # about 30% of words are rejected at the two largest bounds; a bound
    # of 1 takes no word; 2**32 - 1 and 2**32 are the widest 32-bit bounds
    monkeypatch.setattr(data, "_WORD_BLOCK", block)
    bounds = np.random.default_rng(0).choice(
        [1, 2, 3, 7, 128, 2**31 + 3, 3_000_000_001, 2**32 - 1, 2**32],
        size=40_000 if block > 5 else 2_000).tolist()
    ref = np.random.default_rng(9)
    ref.uniform(size=(4, 3))       # whole words first, as the generator does
    rng = np.random.default_rng(9)
    rng.uniform(size=(4, 3))
    used = 0

    def counted(words):
        nonlocal used
        for word in words:
            used += 1
            yield word

    words = counted(data._uint32_words(rng.bit_generator))
    got = [data._below(words, k) for k in bounds]
    assert got == [int(ref.integers(0, k)) for k in bounds]
    assert used > sum(k > 1 for k in bounds)      # the rejection branch ran


def blob_loop_oracle(C, fine_per_coarse, z, dim, coarse_spread=10.0,
                     fine_spread=1.0, noise=0.1, seed=0):
    """gen_blob_dataset as one noise draw and one label pair per example."""
    rng = np.random.default_rng(seed)
    n = C * fine_per_coarse * z
    examples = np.empty((n, dim))
    coarse = np.empty(n, dtype=np.int64)
    fine = np.empty(n, dtype=np.int64)
    i = 0
    for c in range(C):
        c_center = rng.normal(0.0, coarse_spread, size=dim)
        for s in range(fine_per_coarse):
            f_center = c_center + rng.normal(0.0, fine_spread, size=dim)
            for _ in range(z):
                examples[i] = f_center + (rng.normal(0.0, noise, size=dim)
                                          if noise > 0 else 0.0)
                coarse[i] = c
                fine[i] = c * fine_per_coarse + s
                i += 1
    return examples, coarse, fine


class TestBlobDataset:
    @pytest.mark.parametrize("shape, kw", [
        ((4, 5, 10, 16), {}),
        ((1, 1, 1, 1), {}),
        ((3, 2, 7, 5), {"noise": 0.0, "seed": 4}),
        ((8, 16, 16, 32), {"seed": 9}),
        ((2, 3, 4, 6), {"coarse_spread": 2.5, "fine_spread": 0.5,
                        "noise": 1.5, "seed": 123}),
    ])
    def test_bytes_equal_to_per_example_loop(self, shape, kw):
        d = gen_blob_dataset(*shape, **kw)
        examples, coarse, fine = blob_loop_oracle(*shape, **kw)
        assert d.examples.tobytes() == examples.tobytes()
        assert d.coarse_labels.dtype == coarse.dtype
        assert d.coarse_labels.tobytes() == coarse.tobytes()
        assert d.fine_labels.tobytes() == fine.tobytes()

    def test_counts(self):
        d = gen_blob_dataset(4, 5, 10, 16, seed=0)
        assert (d.n, d.C, d.F) == (200, 4, 20)
        counts = np.bincount(d.fine_labels)
        assert np.all(counts == 10)
        d.validate()

    def test_zero_noise_collapses_fine_classes(self):
        d = gen_blob_dataset(2, 2, 3, 4, noise=0.0, seed=1)
        for s in range(d.F):
            rows = d.examples[d.fine_labels == s]
            assert np.all(rows == rows[0])

    def test_separated_blobs_have_perfect_raw_retrieval(self):
        d = gen_blob_dataset(3, 4, 5, 8, coarse_spread=50.0, fine_spread=5.0,
                             noise=0.01, seed=2)
        recall, _ = recall_at_k(d.examples, d.fine_labels, [1])
        assert recall[1] == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_blob_dataset(0, 1, 1, 1)
        with pytest.raises(ValueError):
            gen_blob_dataset(1, 1, 1, 1, coarse_spread=0.0)


def per_image_augment(example, img_h, img_w, pad, rng):
    """One image at a time, through an explicit zero-padded copy (the form
    the batched augment replaced)."""
    img = np.asarray(example).reshape(img_h, img_w, 3)
    if rng.random() < 0.5:
        img = img[:, ::-1, :]
    if pad > 0:
        padded = np.zeros((img_h + 2 * pad, img_w + 2 * pad, 3), dtype=img.dtype)
        padded[pad:pad + img_h, pad:pad + img_w, :] = img
        oy = int(rng.integers(0, 2 * pad + 1))
        ox = int(rng.integers(0, 2 * pad + 1))
        img = padded[oy:oy + img_h, ox:ox + img_w, :]
    return img.reshape(-1).copy()


def augment_one(x, h, w, pad, rng):
    return augment(x[None], [0], h, w, pad, rng)[0]


class TestAugment:
    def test_no_pad_no_mirror_is_identity(self, rng):
        x = rng.random(6 * 6 * 3)
        out = augment_one(x, 6, 6, 0, _FixedRng(coin=0.9, offset=0))
        np.testing.assert_array_equal(out, x)

    def test_double_mirror_is_identity(self, rng):
        x = rng.random(6 * 6 * 3)
        once = augment_one(x, 6, 6, 0, _FixedRng(coin=0.1, offset=0))
        twice = augment_one(once, 6, 6, 0, _FixedRng(coin=0.1, offset=0))
        np.testing.assert_array_equal(twice, x)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
    def test_length_preserved(self, pad, seed):
        r = np.random.default_rng(seed)
        x = r.random((3, 8 * 8 * 3))
        assert augment(x, [2, 0], 8, 8, pad, r).shape == (2, x.shape[1])

    def test_centered_crop_recovers_image(self, rng):
        x = rng.random(6 * 6 * 3)
        out = augment_one(x, 6, 6, 2, _FixedRng(coin=0.9, offset=2))
        np.testing.assert_array_equal(out, x)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([0, 1, 3, 9]), st.integers(1, 12),
           st.integers(0, 2 ** 31 - 1), st.sampled_from(["<f8", "<f4"]),
           st.booleans(), st.booleans())
    def test_batch_equals_per_image(self, pad, B, seed, dtype, reuse,
                                    reject):
        # signed values, so a sign-flipped zero in the padding would show
        r = np.random.default_rng(seed)
        images = r.standard_normal((7, 5 * 6 * 3)).astype(dtype)
        ids = r.integers(0, 7, size=B)
        rngs = [np.random.default_rng([seed, 1]) for _ in range(2)]
        if reject:      # a pending half word 0: the first offset rejects it
            state = rngs[0].bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            for rng in rngs:
                rng.bit_generator.state = state
        oracle_rng, rng = rngs
        want = np.stack([per_image_augment(images[i], 5, 6, pad, oracle_rng)
                         for i in ids])
        # a reused output buffer holds stale values that must not survive
        out = np.full((B, images.shape[1]), np.nan, dtype) if reuse else None
        got = augment(images, ids, 5, 6, pad, rng, out)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert got.dtype == images.dtype and (out is None or got is out)
        assert got.tobytes() == want.tobytes()


    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 8]), st.integers(1, 64),
           st.integers(0, 2 ** 63 - 1), st.sampled_from([None, "drawn", 0]))
    def test_block_draws_equal_the_scalar_draws(self, pad, B, seed, pending):
        # a PCG64 generator with no half word pending, with one left by a
        # 32-bit draw, or with a pending 0: u k = 0 is a Lemire rejection
        # for k = 3 and 17 (2^32 mod k = 1), so the block must fall back
        # to the scalar loop. The values and the generator's full state
        # afterwards are the scalar loop's
        rng = np.random.default_rng(seed)
        if pending == "drawn":
            rng.integers(0, 5)
        elif pending == 0:
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
        oracle = np.random.default_rng()
        oracle.bit_generator.state = before = rng.bit_generator.state
        want = data._scalar_draws(oracle, B, pad)
        got = data._block_draws(rng, B, pad)
        if pending == 0 and pad > 0:
            assert got is None and rng.bit_generator.state == before
            got = data._scalar_draws(rng, B, pad)
        assert got == want
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_other_bit_generators_take_the_scalar_draws(self):
        rng = np.random.Generator(np.random.Philox(5))
        assert data._block_draws(rng, 4, 2) is None


class TestDatasetFile:
    def test_round_trip(self, tmp_path, rng):
        d = gen_blob_dataset(2, 3, 4, 5, seed=7)
        path = tmp_path / "d.cfds"
        save_dataset(d, str(path))
        back = load_dataset(str(path))
        np.testing.assert_array_equal(back.examples, d.examples)
        np.testing.assert_array_equal(back.coarse_labels, d.coarse_labels)
        np.testing.assert_array_equal(back.fine_labels, d.fine_labels)
        assert (back.C, back.F) == (d.C, d.F)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_loaded_examples_are_writable_c_contiguous(self, tmp_path,
                                                       dtype):
        d = gen_blob_dataset(2, 2, 3, 4, seed=0)
        d.examples = d.examples.astype(dtype)
        path = tmp_path / "d.cfds"
        save_dataset(d, str(path))
        back = load_dataset(str(path)).examples
        assert back.dtype == np.dtype(dtype)
        assert back.flags.writeable and back.flags.c_contiguous
        back[0, 0] = 1.0                  # owned memory, not a file buffer

    # a narrow example block (one block on the caller) and a wide one of
    # 134 rows of 3072 columns (64-row blocks), cut inside row 100
    @pytest.mark.parametrize("shape, cut", [
        ((2, 2, 2, 3), 40), ((2, 1, 67, 3072), 23 + 8 * 3072 * 100 + 40)],
        ids=["narrow", "wide"])
    def test_short_read_of_example_block_is_truncation(self, tmp_path,
                                                        monkeypatch, shape,
                                                        cut):
        # the file shrinks between the size check and the read: the read
        # comes back short, at the offset where the file now ends
        d = gen_blob_dataset(*shape, seed=0)
        path = tmp_path / "d.cfds"
        save_dataset(d, str(path))
        path.write_bytes(path.read_bytes()[:cut])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            real_fstat(fd)[:6] + (10 ** 9,) + real_fstat(fd)[7:]))
        with pytest.raises(DatasetFormatError,
                           match=f"truncated example block at offset {cut}$"):
            load_dataset(str(path))

    def test_short_read_in_a_helper_block_names_its_offset(self, tmp_path,
                                                           monkeypatch):
        """A wide file cut short inside block 5 of 64 rows: the helper
        thread takes it while the caller waits inside its first block, and
        the error names the first missing byte, as on one thread."""
        d = gen_blob_dataset(2, 1, 320, 640, seed=0)    # 640 x 640, 10 blocks
        path = tmp_path / "d.cfds"
        save_dataset(d, str(path))
        cut = 23 + 8 * 640 * (5 * 64 + 7) + 16
        path.write_bytes(path.read_bytes()[:cut])
        real_fstat, real_preadv = os.fstat, os.preadv
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            real_fstat(fd)[:6] + (10 ** 9,) + real_fstat(fd)[7:]))
        monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
        helper_short = threading.Event()

        def preadv(fd, buffers, offset):
            on_helper = threading.current_thread() is not threading.main_thread()
            if not on_helper:
                assert helper_short.wait(timeout=60)
            got = real_preadv(fd, buffers, offset)
            if on_helper and got < len(buffers[0]):
                helper_short.set()
            return got

        monkeypatch.setattr(os, "preadv", preadv)
        with pytest.raises(DatasetFormatError,
                           match=f"truncated example block at offset {cut}$"):
            load_dataset(str(path))
        assert helper_short.is_set()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_row_of_a_wide_block_exits_4(self, tmp_path, capsys,
                                                    monkeypatch, threads):
        # rows 100 and 130 lie in the second and third 64-row blocks; the
        # data set is read before the checkpoint, which need not exist
        monkeypatch.setattr(numerics, "_threads", lambda n, width: threads)
        d = gen_blob_dataset(2, 1, 67, 3072, seed=0)
        d.examples[[100, 130], 7] = np.nan
        path, out = tmp_path / "nan.cfds", tmp_path / "r.json"
        save_dataset(d, str(path))
        assert cli_main(["eval", "--data", str(path), "--checkpoint",
                         str(tmp_path / "m.ckpt"), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"bad dataset file: example row 100 is not finite "
            f"(at offset {23 + 100 * 3072 * 8})\n")
        assert not out.exists()

    def test_round_trip_bytes_identical(self, tmp_path):
        d = gen_patch_dataset(6, 2, 4, img_h=8, img_w=8, big_size=3,
                              small_size=1, seed=1)
        p1, p2 = tmp_path / "a.cfds", tmp_path / "b.cfds"
        save_dataset(d, str(p1))
        save_dataset(load_dataset(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_save_writes_same_bytes_for_any_layout(self, tmp_path, dtype):
        d = gen_blob_dataset(2, 3, 4, 5, seed=7)
        d.examples = d.examples.astype(dtype)
        save_dataset(d, str(tmp_path / "c.cfds"))
        wide = np.zeros((d.n, 2 * d.dim), dtype=dtype)
        wide[:, ::2] = d.examples
        for name, examples in [("f", np.asfortranarray(d.examples)),
                               ("s", wide[:, ::2]),
                               ("r", d.examples[::-1].copy()[::-1])]:
            assert not examples.flags.c_contiguous
            save_dataset(dataclasses.replace(d, examples=examples),
                         str(tmp_path / f"{name}.cfds"))
            assert ((tmp_path / f"{name}.cfds").read_bytes()
                    == (tmp_path / "c.cfds").read_bytes())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfds"
        path.write_bytes(b"NOTMAG" + b"\0" * 40)
        with pytest.raises(DatasetFormatError, match="offset 0"):
            load_dataset(str(path))

    def test_truncated_file_names_offset(self, tmp_path):
        d = gen_blob_dataset(2, 2, 2, 3, seed=0)
        path = tmp_path / "t.cfds"
        save_dataset(d, str(path))
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DatasetFormatError, match="offset"):
            load_dataset(str(path))

    def test_hand_built_file(self, tmp_path):
        # 2 examples, dim 2, C=2, F=2, f64 values, labels (0,1) / (1,0)
        raw = (MAGIC + struct.pack("<IIII", 2, 2, 2, 2) + struct.pack("<B", 1)
               + np.array([[1.0, 2.0], [3.0, 4.0]]).astype("<f8").tobytes()
               + np.array([0, 1], dtype="<u4").tobytes()
               + np.array([1, 0], dtype="<u4").tobytes())
        path = tmp_path / "hand.cfds"
        path.write_bytes(raw)
        d = load_dataset(str(path))
        np.testing.assert_array_equal(d.examples, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(d.coarse_labels, [0, 1])
        np.testing.assert_array_equal(d.fine_labels, [1, 0])

    def test_label_out_of_range_in_file(self, tmp_path):
        raw = (MAGIC + struct.pack("<IIII", 1, 1, 1, 0) + struct.pack("<B", 1)
               + np.array([0.5]).astype("<f8").tobytes()
               + np.array([3], dtype="<u4").tobytes())
        path = tmp_path / "oob.cfds"
        path.write_bytes(raw)
        with pytest.raises(DatasetFormatError, match="out of range"):
            load_dataset(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", ["<f8", "<f4"])
    def test_non_finite_example_rejected(self, tmp_path, bad, dtype):
        d = gen_blob_dataset(2, 2, 3, 4, seed=0)
        d.examples = d.examples.astype(dtype)
        d.examples[[4, 7], 2] = bad
        path = tmp_path / "nan.cfds"
        save_dataset(d, str(path))
        itemsize = np.dtype(dtype).itemsize
        with pytest.raises(DatasetFormatError,
                           match=f"example row 4 is not finite "
                                 f"\\(at offset {23 + 4 * 4 * itemsize}\\)"):
            load_dataset(str(path))


    def test_row_with_both_infinities_rejected_without_warning(self,
                                                               tmp_path):
        # the row sum inf + -inf is NaN, which NumPy warns about unless told
        d = gen_blob_dataset(2, 2, 3, 4, seed=0)
        d.examples[5, :2] = [np.inf, -np.inf]
        path = tmp_path / "infs.cfds"
        save_dataset(d, str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError,
                               match="example row 5 is not finite"):
                load_dataset(str(path))


@st.composite
def cfds_datasets(draw):
    """Small valid data sets: f4 or f8 examples (any finite value, -0.0
    and subnormals included), with or without fine labels nested as
    fine s -> coarse s mod C."""
    n, dim, C = draw(st.integers(1, 5)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    examples = draw(arrays(dtype, (n, dim), elements=st.floats(
        allow_nan=False, allow_infinity=False,
        width=8 * np.dtype(dtype).itemsize)))
    if draw(st.booleans()):
        F = C * draw(st.integers(1, 2))
        fine = np.array(draw(st.lists(st.integers(0, F - 1), min_size=n,
                                      max_size=n)))
        return Dataset(examples=examples, coarse_labels=fine % C, C=C,
                       fine_labels=fine, F=F)
    coarse = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n,
                                    max_size=n)))
    return Dataset(examples=examples, coarse_labels=coarse, C=C)


@settings(max_examples=40, deadline=None)
@given(cfds_datasets(), st.binary(min_size=1, max_size=9))
def test_cfds_round_trip_prefixes_and_trailing_bytes(d, extra):
    """A save, load and save again gives the same bytes; every strict
    prefix of the file, and the file with bytes appended, raise
    DatasetFormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.cfds")
        save_dataset(d, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        back = load_dataset(path)
        assert back.examples.dtype == d.examples.dtype
        save_dataset(back, path)
        with open(path, "rb") as fh:
            assert fh.read() == blob
        for data in [blob[:cut] for cut in range(len(blob))] + [blob + extra]:
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(DatasetFormatError):
                load_dataset(path)


def test_trailing_bytes_name_their_offset(tmp_path):
    d = gen_blob_dataset(2, 2, 2, 3, seed=0)
    path = tmp_path / "t.cfds"
    save_dataset(d, str(path))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(DatasetFormatError,
                       match=f"2 trailing bytes at offset {size}"):
        load_dataset(str(path))


class TestCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("coarse,fine,x0,x1\n0,0,1.0,2.0\n0,1,3.0,4.0\n"
                        "1,2,5.0,6.0\n")
        d = load_dataset_csv(str(path))
        assert (d.n, d.C, d.F) == (3, 2, 3)
        np.testing.assert_array_equal(d.examples[2], [5.0, 6.0])

    def test_missing_fine_column_allowed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("coarse,fine,x0\n0,,1.0\n1,,2.0\n")
        d = load_dataset_csv(str(path))
        assert d.fine_labels is None and d.F == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetFormatError):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_example_rejected(self, tmp_path, bad):
        path = tmp_path / "d.csv"
        path.write_text(f"coarse,fine,x0,x1\n0,0,1.0,2.0\n0,1,3.0,{bad}\n"
                        f"1,2,{bad},6.0\n")
        with pytest.raises(DatasetFormatError,
                           match="example row 1 is not finite"):
            load_dataset_csv(str(path))


class TestValidate:
    def test_fine_spanning_two_coarse_rejected(self):
        d = Dataset(examples=np.zeros((2, 3)),
                    coarse_labels=np.array([0, 1]), C=2,
                    fine_labels=np.array([0, 0]), F=1)
        with pytest.raises(ValueError, match="spans"):
            d.validate()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 40))
    def test_spanning_message_matches_first_conflict(self, seed, n):
        # the first conflict in example order, as the per-example loop
        # (kept here as the oracle) reports it
        r = np.random.default_rng(seed)
        F = int(r.integers(1, 6))
        owner = r.integers(0, 3, size=F)
        fine = r.integers(0, F, size=n)
        coarse = owner[fine]
        flips = r.random(n) < 0.2
        coarse[flips] = r.integers(0, 3, size=int(flips.sum()))
        want = None
        seen = {}
        for f, c in zip(fine.tolist(), coarse.tolist()):
            if f in seen and seen[f] != c:
                want = f"fine class {f} spans coarse classes {seen[f]} and {c}"
                break
            seen[f] = c
        d = Dataset(examples=np.zeros((n, 1)), coarse_labels=coarse, C=3,
                    fine_labels=fine, F=F)
        if want is None:
            d.validate()
        else:
            with pytest.raises(ValueError) as exc:
                d.validate()
            assert str(exc.value) == want

    def test_label_range_checked(self):
        d = Dataset(examples=np.zeros((2, 3)),
                    coarse_labels=np.array([0, 5]), C=2)
        with pytest.raises(ValueError):
            d.validate()
