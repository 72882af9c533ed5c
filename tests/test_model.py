import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import model, numerics
from coarse2fine.model import (CheckpointFormatError, ModelParams,
                               branch_forward, encode, encode_backward,
                               head_logits, init_params, load_checkpoint,
                               param_arrays, renormalize_heads,
                               save_checkpoint)
from coarse2fine.numerics import grad_check, index_blocks, normalize_rows
from coarse2fine.trainer import param_vector
from conftest import identity_params, make_params


class TestEncode:
    def test_identity_layer(self, rng):
        params = identity_params(3)
        X = rng.standard_normal((4, 3))
        out, _ = encode(params, X)
        np.testing.assert_array_equal(out, X)

    def test_relu_zeroes_negative_preactivations(self):
        # first layer flips sign, so positive inputs die at the ReLU
        params = identity_params(2)
        params.encoder = [(-np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))]
        out, cache = encode(params, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])
        assert not cache.relu_masks[0].any()

    def test_bitwise_equal_to_out_of_place_form(self, rng):
        # the forward pass as `h @ W + b` and `h * mask` in fresh arrays;
        # ReLU of a negative pre-activation is -0.0 in both
        params = make_params(rng, input_dim=5, hidden=(7, 6), d=4)
        X = rng.standard_normal((9, 5))
        f, cache = encode(params, X)
        h = X
        for li, (W, b) in enumerate(params.encoder):
            assert cache.layer_inputs[li].tobytes() == h.tobytes()
            h = h @ W + b
            if li < len(params.encoder) - 1:
                mask = h > 0
                h = h * mask
                assert cache.relu_masks[li].tobytes() == mask.tobytes()
        assert np.signbit(cache.layer_inputs[1]).any()
        assert f.tobytes() == h.tobytes()

    # (rows, width, hidden widths, block heights): a block holds about 2^15
    # cells of the widest of the input and hidden widths, and at least 64
    # rows. A training batch of 32 patch images is one block, 4096 or
    # 16384 blobs of 64 columns walk 512-row blocks (256 rows behind a
    # 128-wide hidden layer), and 512 patch images 64-row ones
    BLOCK_RULE = [(32, 3072, (13, 7), [32]), (4096, 64, (13, 7), [512] * 8),
                  (16384, 64, (13, 7), [512] * 32),
                  (4096, 64, (128,), [256] * 16),
                  (512, 3072, (13, 7), [64] * 8)]

    @pytest.mark.parametrize("n, dim, hidden, heights", BLOCK_RULE)
    @pytest.mark.parametrize("cosine", [False, True])
    def test_block_rule_and_block_bits(self, monkeypatch, rng, n, dim, hidden,
                                       heights, cosine):
        """Without the cache, the layer stack runs per row block, each
        block's rows bitwise the out-of-place forward of that block alone;
        with the cache, every batch takes the whole products, and the cache
        holds the whole forward's layer inputs and masks."""
        seen = []

        def spy(rows, body, *widths, columns=0):
            def recorded(blk, *scratch):
                seen.append(blk.size)
                body(blk, *scratch)
            numerics.threaded_row_blocks(rows, recorded, *widths,
                                         columns=columns)

        monkeypatch.setattr(model, "threaded_row_blocks", spy)
        params = make_params(rng, input_dim=dim, hidden=hidden, d=5,
                             cosine=cosine)
        X = rng.standard_normal((n, dim))

        def forward(blocks):
            inputs = [np.empty((n, w)) for w in (dim, *hidden)]
            masks = [np.empty((n, w), dtype=bool) for w in hidden]
            out = np.empty((n, 5))
            for s in blocks:
                h = X[s]
                for li, (W, b) in enumerate(params.encoder):
                    inputs[li][s] = h
                    h = h @ W + b
                    if li < len(hidden):
                        masks[li][s] = h > 0
                        h = h * (h > 0)
                out[s] = h
            return out, inputs, masks

        f, cache = encode(params, X)
        assert seen == []
        want, inputs, masks = forward([slice(0, n)])
        for got, expected in zip(cache.layer_inputs + cache.relu_masks,
                                 inputs + masks):
            assert got.tobytes() == expected.tobytes()
        if cosine:
            assert cache.pre_norm.tobytes() == want.tobytes()
            want = normalize_rows(want)
        assert f.tobytes() == want.tobytes()
        g, none = encode(params, X, cache=False)
        assert none is None and seen == heights
        want = forward(index_blocks(n, heights[0]))[0]
        if cosine:
            want = normalize_rows(want)
        assert g.tobytes() == want.tobytes()

    def test_dimension_mismatch(self, rng):
        params = identity_params(3)
        with pytest.raises(ValueError):
            encode(params, rng.standard_normal((2, 5)))

    def test_deterministic(self, rng):
        params = make_params(rng)
        X = rng.standard_normal((3, 4))
        a, _ = encode(params, X)
        b, _ = encode(params, X)
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.booleans(), st.integers(1, 9), st.integers(3, 8),
           st.integers(0, 2 ** 31 - 1))
    def test_weight_gradient_row_blocks_are_bitwise_the_whole_product(
            self, cosine, rows, block, seed):
        # the fused SGD update forms a weight gradient one `index_blocks`
        # slice of rows at a time: each must be bitwise those rows of x.T @ g
        r = np.random.default_rng(seed)
        params = make_params(r, input_dim=rows + 9, hidden=(rows + 2, 4),
                             d=3, cosine=cosine)
        X = r.standard_normal((6, rows + 9)).astype(np.float32)
        f, cache = encode(params, X)
        for (x, g, _), (W, _) in zip(
                encode_backward(params, cache, r.standard_normal(f.shape)),
                params.encoder):
            whole = x.T @ g
            assert whole.shape == W.shape
            out = np.empty(W.shape)
            for s in index_blocks(W.shape[0], block):
                np.matmul(x[:, s].T, g, out=out[s])
            assert out.tobytes() == whole.tobytes()

    def test_backward_matches_finite_differences(self, rng):
        params = make_params(rng, input_dim=3, hidden=(4,), d=2)
        X = rng.standard_normal((3, 3))
        probe = rng.standard_normal((3, 2))

        f, cache = encode(params, X)
        grads = encode_backward(params, cache, probe)
        for li, (W, b) in enumerate(params.encoder):
            def loss_at_W(Wv, li=li):
                saved = params.encoder[li]
                params.encoder[li] = (Wv, saved[1])
                out, _ = encode(params, X)
                params.encoder[li] = saved
                return float(np.sum(out * probe))

            assert grad_check(loss_at_W, W, grads[li][0].T @ grads[li][1]) < 1e-4

            def loss_at_b(bv, li=li):
                saved = params.encoder[li]
                params.encoder[li] = (saved[0], bv)
                out, _ = encode(params, X)
                params.encoder[li] = saved
                return float(np.sum(out * probe))

            assert grad_check(loss_at_b, b, grads[li][2]) < 1e-4

    def test_cosine_output_unit_norm(self, rng):
        params = make_params(rng, cosine=True)
        f, _ = encode(params, rng.standard_normal((5, 4)) + 0.5)
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-10)


class TestHeadLogits:
    def test_identity_columns_reproduce_embedding(self):
        params = identity_params(3, C=3)
        params.W_C = np.eye(3)
        emb = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(head_logits(params, emb, "coarse"),
                                      emb)

    def test_cosine_direct_recomputation(self, rng):
        params = make_params(rng, cosine=True, temperature=0.05)
        X = rng.standard_normal((4, 4)) + 0.3
        f, _ = encode(params, X)
        logits = head_logits(params, f, "coarse")
        expected = (f @ params.W_C) / 0.05
        np.testing.assert_allclose(logits, expected, atol=1e-12)
        assert np.all(np.abs(logits) <= 1.0 / 0.05 + 1e-9)

    def test_proxy_head_absent(self, rng):
        params = make_params(rng)
        with pytest.raises(RuntimeError):
            head_logits(params, rng.standard_normal((1, 3)), "proxy")


class TestBranches:
    def test_coarse_branch_ignores_projection(self, rng):
        params = make_params(rng, mlp_head=True)
        f = rng.standard_normal((3, 3))
        out, _ = branch_forward(params, f, "coarse")
        np.testing.assert_array_equal(out, f)
        before = head_logits(params, out, "coarse").copy()
        params.mlp_head = (params.mlp_head[0] + 1.0, params.mlp_head[1] - 1.0)
        out2, _ = branch_forward(params, f, "coarse")
        np.testing.assert_array_equal(head_logits(params, out2, "coarse"),
                                      before)

    def test_instance_branch_uses_projection(self, rng):
        params = make_params(rng, mlp_head=True)
        f = rng.standard_normal((3, 3))
        g, _ = branch_forward(params, f, "instance")
        expected = np.maximum(f @ params.mlp_head[0], 0) @ params.mlp_head[1]
        np.testing.assert_allclose(g, expected, atol=1e-12)


class TestInit:
    def test_shapes_and_determinism(self):
        a = init_params(6, [5], 4, C=3, n=7, seed=9)
        b = init_params(6, [5], 4, C=3, n=7, seed=9)
        assert a.W_C.shape == (4, 3) and a.W_I.shape == (4, 7)
        assert a.W_C.tobytes() == b.W_C.tobytes()
        assert all(np.all(bias == 0) for _, bias in a.encoder)

    def test_cosine_init_normalized(self):
        p = init_params(4, [4], 3, C=2, n=5, seed=0, cosine=True)
        np.testing.assert_allclose(np.linalg.norm(p.W_I, axis=0), 1.0,
                                   atol=1e-7)

    def test_renormalize_heads(self, rng):
        p = make_params(rng, with_proxy=3)
        renormalize_heads(p)
        for W in (p.W_C, p.W_I, p.W_P):
            np.testing.assert_allclose(np.linalg.norm(W, axis=0), 1.0,
                                       atol=1e-7)


class TestCheckpoint:
    def test_round_trip_fields(self, tmp_path, rng):
        params = make_params(rng, with_proxy=4, mlp_head=True, cosine=True,
                             temperature=0.07)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        back = load_checkpoint(str(path))
        np.testing.assert_array_equal(back.W_C, params.W_C)
        np.testing.assert_array_equal(back.W_I, params.W_I)
        np.testing.assert_array_equal(back.W_P, params.W_P)
        for (W, b), (W2, b2) in zip(params.encoder, back.encoder):
            np.testing.assert_array_equal(W, W2)
            np.testing.assert_array_equal(b, b2)
        np.testing.assert_array_equal(back.mlp_head[0], params.mlp_head[0])
        assert back.cosine is True and back.temperature == 0.07

    def test_round_trip_bytes(self, tmp_path, rng):
        params = make_params(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"GARBAGE BYTES")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path))

    def test_unchained_layer_shapes_rejected(self, tmp_path, rng):
        params = make_params(rng, input_dim=4, hidden=(3,), d=2)
        params.encoder[1] = (rng.standard_normal((5, 2)), np.zeros(2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        with pytest.raises(CheckpointFormatError,
                           match="layer 1 takes 5 inputs but layer 0 "
                                 "gives 3 outputs"):
            load_checkpoint(str(path))

    def test_body_is_the_one_parameter_layout(self, tmp_path, rng):
        params = make_params(rng, hidden=(3,), with_proxy=2, mlp_head=True)
        arrays = param_arrays(params)
        assert list(arrays) == ["W0", "b0", "W1", "b1", "coarse", "instance",
                                "proxy", "mlp0", "mlp1"]
        expected = [params.encoder[0][0], params.encoder[0][1],
                    params.encoder[1][0], params.encoder[1][1], params.W_C,
                    params.W_I, params.W_P, *params.mlp_head]
        assert all(a is b for a, b in zip(arrays.values(), expected))
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        body = param_vector(params).astype("<f8").tobytes()
        assert path.read_bytes()[-len(body):] == body

    def test_header_larger_than_file_is_truncated_not_allocated(
            self, tmp_path, rng):
        params = make_params(rng, input_dim=4, hidden=(), d=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        raw = bytearray(path.read_bytes())
        # n, after the magic, the layer count, one shape and C
        struct.pack_into("<I", raw, 6 + 4 + 8 + 4, 2 ** 32 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, np.inf])
    def test_temperature_not_finite_and_positive_rejected(self, tmp_path, rng,
                                                          temperature):
        params = make_params(rng, input_dim=4, hidden=(3,), d=2, cosine=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        raw = bytearray(path.read_bytes())
        # after the magic, the layer count, two shapes, C, n, P, d_h, cosine
        at = 6 + 4 + 2 * 8 + 4 * 4 + 1
        assert struct.unpack_from("<d", raw, at)[0] == params.temperature
        struct.pack_into("<d", raw, at, temperature)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError,
                           match=f"temperature .* at offset {at} "):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("flag", [2, 255])
    def test_cosine_flag_not_0_or_1_rejected(self, tmp_path, rng, flag):
        params = make_params(rng, input_dim=4, hidden=(3,), d=2, cosine=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        raw = bytearray(path.read_bytes())
        # after the magic, the layer count, two shapes and C, n, P, d_h
        at = 10 + 8 * 2 + 16
        assert raw[at] == 1
        raw[at] = flag
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError,
                           match=f"^cosine flag {flag} at offset {at} "):
            load_checkpoint(str(path))

    def test_load_holds_one_copy_of_the_arrays(self, tmp_path, rng):
        params = make_params(rng, input_dim=256, hidden=(128,), d=32, C=8,
                             n=4096, with_proxy=64, mlp_head=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        tracemalloc.start()
        try:
            back = load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for a in param_arrays(back).values())
        assert nbytes <= peak <= 1.15 * nbytes

    def test_optional_parts_absent(self, tmp_path, rng):
        params = make_params(rng)  # no proxy head, no projection
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        back = load_checkpoint(str(path))
        assert back.W_P is None and back.mlp_head is None


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans(),
       st.integers(0, 2), st.binary(min_size=1, max_size=16),
       st.integers(1, 255))
def test_checkpoint_prefixes_trailing_bytes_and_header_bytes(
        seed, mlp_head, cosine, proxies, extra, flip):
    """Every strict prefix of a small checkpoint, and the checkpoint with
    bytes appended, raise CheckpointFormatError; the file itself loads.
    Each header byte xor-ed with `flip` either raises CheckpointFormatError
    or loads a checkpoint that saves as the same bytes, and nothing else
    (no struct.error, other ValueError or MemoryError)."""
    params = make_params(np.random.default_rng(seed), input_dim=2,
                         hidden=(), d=2, C=1, n=2, with_proxy=proxies,
                         mlp_head=mlp_head, cosine=cosine)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(params, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        load_checkpoint(path)
        for data in [blob[:cut] for cut in range(len(blob))] + [blob + extra]:
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)
        # the magic, the layer count, one shape, C, n, P, d_h, the cosine
        # flag and the temperature
        for at in range(10 + 8 + 25):
            data = bytearray(blob)
            data[at] ^= flip
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                back = load_checkpoint(path)
            except CheckpointFormatError:
                continue
            save_checkpoint(back, path)
            with open(path, "rb") as fh:
                assert fh.read() == data
