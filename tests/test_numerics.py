import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import numerics
from coarse2fine.numerics import (DegenerateInputError, column_means,
                                  grad_check, normalize_rows,
                                  normalize_rows_backward, own_proxy_softmax,
                                  row_blocks, softmax_core)
from conftest import cross_entropy, log_softmax_rows, softmax_rows


def softmax(logits):
    """softmax_rows of a single row."""
    return softmax_rows(np.atleast_2d(np.asarray(logits, dtype=np.float64)))[0]


def ce_gradient(logits, label):
    """Cross-entropy gradient w.r.t. the logits in the form the losses use:
    softmax_rows minus the one-hot label."""
    g = softmax(logits)
    g[label] -= 1.0
    return g


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_log_ratios(self):
        out = softmax([math.log(1), math.log(2), math.log(1)])
        np.testing.assert_allclose(out, [0.25, 0.5, 0.25], atol=1e-15)

    def test_large_logits_no_overflow(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0]), [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_rows(np.zeros((1, 0)))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=512))
    def test_sums_to_one(self, logits):
        p = softmax(np.array(logits))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0) and np.all(p <= 1)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=64),
           st.floats(-100, 100))
    def test_shift_invariance(self, logits, c):
        v = np.array(logits)
        np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    def test_rows_matches_vector(self, rng):
        L = rng.standard_normal((5, 7))
        rows = softmax_rows(L)
        for i in range(5):
            direct = np.exp(L[i]) / np.sum(np.exp(L[i]))
            np.testing.assert_allclose(rows[i], direct, atol=1e-15)


class TestSoftmaxCore:
    @pytest.mark.parametrize("shape", [(5, 7), (3, 4, 6)])
    def test_bitwise_the_two_pass_forms(self, rng, shape):
        # -inf cells as the padded members of a within-coarse chunk; every
        # slice keeps one finite cell, its label
        L = rng.standard_normal(shape)
        labels = rng.integers(0, shape[-1], shape[:-1])
        L[rng.random(shape) < 0.4] = -np.inf
        at = (*np.indices(shape[:-1]).reshape(len(shape) - 1, -1), labels.ravel())
        L[at] = rng.standard_normal(labels.size)
        x = L.copy()
        own, m, total = softmax_core(x, at)
        rows = L.reshape(-1, shape[-1])
        flat_at = (np.arange(rows.shape[0]), labels.ravel())
        assert (own - np.log(total[at[:-1]][:, 0])).tobytes() == \
            log_softmax_rows(rows)[flat_at].tobytes()
        assert (x / total).tobytes() == \
            softmax_rows(rows).reshape(shape).tobytes()
        assert m.tobytes() == L.max(axis=-1, keepdims=True).tobytes()

    def test_all_minus_inf_slice_gives_minus_inf_without_warning(self, rng):
        x = rng.standard_normal((3, 4))
        x[1] = -np.inf
        want = np.log(np.sum(np.exp(x[[0, 2]]), axis=1))
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="raise", under="ignore", invalid="raise"):
            warnings.simplefilter("always")
            own, m, total = softmax_core(x)
            with np.errstate(divide="ignore"):
                lse = (m + np.log(total))[:, 0]
        assert caught == [] and own is None
        assert m[1, 0] == 0.0 and total[1, 0] == 0.0
        assert lse[1] == -np.inf
        np.testing.assert_allclose(lse[[0, 2]], want, rtol=1e-15)


class TestOwnProxySoftmax:
    @pytest.mark.parametrize("block", [2, 128])
    def test_log_prob_of_own_proxy(self, rng, monkeypatch, block):
        monkeypatch.setattr(numerics, "_ROW_BLOCK", block)
        W = rng.standard_normal((3, 6))
        emb = rng.standard_normal((6, 3))
        labels = np.array([1, 0, 2, 1, 0, 2])
        logits = emb @ column_means(W, labels, 3)
        own, m, total = own_proxy_softmax(emb, W, labels)
        assert own.tobytes() == logits[np.arange(6), labels].tobytes()
        assert m.tobytes() == logits.max(axis=1).tobytes()
        np.testing.assert_allclose(
            own - (m + np.log(total)),
            log_softmax_rows(logits)[np.arange(6), labels], rtol=1e-14)


class TestCrossEntropy:
    def test_uniform_two(self):
        assert abs(cross_entropy(np.array([0.0, 0.0]), 0) - math.log(2)) < 1e-15

    def test_near_certain(self):
        got = cross_entropy(np.array([50.0, 0.0, 0.0]), 0)
        exact = math.log1p(2 * math.exp(-50))
        assert abs(got - exact) < 1e-12

    def test_random_against_naive_oracle(self, rng):
        for _ in range(50):
            logits = rng.standard_normal(5)
            label = int(rng.integers(0, 5))
            # independent oracle in extended precision
            ext = np.array(logits, dtype=np.longdouble)
            oracle = float(np.log(np.sum(np.exp(ext))) - ext[label])
            assert abs(cross_entropy(logits, label) - oracle) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.0, 0.0]), 2)
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.0, 0.0]), -1)


class TestCeGradient:
    def test_uniform(self):
        np.testing.assert_allclose(ce_gradient(np.array([0.0, 0.0, 0.0]), 0),
                                   [-2 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_certain_prediction(self):
        g = ce_gradient(np.array([60.0, 0.0, 0.0]), 0)
        assert np.max(np.abs(g)) < 1e-10

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=32),
           st.integers(0, 31))
    def test_sums_to_zero(self, logits, label):
        v = np.array(logits)
        assert abs(ce_gradient(v, label % v.size).sum()) < 1e-12

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(100):
            k = int(rng.integers(2, 9))
            logits = rng.standard_normal(k)
            label = int(rng.integers(0, k))
            g = ce_gradient(logits, label)
            for i in range(k):
                e = np.zeros(k)
                e[i] = step
                num = (cross_entropy(logits + e, label)
                       - cross_entropy(logits - e, label)) / (2 * step)
                denom = max(1.0, abs(g[i]), abs(num))
                assert abs(g[i] - num) / denom < 1e-6


class TestNormalize:
    def test_three_four(self):
        np.testing.assert_allclose(normalize_rows(np.array([[3.0, 4.0]])),
                                   [[0.6, 0.8]], atol=1e-15)

    def test_idempotent_on_unit(self, rng):
        u = normalize_rows(rng.standard_normal((1, 6)))
        np.testing.assert_allclose(normalize_rows(u), u, atol=1e-12)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-10

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            normalize_rows(np.zeros((1, 4)))

    def test_backward_matches_finite_differences(self, rng):
        for _ in range(20):
            v = rng.standard_normal((1, 5)) + 0.1
            w = rng.standard_normal((1, 5))
            analytic = normalize_rows_backward(v, w)
            err = grad_check(lambda x: float(np.sum(normalize_rows(x) * w)),
                             v, analytic)
            assert err < 1e-6

    def test_rows_backward_matches_finite_differences(self, rng):
        X = rng.standard_normal((3, 4)) + 0.2
        W = rng.standard_normal((3, 4))
        analytic = normalize_rows_backward(X, W)
        err = grad_check(lambda x: float(np.sum(normalize_rows(x) * W)),
                         X, analytic)
        assert err < 1e-6


class TestColumnMeans:
    def test_group_means(self, rng):
        W = rng.standard_normal((3, 5))
        got = column_means(W, np.array([1, 0, 1, 1, 0]), 2)
        np.testing.assert_array_equal(got[:, 0], W[:, [1, 4]].mean(axis=1))
        np.testing.assert_array_equal(got[:, 1], W[:, [0, 2, 3]].mean(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 300), st.integers(0, 2 ** 31 - 1))
    def test_bitwise_equal_to_masked_means(self, d, n, seed):
        # the per-group masked mean, kept here as the oracle
        r = np.random.default_rng(seed)
        K = int(r.integers(1, n + 1))
        labels = np.concatenate([np.arange(K), r.integers(0, K, n - K)])
        r.shuffle(labels)
        W = r.standard_normal((d, n))
        want = np.stack([W[:, labels == s].mean(axis=1) for s in range(K)],
                        axis=1)
        assert column_means(W, labels, K).tobytes() == want.tobytes()

    def test_empty_group_named(self, rng):
        with pytest.raises(ValueError, match="group 1 is empty"):
            column_means(rng.standard_normal((2, 3)), np.array([0, 2, 2]), 3)


class TestRowBlocks:
    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (5, [3, 2]), (8, [4, 4]), (9, [4, 3, 2]), (10, [4, 4, 2])])
    def test_cover_without_trailing_one_row_block(self, monkeypatch, n, sizes):
        monkeypatch.setattr(numerics, "_ROW_BLOCK", 4)
        blocks = [(blk, buf) for blk, buf in row_blocks(n, 3)]
        assert [blk.size for blk, _ in blocks] == sizes
        np.testing.assert_array_equal(np.concatenate([b for b, _ in blocks]),
                                      np.arange(n))
        assert all(buf.shape == (blk.size, 3) for blk, buf in blocks)


class TestGradCheck:
    def test_square(self):
        err = grad_check(lambda x: float(x ** 2), np.array(3.0),
                         np.array(6.0))
        assert err < 1e-9

    def test_constant(self):
        err = grad_check(lambda x: 1.0, np.array([1.0, 2.0]), np.zeros(2))
        assert err == 0.0

    def test_reports_nonfinite(self):
        # the step below 0 makes log return NaN, which grad_check reports
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            grad_check(lambda x: float(np.log(x[0])), np.array([1e-7]),
                       np.array([1e7]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: 0.0, np.zeros(2), np.zeros(3))


@settings(max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_shift_invariance_property(seed):
    r = np.random.default_rng(seed)
    L = r.standard_normal((4, 6)) * 10
    shifted = L + r.standard_normal((4, 1)) * 50
    np.testing.assert_allclose(softmax_rows(shifted), softmax_rows(L),
                               atol=1e-12)
