import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import numerics
from coarse2fine.numerics import (DegenerateInputError, column_means,
                                  equal_size_groups, grad_check,
                                  group_by_label, normalize_rows,
                                  normalize_rows_backward, own_proxy_softmax,
                                  softmax_core, threaded_row_blocks)
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

    # group sizes below, at and past the 8-way blocks of NumPy's pairwise
    # sum and its split above 128; "random" draws n and the labels, "mixed"
    # draws sizes from the list, so that the groups of each size are taken
    # together
    SIZES = [1, 7, 8, 9, 16, 129, 300]

    @pytest.mark.parametrize("layout", ["random", *SIZES, "mixed"])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2 ** 31 - 1))
    def test_bitwise_equal_to_masked_means(self, layout, d, seed):
        # the per-group masked mean, kept here as the oracle
        r = np.random.default_rng(seed)
        if layout == "random":
            n = int(r.integers(1, 301))
            K = int(r.integers(1, n + 1))
            labels = np.concatenate([np.arange(K), r.integers(0, K, n - K)])
        else:
            sizes = (r.choice(self.SIZES, int(r.integers(2, 9)))
                     if layout == "mixed" else [layout] * int(r.integers(1, 6)))
            K = len(sizes)
            labels = np.repeat(np.arange(K), sizes)
        r.shuffle(labels)
        W = r.standard_normal((d, labels.size))
        want = np.stack([W[:, labels == s].mean(axis=1) for s in range(K)],
                        axis=1)
        assert column_means(W, labels, K).tobytes() == want.tobytes()

    def test_empty_group_named(self, rng):
        with pytest.raises(ValueError, match="group 1 is empty"):
            column_means(rng.standard_normal((2, 3)), np.array([0, 2, 2]), 3)


class TestEqualSizeGroups:
    def test_by_size_or_key_ascending_without_empty_groups(self):
        labels = np.array([3, 0, 3, 1, 0, 3, 1, 4, 4])      # no label 2
        layout = group_by_label(labels)
        assert [(ids.tolist(), idx.tolist())
                for ids, idx in equal_size_groups(*layout)] == [
            ([0, 1, 4], [[1, 4], [3, 6], [7, 8]]), ([3], [[0, 2, 5]])]
        # the empty group's key 0 yields nothing; groups 0 and 4 share one
        key = np.array([5, 1, 0, 9, 5])
        assert [ids.tolist() for ids, _ in
                equal_size_groups(*layout, key)] == [[1], [0, 4], [3]]


class TestRowBlocks:
    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (5, [3, 2]), (8, [4, 4]), (9, [4, 3, 2]), (10, [4, 4, 2])])
    def test_cover_without_trailing_one_row_block(self, monkeypatch, n, sizes):
        # a narrow pass (width 3 below n) walks blocks of _ROW_BLOCK rows
        monkeypatch.setattr(numerics, "_ROW_BLOCK", 4)
        blocks = []
        threaded_row_blocks(n, lambda blk, buf: blocks.append(
            (blk, buf.copy())), 3)
        assert [blk.size for blk, _ in blocks] == sizes
        np.testing.assert_array_equal(np.concatenate([b for b, _ in blocks]),
                                      np.arange(n))
        assert all(buf.shape == (blk.size, 3) for blk, buf in blocks)


def on_the_helper(monkeypatch, action, n=6):
    """A two-thread `threaded_row_blocks` pass over n rows in blocks of one
    row that runs action() on the helper thread: the caller's first block
    waits until the helper has taken one."""
    monkeypatch.setattr(numerics, "_ROW_BLOCK", 2)
    monkeypatch.setattr(numerics, "_WIDE", 1)          # every pass is wide
    monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
    helper_started = threading.Event()

    def body(blk, buf):
        if threading.current_thread() is threading.main_thread():
            assert helper_started.wait(timeout=60)
        else:
            helper_started.set()
            action()

    threaded_row_blocks(n, body, 1)


class TestThreadedRowBlocks:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (5, [3, 2]), (8, [4, 4]), (9, [4, 3, 2]), (10, [4, 4, 2])])
    def test_half_blocks_each_thread_its_own_scratch(self, monkeypatch,
                                                     threads, n, sizes):
        monkeypatch.setattr(numerics, "_ROW_BLOCK", 8)
        monkeypatch.setattr(numerics, "_WIDE", 1)
        monkeypatch.setattr(numerics, "_threads", lambda n, width: threads)
        seen, lock = [], threading.Lock()

        def body(blk, a, b):
            assert a.shape == (blk.size, 3) and b.shape == (blk.size, 5)
            with lock:
                seen.append((blk.tolist(), threading.get_ident(),
                             id(a.base), id(b.base)))

        threaded_row_blocks(n, body, 3, 5)
        assert sorted(len(rows) for rows, *_ in seen) == sorted(sizes)
        assert sorted(sum((rows for rows, *_ in seen), [])) == list(range(n))
        owner = {}
        for _, ident, *bases in seen:
            for base in bases:
                assert owner.setdefault(base, ident) == ident
        assert len({ident for _, ident, *_ in seen}) <= threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_block_reraised_with_its_type(self, monkeypatch,
                                                        threads):
        monkeypatch.setattr(numerics, "_ROW_BLOCK", 2)
        monkeypatch.setattr(numerics, "_WIDE", 1)
        monkeypatch.setattr(numerics, "_threads", lambda n, width: threads)

        class BlockError(Exception):
            pass

        def body(blk, buf):
            if blk[0] >= 3:
                raise BlockError(int(blk[0]))

        with pytest.raises(BlockError) as caught:
            threaded_row_blocks(20, body, 1)
        assert caught.value.args == (3,)

    def test_helper_exception_reraised_with_its_type(self, monkeypatch):
        def fail():
            raise KeyError("on the helper")
        with pytest.raises(KeyError, match="on the helper"):
            on_the_helper(monkeypatch, fail)

    def test_helper_follows_the_callers_errstate(self, monkeypatch):
        values = []
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            on_the_helper(monkeypatch, lambda: np.exp(np.full(2, 1000.0)))
        # RuntimeWarning is an error in this suite: ignored means not raised
        with np.errstate(over="ignore"):
            on_the_helper(monkeypatch, lambda: values.append(
                np.exp(np.full(2, 1000.0))))
        assert np.isinf(np.concatenate(values)).all()

    def test_no_thread_to_be_had_runs_all_on_the_caller(self, monkeypatch):
        def refuse(self):
            raise RuntimeError("can't start new thread")
        monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        idents = set()
        threaded_row_blocks(300, lambda blk, buf: idents.add(
            threading.get_ident()), 1)
        assert idents == {threading.get_ident()}

    @pytest.mark.parametrize("cpus, shape, threads", [
        ({0}, (10 ** 5, 10 ** 4), 1), ({0, 1}, (10 ** 5, 10 ** 4), 2),
        ({0, 1, 2, 3}, (10 ** 5, 10 ** 4), 2),
        ({0, 1, 2, 3}, (639, 640), 1), ({0, 1}, (640, 640), 2),
        ({0, 1}, (10 ** 9, 639), 1)])
    def test_thread_count(self, monkeypatch, cpus, shape, threads):
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: cpus)
        assert numerics._threads(*shape) == threads

    @pytest.mark.parametrize("n, width, threads, height", [
        (16384, 32, 1, 128), (16384, 256, 1, 128), (4096, 2048, 2, 64),
        (512, 512, 1, 64)])
    def test_shape_rule(self, monkeypatch, n, width, threads, height):
        """Block height and thread count follow the pass's shape alone: a
        tall narrow pass stays on one thread in 128-row blocks, a wide one
        (width >= min(n, 640)) walks 64-row blocks, on two threads from
        640 x 640 cells up."""
        monkeypatch.setattr(numerics.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        seen, lock = [], threading.Lock()

        def body(blk, buf):
            assert buf.shape == (blk.size, width)
            with lock:
                seen.append((blk.size, threading.get_ident()))

        threaded_row_blocks(n, body, width)
        assert numerics._threads(n, width) == threads
        assert max(size for size, _ in seen) == height
        assert sum(size for size, _ in seen) == n
        assert len({ident for _, ident in seen}) <= threads


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
