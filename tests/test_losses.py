import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import losses
from coarse2fine.cluster import Membership, update_proxies
from coarse2fine.data import gen_blob_dataset
from coarse2fine.losses import (WI_READS, _within_coarse_term,
                                build_coarse_index, coarse_loss,
                                combined_objective, instance_loss_full,
                                instance_loss_within_coarse,
                                instance_proxy_loss, objective)
from coarse2fine.model import encode, init_params
from coarse2fine.numerics import grad_check, group_by_label, softmax_core
from coarse2fine.trainer import (gradient_vector, param_vector,
                                 set_param_vector)
from conftest import (ce_block_oracle, cross_entropy, log_softmax_rows,
                      make_params, softmax_rows)


def _loss_fn_builder(params, call):
    """Scalar loss as a function of the flat parameter vector."""
    def fn(vec):
        return call(set_param_vector(params, vec)).value
    return fn


def per_class_within_oracle(params, G, ids, coarse_labels, column_labels,
                            denom):
    """The within-coarse term as one cross-entropy block per coarse class
    (the loop the batched term replaced), column j in class
    column_labels[j]: value, dG and the d x n dW."""
    value = 0.0
    dG = np.zeros_like(G)
    dW = np.zeros_like(params.W_I)
    for k in sorted(set(coarse_labels.tolist())):
        members = np.flatnonzero(column_labels == k)
        rows = np.nonzero(coarse_labels == k)[0]
        pos_of = {int(j): p for p, j in enumerate(members)}
        label_pos = np.asarray([pos_of[int(i)] for i in ids[rows]])
        logits = G[rows] @ params.W_I[:, members]
        if params.cosine:
            logits = logits / params.temperature
        at_label = (np.arange(rows.size), label_pos)
        value += float(-np.sum(log_softmax_rows(logits)[at_label])) / denom
        dlogits = softmax_rows(logits)
        dlogits[at_label] -= 1.0
        dlogits /= denom
        if params.cosine:
            dlogits = dlogits / params.temperature
        dG[rows] += dlogits @ params.W_I[:, members].T
        dW[:, members] += G[rows].T @ dlogits
    return value, dG, dW


def dict_within_coarse_term(params, G, ids, coarse_labels, coarse_index,
                            denom):
    """The batched within-coarse term as it was when the coarse layout was a
    dict (class -> ascending member ids) and each call rebuilt it: the
    reference the per-run layout is held to bit for bit."""
    W_I = params.W_I
    order = np.argsort(coarse_labels, kind="stable")
    classes, starts, counts = np.unique(coarse_labels[order],
                                        return_index=True, return_counts=True)
    members = [np.asarray(coarse_index[k], dtype=np.int64)
               for k in classes.tolist()]
    sizes = np.array([m.size for m in members])
    flat = np.concatenate(members)
    r_max, n_max, d = int(counts.max()), int(sizes.max()), G.shape[1]
    is_member = np.arange(n_max) < sizes[:, None]
    cell = np.flatnonzero(is_member)
    slot = np.zeros(W_I.shape[1], dtype=np.int64)
    slot[flat] = cell % n_max
    row_class = np.repeat(np.arange(classes.size), counts)
    row_slot = np.arange(order.size) - np.repeat(starts, counts)
    label = slot[ids[order]]
    WI_READS.add(int(np.dot(counts, sizes)))
    padded = np.zeros((classes.size, n_max), dtype=np.int64)
    padded[is_member] = flat
    not_member = ~is_member[:, None, :]
    first = np.concatenate(([0], np.cumsum(sizes)))
    per_chunk = max(1, losses._CHUNK_FLOATS // (r_max * n_max))
    value = 0.0
    dG = np.empty_like(G)
    dW = np.zeros_like(W_I)
    for c0 in range(0, classes.size, per_chunk):
        c1 = min(c0 + per_chunk, classes.size)
        t = slice(starts[c0], starts[c1] if c1 < classes.size else order.size)
        cls, pos, lab = row_class[t] - c0, row_slot[t], label[t]
        rows = np.zeros((c1 - c0, r_max, d))
        rows[cls, pos] = G[order[t]]
        cols = np.take(W_I, padded[c0:c1], axis=1, mode="clip",
                       out=np.empty((d, c1 - c0, n_max))).transpose(1, 0, 2)
        logits = np.matmul(rows, cols)
        if params.cosine:
            logits /= params.temperature
        np.copyto(logits, -np.inf, where=not_member[c0:c1])
        own, _, total = softmax_core(logits, (cls, pos, lab))
        value -= float(np.sum(own - np.log(total[cls, pos, 0]))) / denom
        logits /= total
        logits[cls, pos, lab] -= 1.0
        logits /= denom
        if params.cosine:
            logits /= params.temperature
        dG[order[t]] = np.matmul(logits, cols.transpose(0, 2, 1))[cls, pos]
        grads = np.empty(((c1 - c0) * n_max, d))
        np.matmul(logits.transpose(0, 2, 1), rows,
                  out=grads.reshape(c1 - c0, n_max, d))
        m = slice(first[c0], first[c1])
        dW.T[flat[m]] = np.take(grads, cell[m] - c0 * n_max, axis=0)
    return value, dG, dW


def _direct_ce_oracle(logit_rows, labels):
    return float(np.mean([cross_entropy(row, y)
                          for row, y in zip(logit_rows, labels)]))


class TestCoarseLoss:
    def test_single_class_is_zero(self, rng):
        params = make_params(rng, C=1)
        lv = coarse_loss(params, rng.standard_normal((3, 4)), np.zeros(3, int))
        assert lv.value == 0.0

    def test_zero_embeddings_give_log_C(self, rng):
        params = make_params(rng, C=5)
        params.encoder = [(np.zeros((4, 3)), np.zeros(3))]
        lv = coarse_loss(params, rng.standard_normal((2, 4)),
                         np.array([0, 4]))
        assert abs(lv.value - np.log(5)) < 1e-12

    def test_matches_direct_oracle(self, rng):
        params = make_params(rng, C=3)
        X = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        f, _ = encode(params, X)
        oracle = _direct_ce_oracle(f @ params.W_C, y)
        assert abs(coarse_loss(params, X, y).value - oracle) < 1e-12

    def test_label_out_of_range(self, rng):
        params = make_params(rng, C=2)
        with pytest.raises(ValueError):
            coarse_loss(params, rng.standard_normal((1, 4)), np.array([2]))


class TestInstanceLossFull:
    def test_single_instance_is_zero(self, rng):
        params = make_params(rng, n=1)
        lv = instance_loss_full(params, rng.standard_normal((1, 4)),
                                np.array([0]))
        assert lv.value == 0.0

    def test_zero_embeddings_give_log_n(self, rng):
        params = make_params(rng, n=7)
        params.encoder = [(np.zeros((4, 3)), np.zeros(3))]
        lv = instance_loss_full(params, rng.standard_normal((3, 4)),
                                np.array([0, 3, 6]))
        assert abs(lv.value - np.log(7)) < 1e-12

    def test_matches_direct_oracle(self, rng):
        params = make_params(rng, n=6)
        X = rng.standard_normal((4, 4))
        ids = np.array([0, 2, 3, 5])
        f, _ = encode(params, X)
        oracle = _direct_ce_oracle(f @ params.W_I, ids)
        assert abs(instance_loss_full(params, X, ids).value - oracle) < 1e-12


class TestWithinCoarse:
    def test_single_coarse_class_equals_full(self, rng):
        params = make_params(rng, n=5)
        X = rng.standard_normal((5, 4))
        ids = np.arange(5)
        coarse = np.zeros(5, int)
        index = build_coarse_index(coarse)
        full = instance_loss_full(params, X, ids)
        within = instance_loss_within_coarse(params, X, ids, coarse, index)
        assert abs(full.value - within.value) < 1e-12
        np.testing.assert_allclose(within.grad_embeddings,
                                   full.grad_embeddings, atol=1e-12)
        np.testing.assert_allclose(within.grad_heads["instance"],
                                   full.grad_heads["instance"], atol=1e-12)

    def test_all_singleton_classes_is_zero(self, rng):
        params = make_params(rng, n=4)
        X = rng.standard_normal((4, 4))
        coarse = np.arange(4)
        lv = instance_loss_within_coarse(params, X, np.arange(4), coarse,
                                         build_coarse_index(coarse))
        assert lv.value == 0.0

    def test_matches_direct_oracle_three_classes(self, rng):
        params = make_params(rng, n=9)
        X = rng.standard_normal((9, 4))
        ids = np.arange(9)
        coarse = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        index = build_coarse_index(coarse)
        f, _ = encode(params, X)
        total = 0.0
        for i in range(9):
            members = np.flatnonzero(coarse == coarse[i])
            row = f[i] @ params.W_I[:, members]
            total += cross_entropy(row, int(np.nonzero(members == i)[0][0]))
        lv = instance_loss_within_coarse(params, X, ids, coarse, index)
        assert abs(lv.value - total / 9) < 1e-12

    def test_reads_only_member_columns(self, rng):
        params = make_params(rng, n=8)
        X = rng.standard_normal((8, 4))
        coarse = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        index = build_coarse_index(coarse)
        WI_READS.reset()
        lv = instance_loss_within_coarse(params, X, np.arange(8), coarse,
                                         index)
        assert WI_READS.reads == 5 * 5 + 3 * 3
        # one dense d x n gradient for the instance head, none for the others
        assert set(lv.grad_heads) == {"instance"}
        assert lv.grad_heads["instance"].shape == params.W_I.shape
        WI_READS.reset()
        instance_loss_full(params, X, np.arange(8))
        assert WI_READS.reads == 8 * 8

    def test_batch_in_one_coarse_class_leaves_other_columns_zero(self, rng):
        params = make_params(rng, n=9)
        coarse = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2])
        index = build_coarse_index(coarse)
        ids = np.array([3, 5, 6])                    # all in coarse class 1
        WI_READS.reset()
        lv = instance_loss_within_coarse(params, rng.standard_normal((3, 4)),
                                         ids, coarse[ids], index)
        assert WI_READS.reads == 3 * 4
        grad = lv.grad_heads["instance"]
        outside = coarse != 1
        assert np.all(grad[:, outside] == 0.0)
        assert np.all(np.any(grad[:, ~outside] != 0.0, axis=0))


class TestBatchedWithinCoarse:
    """The batched term against the per-class loop, to 1e-12 relative."""

    def check(self, params, G, ids, coarse_labels, coarse):
        WI_READS.reset()
        v, dG, dW = _within_coarse_term(params, G, ids, coarse_labels,
                                        build_coarse_index(coarse), len(ids))
        assert WI_READS.reads == int(np.bincount(coarse)[coarse_labels].sum())
        ov, odG, odW = per_class_within_oracle(params, G, ids, coarse_labels,
                                               coarse, len(ids))
        assert abs(v - ov) <= 1e-12 * abs(ov)
        scale = max(np.abs(odG).max(), np.abs(odW).max())
        np.testing.assert_allclose(dG, odG, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(dW, odW, rtol=1e-12, atol=1e-12 * scale)
        assert np.all(dW[:, odW.any(axis=0) == 0] == 0.0)

    def test_unequal_class_sizes(self, rng):
        coarse = np.repeat(np.arange(5), [1, 7, 3, 12, 2])
        params = make_params(rng, d=4, n=coarse.size)
        ids = rng.permutation(coarse.size)[:15]
        G = rng.standard_normal((15, 4))
        self.check(params, G, ids, coarse[ids], coarse)

    def test_batch_in_one_class(self, rng):
        coarse = np.repeat(np.arange(3), [4, 9, 5])
        params = make_params(rng, d=4, n=coarse.size)
        ids = np.array([12, 4, 9, 7])
        self.check(params, rng.standard_normal((4, 4)), ids, coarse[ids],
                   coarse)

    def test_cosine_with_mlp_head(self, rng):
        coarse = rng.permutation(np.repeat(np.arange(4), [6, 2, 5, 3]))
        params = make_params(rng, hidden=(8,), d=8, n=coarse.size,
                             cosine=True, mlp_head=True, temperature=0.1)
        ids = rng.permutation(coarse.size)[:11]
        X = rng.standard_normal((11, 4)) + 0.4
        index = build_coarse_index(coarse)
        lv = instance_loss_within_coarse(params, X, ids, coarse[ids], index)
        f, _ = encode(params, X)
        G, _ = losses.branch_forward(params, f, "instance")
        self.check(params, G, ids, coarse[ids], coarse)
        ov, _, odW = per_class_within_oracle(params, G, ids, coarse[ids],
                                             coarse, len(ids))
        assert abs(lv.value - ov) <= 1e-12 * ov
        np.testing.assert_allclose(lv.grad_heads["instance"], odW,
                                   rtol=1e-12, atol=1e-12 * np.abs(odW).max())

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunk_boundaries(self, rng, monkeypatch, chunk):
        # a budget below one class's r_max x n_max floats still takes one
        # class per chunk; 2 and 3 classes per chunk leave a short last one
        coarse = np.repeat(np.arange(7), [3, 1, 4, 2, 5, 2, 3])
        params = make_params(rng, d=3, n=coarse.size)
        ids = rng.permutation(coarse.size)
        G = rng.standard_normal((coarse.size, 3))
        r_max, n_max = 5, 5
        monkeypatch.setattr(losses, "_CHUNK_FLOATS",
                            1 if chunk == 1 else chunk * r_max * n_max)
        self.check(params, G, ids, coarse[ids], coarse)

    def test_first_unlisted_example_named(self, rng):
        params = make_params(rng, n=6)
        index = build_coarse_index(np.array([1, 0, 0, 0, 1, 0]))
        coarse = np.array([1, 0, 1, 0, 1, 0])        # example 2 is in class 0
        with pytest.raises(ValueError, match="example 2 not listed in "
                                             "coarse class 1 membership"):
            _within_coarse_term(params, rng.standard_normal((6, 3)),
                                np.arange(6), coarse, index, 6)


class TestWithinValuesOnly:
    """The within-coarse term's values-only mode stops each chunk at its
    value; gradient mode stages the member gradients as rows of an n x d
    scratch buffer. Neither moves a bit."""

    def values_agree(self, params, G, ids, coarse):
        index = build_coarse_index(coarse)
        WI_READS.reset()
        want = _within_coarse_term(params, G, ids, coarse[ids], index,
                                   len(ids) + 2)
        reads = WI_READS.reads
        WI_READS.reset()
        got = _within_coarse_term(params, G, ids, coarse[ids], index,
                                  len(ids) + 2, values_only=True)
        assert got == (want[0], None, None)
        assert WI_READS.reads == reads

    def test_unequal_classes_some_absent(self, rng):
        coarse = rng.permutation(np.repeat(np.arange(6), [1, 7, 3, 12, 2, 5]))
        params = make_params(rng, d=5, n=coarse.size)
        ids = rng.permutation(np.flatnonzero((coarse != 2) & (coarse != 4)))
        self.values_agree(params, 2.0 * rng.standard_normal((ids.size, 5)),
                          ids, coarse)

    def test_class_above_chunk_budget(self, rng):
        # class 1 alone has 130 rows x 140 members > _CHUNK_FLOATS logits
        coarse = np.repeat(np.arange(3), [9, 140, 21])
        assert 130 * 140 > losses._CHUNK_FLOATS
        params = make_params(rng, d=4, n=coarse.size)
        ids = np.concatenate([rng.permutation(9)[:5], 9 + np.arange(130),
                              149 + rng.permutation(21)[:12]])
        self.values_agree(params, 2.0 * rng.standard_normal((ids.size, 4)),
                          ids, coarse)

    def test_cosine_mlp_head_objective(self, rng):
        coarse = rng.permutation(np.repeat(np.arange(5), [6, 2, 9, 3, 4]))
        params = make_params(rng, hidden=(8,), d=6, C=5, n=coarse.size,
                             cosine=True, mlp_head=True, temperature=0.1)
        ids = rng.permutation(np.flatnonzero(coarse != 3))
        X = rng.standard_normal((ids.size, 4)) + 0.4
        args = (params, X, ids, {"coarse": 1.0, "within": 0.7}, coarse[ids],
                build_coarse_index(coarse))
        full, values = objective(*args), objective(*args, values_only=True)
        assert values.value == full.value
        assert values.components == full.components

    @pytest.mark.parametrize("block", [1, 10, None])
    def test_staged_rows_do_not_leak_between_batches(self, rng, monkeypatch,
                                                     block):
        # each batch misses a class the batch before held: its columns must
        # read 0 again, not the gradient staged by the previous call. The
        # staged rows reach dW in blocks of 1 and 2 rows (a short last
        # one at n = 23) or in one block, with the bits of the term that
        # scattered into dW's columns directly
        if block is not None:
            monkeypatch.setattr(losses, "_TRANSPOSE_FLOATS", block)
        coarse = np.repeat(np.arange(4), [5, 8, 3, 7])
        params = make_params(rng, d=4, n=coarse.size)
        G = rng.standard_normal((coarse.size, 4))
        index = build_coarse_index(coarse)
        members = {k: np.flatnonzero(coarse == k) for k in range(4)}
        ws = {}
        for missing in (0, 1, 2, 3, None, 1):
            ids = rng.permutation(np.flatnonzero(coarse != missing))
            want = dict_within_coarse_term(params, G[ids], ids, coarse[ids],
                                           members, ids.size)
            for buffers in (None, ws):
                got = _within_coarse_term(params, G[ids], ids, coarse[ids],
                                          index, ids.size, buffers)
                assert got[0] == want[0]
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2].tobytes() == want[2].tobytes()
            assert np.all(got[2][:, coarse == missing] == 0.0)
            assert np.shares_memory(got[2], ws["grad_instance"])

    def test_values_only_makes_no_n_by_d_array(self, monkeypatch):
        # blob-eval's shape: n = 4096 in 32 classes of 128, d = 32. The
        # gradient mode makes an n x d dG and a d x n dW; the epoch metrics
        # pass forms neither
        data = gen_blob_dataset(32, 8, 16, 8, seed=3)
        params = init_params(data.dim, [16], 32, data.C, data.n, seed=1)
        n, d = data.n, 32
        peaks = []
        term = losses._within_coarse_term

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            out = term(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(losses, "_within_coarse_term", traced)
        tracemalloc.start()
        try:
            objective(params, data.examples, np.arange(n),
                      {"coarse": 1.0, "within": 1.0}, data.coarse_labels,
                      build_coarse_index(data.coarse_labels),
                      values_only=True)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < n * d * 8


class TestPerRunLayout:
    """build_coarse_index groups the columns once per run; a step groups only
    its own rows and reads the layout."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40),
           st.integers(0, 14))
    def test_groups_and_layout_agree_with_flatnonzero(self, labels, K):
        # labels may skip values, and K may pass max(labels) + 1
        labels = np.array(labels)
        order, starts, counts = group_by_label(labels, K)
        assert counts.size == max(K, labels.max() + 1)
        index = build_coarse_index(labels)
        for s in range(counts.size):
            want = np.flatnonzero(labels == s)
            np.testing.assert_array_equal(
                order[starts[s]:starts[s] + counts[s]], want)
            if s < index.counts.size:
                assert index.counts[s] == want.size
                np.testing.assert_array_equal(index.slot[want],
                                              np.arange(want.size))
                np.testing.assert_array_equal(index.grid[s, :want.size], want)
                assert np.all(index.grid[s, want.size:] == 0)
        np.testing.assert_array_equal(index.labels, labels)
        assert index.grid.shape == (labels.max() + 1, counts.max())

    @pytest.mark.parametrize("chunk", [1, 7, 60, losses._CHUNK_FLOATS])
    @pytest.mark.parametrize("cosine", [False, True])
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_bitwise_equal_to_dict_layout(self, monkeypatch, chunk, cosine, d):
        # unsorted labels, classes absent from the whole set or from the
        # batch, batches of every size from one row to all n
        monkeypatch.setattr(losses, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng([chunk, cosine, d])
        for _ in range(13):
            n = int(rng.integers(1, 40))
            coarse = rng.integers(0, int(rng.integers(1, 9)), n)
            params = make_params(rng, d=d, n=n, cosine=cosine,
                                 temperature=0.1)
            ids = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            G = 2.0 * rng.standard_normal((ids.size, d))
            old = {int(k): np.flatnonzero(coarse == k)
                   for k in np.unique(coarse)}
            WI_READS.reset()
            want = dict_within_coarse_term(params, G, ids, coarse[ids], old,
                                           ids.size)
            want_reads = WI_READS.reads
            WI_READS.reset()
            got = _within_coarse_term(params, G, ids, coarse[ids],
                                      build_coarse_index(coarse), ids.size)
            assert WI_READS.reads == want_reads
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()


class TestInstanceProxy:
    def test_single_cluster_is_zero(self, rng):
        params = make_params(rng, n=4, with_proxy=1)
        m = Membership(assignment=np.zeros(4, int), P=1, within_coarse=False,
                       objective=0.0)
        params.W_P = update_proxies(params.W_I, m)
        lv = instance_proxy_loss(params, rng.standard_normal((2, 4)),
                                 np.array([0, 3]), m)
        assert lv.value == 0.0

    def test_singleton_clusters_equal_full_loss(self, rng):
        params = make_params(rng, n=5)
        m = Membership(assignment=np.arange(5), P=5, within_coarse=False,
                       objective=0.0)
        params.W_P = update_proxies(params.W_I, m)
        X = rng.standard_normal((3, 4))
        ids = np.array([0, 2, 4])
        full = instance_loss_full(params, X, ids)
        proxy = instance_proxy_loss(params, X, ids, m)
        assert abs(full.value - proxy.value) < 1e-12

    def test_requires_proxy_head(self, rng):
        params = make_params(rng, n=3)
        m = Membership(assignment=np.zeros(3, int), P=1, within_coarse=False,
                       objective=0.0)
        with pytest.raises(RuntimeError):
            instance_proxy_loss(params, rng.standard_normal((1, 4)),
                                np.array([0]), m)

    def test_matches_direct_oracle(self, rng):
        params = make_params(rng, n=6, with_proxy=3)
        m = Membership(assignment=np.array([0, 0, 1, 1, 2, 2]), P=3,
                       within_coarse=False, objective=0.0)
        X = rng.standard_normal((4, 4))
        ids = np.array([1, 2, 4, 5])
        f, _ = encode(params, X)
        oracle = _direct_ce_oracle(f @ params.W_P, m.assignment[ids])
        assert abs(instance_proxy_loss(params, X, ids, m).value
                   - oracle) < 1e-12


class TestCombined:
    def _setup(self, rng, **kw):
        params = make_params(rng, n=6, with_proxy=3, **kw)
        X = rng.standard_normal((4, 4))
        ids = np.array([0, 2, 3, 5])
        coarse = np.array([0, 0, 0, 1, 1, 1])
        m = Membership(assignment=np.array([0, 0, 1, 1, 2, 2]), P=3,
                       within_coarse=False, objective=0.0)
        return params, X, ids, coarse, build_coarse_index(coarse), m

    def test_zero_weights_equal_coarse_loss(self, rng):
        params, X, ids, coarse, index, m = self._setup(rng)
        combined = combined_objective(params, X, ids, coarse[ids], index,
                                      0.0, 0.0)
        assert combined.value == coarse_loss(params, X, coarse[ids]).value

    def test_affine_in_lambda_I(self, rng):
        params, X, ids, coarse, index, m = self._setup(rng)

        def at(lam):
            return combined_objective(params, X, ids, coarse[ids], index,
                                      lam, 0.0).value

        assert abs((at(0.8) - at(0.4)) - (at(0.4) - at(0.0))) < 1e-12

    def test_equals_weighted_sum_of_terms(self, rng):
        params, X, ids, coarse, index, m = self._setup(rng)
        lam_i, lam_p = 0.3, 1.7
        lv = combined_objective(params, X, ids, coarse[ids], index,
                                lam_i, lam_p, membership=m)
        c = coarse_loss(params, X, coarse[ids]).value
        i = instance_loss_within_coarse(params, X, ids, coarse[ids],
                                        index).value
        p = instance_proxy_loss(params, X, ids, m).value
        assert abs(lv.value - (c + lam_i * i + lam_p * p)) < 1e-12
        assert lv.components == {"coarse": c, "instance": i, "proxy": p}

    def test_full_instance_mode(self, rng):
        params, X, ids, coarse, index, m = self._setup(rng)
        lv = combined_objective(params, X, ids, coarse[ids], index, 0.5, 0.0,
                                within_coarse=False)
        c = coarse_loss(params, X, coarse[ids]).value
        i = instance_loss_full(params, X, ids).value
        assert abs(lv.value - (c + 0.5 * i)) < 1e-12

    def test_proxy_weight_requires_membership(self, rng):
        params, X, ids, coarse, index, m = self._setup(rng)
        with pytest.raises(RuntimeError):
            combined_objective(params, X, ids, coarse[ids], index, 0.0, 1.0)

    def test_negative_weights_rejected(self, rng):
        params, X, ids, coarse, index, m = self._setup(rng)
        with pytest.raises(ValueError):
            combined_objective(params, X, ids, coarse[ids], index, -1.0, 0.0)


class TestObjective:
    def test_zero_weight_term_is_not_computed(self, rng):
        params = make_params(rng, n=6)
        coarse = np.array([0, 0, 0, 1, 1, 1])
        WI_READS.reset()
        lv = objective(params, rng.standard_normal((2, 4)), np.array([0, 4]),
                       {"coarse": 1.0, "within": 0.0}, coarse[[0, 4]],
                       build_coarse_index(coarse))
        assert WI_READS.reads == 0
        assert set(lv.grad_heads) == set(lv.components) == {"coarse"}

    @pytest.mark.parametrize("terms", [{"bogus": 1.0},
                                       {"instance": 1.0, "within": 1.0},
                                       {"coarse": 0.0}])
    def test_bad_terms_rejected(self, rng, terms):
        params = make_params(rng, n=4)
        coarse = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError):
            objective(params, rng.standard_normal((4, 4)), np.arange(4),
                      terms, coarse, build_coarse_index(coarse))


def assert_same_bits(got, want):
    """Two LossValues of a gradient pass hold the same bits."""
    assert got.value == want.value and got.components == want.components
    assert got.grad_embeddings.tobytes() == want.grad_embeddings.tobytes()
    assert got.embeddings.tobytes() == want.embeddings.tobytes()
    assert got.grad_heads.keys() == want.grad_heads.keys()
    for head, dW in want.grad_heads.items():
        assert got.grad_heads[head].shape == dW.shape
        assert got.grad_heads[head].tobytes() == dW.tobytes()
    assert (got.grad_mlp_head is None) == (want.grad_mlp_head is None)
    for g, w in zip(got.grad_mlp_head or (), want.grad_mlp_head or ()):
        assert g.tobytes() == w.tobytes()


class TestScratch:
    """objective with a workspace dict `ws` writes its logits, head
    gradients and within-coarse chunk buffers there; the bits are those of
    fresh arrays."""

    @pytest.mark.parametrize("terms", [
        {"coarse": 1.0}, {"instance": 1.0}, {"within": 1.0}, {"proxy": 1.0},
        {"coarse": 1.0, "instance": 0.7},
        {"coarse": 1.0, "within": 0.7, "proxy": 1.3},
        {"coarse": 0.5, "instance": 0.7, "proxy": 1.3}])
    @pytest.mark.parametrize("cosine", [False, True])
    @pytest.mark.parametrize("mlp_head", [False, True])
    def test_bitwise_equal_to_fresh_arrays(self, rng, terms, cosine,
                                           mlp_head):
        n = 41
        params = make_params(rng, hidden=(8,), d=6, C=3, n=n, with_proxy=7,
                             cosine=cosine, mlp_head=mlp_head)
        X = rng.standard_normal((n, 4)) + 0.4
        coarse = np.arange(n) % 3
        m = Membership(assignment=np.arange(n) % 7, P=7, within_coarse=False,
                       objective=0.0)
        index = build_coarse_index(coarse)
        ws = {}
        # batches of 16, the short last one, one of a single coarse class
        # (the within-coarse gradient then leaves the other classes'
        # columns at zero), then 16 again: the buffers made for the first
        # call serve every later one
        perm = rng.permutation(n)
        for ids in (perm[:16], perm[16:32], perm[32:], perm[coarse[perm] == 1],
                    perm[:16]):
            args = (params, X[ids], ids, terms, coarse[ids], index, m)
            want = objective(*args)
            got = objective(*args, ws=ws)
            assert_same_bits(got, want)
            for head, dW in got.grad_heads.items():
                assert np.shares_memory(dW, ws["grad_" + head])

    def test_next_call_overwrites_the_gradients(self, rng):
        params = make_params(rng, d=5, C=2, n=12)
        X = rng.standard_normal((12, 4))
        coarse = np.arange(12) % 2
        terms = {"coarse": 1.0, "instance": 1.0}
        ws = {}
        first = objective(params, X[:6], np.arange(6), terms, coarse[:6],
                          ws=ws)
        kept = {head: dW.copy() for head, dW in first.grad_heads.items()}
        buffers = dict(ws)
        second = objective(params, X[6:], np.arange(6, 12), terms,
                           coarse[6:], ws=ws)
        # the same arrays: the second call allocated no buffer
        assert ws.keys() == buffers.keys()
        assert all(ws[key] is buf for key, buf in buffers.items())
        for head, dW in second.grad_heads.items():
            np.testing.assert_array_equal(first.grad_heads[head], dW)
            assert not np.array_equal(kept[head], dW)

    def test_values_only_keeps_no_encoder_cache(self, rng):
        params = make_params(rng, n=5)
        lv = objective(params, rng.standard_normal((5, 4)), np.arange(5),
                       {"instance": 1.0}, values_only=True)
        assert lv.encoder_cache is None


class TestOneSoftmaxCeBlock:
    """_ce_block exponentiates once, in place, and scores row blocks with
    or without gradients. Both must give the two-softmax form's bits."""

    # d = 32, n = 300: some BLAS kernels (OpenBLAS's SkylakeX dgemm) round
    # the last columns of a 128-row block of G @ W differently from the same
    # rows of the whole product, so a training step forms it once
    @pytest.mark.parametrize("d, n", [(5, 40), (32, 300)])
    @pytest.mark.parametrize("cosine", [False, True])
    @pytest.mark.parametrize("head", ["coarse", "instance", "proxy"])
    @pytest.mark.parametrize("rows", [1, 2, 7, 64, 127, 128, 129, 255, 257,
                                      300])
    def test_bitwise_equal_to_two_softmax_form(self, rng, cosine, head, rows,
                                               d, n):
        params = make_params(rng, d=d, C=4, n=n, with_proxy=9,
                             cosine=cosine, temperature=0.1)
        G = 3.0 * rng.standard_normal((rows, d))
        K = params.head_matrix(head).shape[1]
        labels = rng.integers(0, K, rows)
        got = losses._ce_block(params, G, head, labels, rows + 3)
        want = ce_block_oracle(params, G, head, labels, rows + 3)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])

    @pytest.mark.parametrize("cosine", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 127, 128, 129, 255, 257, 300])
    def test_values_only_bitwise_across_row_blocks(self, rng, cosine, rows):
        # d = 5 only: at other shapes some BLAS kernels (OpenBLAS's SkylakeX
        # dgemm at d = 32, K = 300) round a block's product unlike the same
        # rows of the whole product, and the values then differ in the
        # last bits
        params = make_params(rng, d=5, C=4, n=rows, cosine=cosine,
                             temperature=0.05)
        G = 3.0 * rng.standard_normal((rows, 5))
        for head, K in (("coarse", 4), ("instance", rows)):
            labels = rng.integers(0, K, rows)
            value, dG, dW = losses._ce_block(params, G, head, labels, rows,
                                             values_only=True)
            assert dG is None and dW is None
            assert value == ce_block_oracle(params, G, head, labels, rows)[0]

    @pytest.mark.parametrize("terms", [{"coarse": 1.0, "instance": 0.7},
                                       {"coarse": 1.0, "within": 0.7,
                                        "proxy": 1.3}])
    def test_objective_values_only(self, rng, terms):
        params = make_params(rng, hidden=(8,), d=6, C=2, n=9, with_proxy=3,
                             cosine=True, mlp_head=True)
        X = rng.standard_normal((9, 4)) + 0.4
        coarse = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
        m = Membership(assignment=np.array([0, 0, 1, 1, 2, 2, 2, 2, 2]), P=3,
                       within_coarse=True, objective=0.0)
        args = (params, X, np.arange(9), terms, coarse,
                build_coarse_index(coarse), m)
        WI_READS.reset()
        full = objective(*args)
        reads = WI_READS.reads
        WI_READS.reset()
        lv = objective(*args, values_only=True)
        assert WI_READS.reads == reads
        assert lv.value == full.value and lv.components == full.components
        assert lv.grad_embeddings is None and lv.grad_heads == {}
        np.testing.assert_array_equal(lv.embeddings, full.embeddings)

    def test_values_only_non_finite_raises(self, rng):
        params = make_params(rng, n=4)
        params.W_I[0, 2] = np.nan
        with pytest.raises(FloatingPointError,
                           match="non-finite loss or gradient"):
            objective(params, rng.standard_normal((4, 4)), np.arange(4),
                      {"instance": 1.0}, values_only=True)

    def test_values_only_keeps_input_checks(self, rng):
        params = make_params(rng, C=2, n=4)
        X = rng.standard_normal((4, 4))
        coarse = np.array([0, 0, 1, 1])
        index = build_coarse_index(coarse)
        for terms, labels, ids, match in [
                ({"coarse": -1.0}, coarse, np.arange(4), "non-negative"),
                ({"bogus": 1.0}, coarse, np.arange(4), "unknown"),
                ({"coarse": 1.0}, coarse + 1, np.arange(4), "coarse label"),
                ({"instance": 1.0}, coarse, np.arange(1, 5), "instance id"),
                ({"within": 1.0}, coarse[::-1], np.arange(4), "not listed")]:
            with pytest.raises(ValueError, match=match):
                objective(params, X, ids, terms, labels, index,
                          values_only=True)
        with pytest.raises(RuntimeError, match="proxy"):
            objective(params, X, np.arange(4), {"proxy": 1.0},
                      values_only=True)


class TestGradients:
    """Spot checks; the 100-configuration sweep lives in the acceptance suite."""

    def test_combined_with_all_variants(self, rng):
        params = make_params(rng, input_dim=3, hidden=(3,), d=2, C=2, n=5,
                             with_proxy=2, cosine=True, mlp_head=True)
        X = rng.standard_normal((3, 3)) + 0.4
        ids = np.array([0, 2, 4])
        coarse = np.array([0, 0, 0, 1, 1])
        index = build_coarse_index(coarse)
        m = Membership(assignment=np.array([0, 0, 0, 1, 1]), P=2,
                       within_coarse=False, objective=0.0)

        def call(p):
            return combined_objective(p, X, ids, coarse[ids], index,
                                      0.7, 1.3, membership=m)

        lv = call(params)
        err = grad_check(_loss_fn_builder(params, call), param_vector(params),
                         gradient_vector(params, lv))
        assert err < 1e-4

    def test_loss_values_nonnegative(self, rng):
        params = make_params(rng, n=5)
        X = rng.standard_normal((4, 4))
        coarse = np.array([0, 0, 1, 1, 1])
        assert coarse_loss(params, X, coarse[:4]).value >= 0
        assert instance_loss_full(params, X, np.arange(4)).value >= 0
