import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import numerics
from coarse2fine.data import gen_blob_dataset
from coarse2fine.evaluate import (NoValidQueriesError, evaluate_model,
                                  fine_class_prob, recall_at_k,
                                  topk_accuracy)
from coarse2fine.numerics import DegenerateInputError, column_means
from conftest import identity_params, make_params, softmax_rows


def brute_force_recall(emb, labels, ks):
    """Independent oracle: python-level sort per query."""
    n = len(labels)
    unit = [v / np.linalg.norm(v) if np.linalg.norm(v) else v for v in emb]
    counts = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    hits = {k: 0 for k in ks}
    n_queries = 0
    for q in range(n):
        if counts[labels[q]] < 2:
            continue
        n_queries += 1
        others = [(float(np.dot(unit[q], unit[j])), j)
                  for j in range(n) if j != q]
        others.sort(key=lambda t: (-t[0], t[1]))
        first = next(pos for pos, (_, j) in enumerate(others)
                     if labels[j] == labels[q])
        for k in ks:
            hits[k] += first < k
    return {k: hits[k] / n_queries for k in ks}, n_queries


class TestRecallAtK:
    def test_duplicated_pairs_perfect(self, rng):
        base = rng.standard_normal((5, 4))
        emb = np.repeat(base, 2, axis=0)
        labels = np.repeat(np.arange(5), 2)
        recall, nq = recall_at_k(emb, labels, [1])
        assert recall[1] == 1.0 and nq == 10

    def test_orthogonal_classes_perfect_at_all_k(self):
        emb = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        labels = np.array([0, 0, 0, 1, 1, 1])
        recall, _ = recall_at_k(emb, labels, [1, 2, 3, 4])
        assert all(v == 1.0 for v in recall.values())

    def test_matches_brute_force_oracle(self, rng):
        emb = rng.standard_normal((20, 6))
        labels = rng.integers(0, 4, 20)
        got, nq = recall_at_k(emb, labels, [1, 2, 4, 8])
        want, nq2 = brute_force_recall(emb, labels, [1, 2, 4, 8])
        assert nq == nq2
        assert got == want

    def test_scale_invariance(self, rng):
        emb = rng.standard_normal((12, 5))
        labels = rng.integers(0, 3, 12)
        scales = rng.uniform(0.1, 10, (12, 1))
        a, _ = recall_at_k(emb, labels, [1, 3])
        b, _ = recall_at_k(emb * scales, labels, [1, 3])
        assert a == b

    def test_singleton_queries_excluded(self):
        emb = np.array([[1.0, 0], [1.0, 0.1], [0, 1.0]])
        labels = np.array([0, 0, 1])
        recall, nq = recall_at_k(emb, labels, [1])
        assert nq == 2 and recall[1] == 1.0

    def test_all_singletons_raise(self, rng):
        with pytest.raises(NoValidQueriesError):
            recall_at_k(rng.standard_normal((3, 2)), np.arange(3), [1])

    def test_tie_breaks_to_lower_index(self):
        # queries 1 and 2 see two perfect-similarity neighbors; the lower
        # index (the wrong-label point 0) must win the tie at k=1
        emb = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        labels = np.array([9, 5, 5, 9, 9])
        recall, _ = recall_at_k(emb, labels, [1])
        # queries 0, 1, 2 all tie at similarity 1 with two neighbors; the
        # lowest index wins, which is the wrong label for each of them.
        # Queries 3 and 4 retrieve each other, so recall is exactly 2/5.
        assert recall[1] == 0.4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_monotone_in_k(self, seed):
        r = np.random.default_rng(seed)
        emb = r.standard_normal((15, 4))
        labels = r.integers(0, 4, 15)
        try:
            recall, _ = recall_at_k(emb, labels, [1, 2, 4, 8, 14])
        except NoValidQueriesError:
            return
        vals = [recall[k] for k in (1, 2, 4, 8, 14)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert recall[14] == 1.0  # every valid query finds its match by n-1


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_ties_across_row_blocks(self, data):
        # rows drawn from {0, +-e_i, +-3 e_i}: every cosine similarity is
        # exactly -1, 0 or 1, so ties are exact on any BLAS path; blocks of
        # 1-5 rows put tied neighbours in other blocks than their query
        dim = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 14))
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, dim - 1), st.sampled_from(
                [0.0, 1.0, -1.0, 3.0, -3.0])), min_size=n, max_size=n))
        emb = np.zeros((n, dim))
        for i, (axis, value) in enumerate(rows):
            emb[i, axis] = value
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                             max_size=n)))
        ks = [1, 2, 3, 5, 20]
        try:
            want = brute_force_recall(emb, labels, ks)
        except ZeroDivisionError:          # every label a singleton
            with pytest.raises(NoValidQueriesError):
                recall_at_k(emb, labels, ks)
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_ROW_BLOCK", data.draw(st.integers(1, 5)))
            assert recall_at_k(emb, labels, ks) == want

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 127, 128, 129, 255, 257]),
           st.sampled_from(["collapsed", "grid", "gaussian"]),
           st.integers(0, 2 ** 31 - 1))
    def test_matches_sort_oracle_at_every_k(self, n, kind, seed):
        # grid rows are 0, +-c e_i or c (+-1, +-1, +-1, +-1), whose cosine
        # similarities are exact multiples of 1/2 on any BLAS path; a
        # collapsed model maps every example to one such row
        r = np.random.default_rng(seed)
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 4)).reshape(4, -1).T
        grid = np.vstack([np.zeros((1, 4)), np.eye(4), -np.eye(4),
                          3 * np.eye(4), signs, 3 * signs])
        if kind == "collapsed":
            emb = np.repeat(grid[r.integers(len(grid))][None], n, axis=0)
        elif kind == "grid":
            emb = grid[r.integers(len(grid), size=n)]
        else:
            emb = r.standard_normal((n, 4))
            emb[r.random(n) < 0.05] = 0.0
        # labels of unequal sizes, with singletons
        singles = r.integers(0, n // 2 + 1)
        labels = np.concatenate([r.integers(0, r.integers(1, n // 4 + 2),
                                            n - singles),
                                 n + np.arange(singles)])
        r.shuffle(labels)
        ks = list(range(1, n + 1))
        if np.bincount(labels).max() < 2:
            with pytest.raises(NoValidQueriesError):
                recall_at_k(emb, labels, ks)
            return
        assert recall_at_k(emb, labels, ks) == brute_force_recall(emb, labels,
                                                                  ks)

    def test_non_finite_row_named(self, rng):
        emb = rng.standard_normal((8, 3))
        emb[5, 1] = np.nan
        emb[6, 0] = np.inf
        with pytest.raises(DegenerateInputError, match="row 5 "):
            recall_at_k(emb, np.repeat(np.arange(4), 2), [1])


class TestTopkAccuracy:
    def test_exact_fractions(self):
        logits = np.array([[3.0, 2.0, 1.0],
                           [1.0, 3.0, 2.0],
                           [1.0, 2.0, 3.0]])
        labels = np.array([0, 0, 1])
        acc = topk_accuracy(logits, labels, [1, 2, 3])
        assert acc == {1: 1 / 3, 2: 2 / 3, 3: 1.0}

    def test_tie_breaks_to_lower_class(self):
        acc = topk_accuracy(np.array([[1.0, 1.0]]), np.array([1]), [1])
        assert acc[1] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_sort_oracle_with_ties(self, seed):
        r = np.random.default_rng(seed)
        logits = r.integers(0, 3, (9, 5)).astype(float)   # many exact ties
        labels = r.integers(0, 5, 9)
        want = {}
        for k in (1, 2, 5):
            hits = [labels[i] in sorted(range(5),
                                        key=lambda c: (-logits[i, c], c))[:k]
                    for i in range(9)]
            want[k] = float(np.mean(hits))
        assert topk_accuracy(logits, labels, [1, 2, 5]) == want

    def test_k_exceeding_classes(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros((2, 3)), np.zeros(2, int), [4])


class TestFineClassProb:
    def test_singleton_fine_classes_match_instance_softmax(self, rng):
        # one example per fine class: the class proxy IS the instance column
        W_I = rng.standard_normal((4, 6))
        emb = rng.standard_normal((6, 4))
        own = fine_class_prob(emb, W_I, np.arange(6))
        for i in range(6):
            e = np.exp(emb[i] @ W_I)
            assert abs(own[i] - e[i] / e.sum()) <= 1e-12

    @pytest.mark.parametrize("block", [3, 6, 128])
    def test_own_entry_of_full_softmax(self, rng, monkeypatch, block):
        # the streamed own-class entries are the entries of the full n x F
        # softmax matrix, bit for bit; with 7 rows, blocks of 3 and 6 would
        # leave a trailing one-row block
        monkeypatch.setattr(numerics, "_ROW_BLOCK", block)
        W_I = rng.standard_normal((3, 7))
        emb = rng.standard_normal((7, 3))
        fine = np.array([0, 0, 1, 1, 2, 2, 3])
        probs = softmax_rows(emb @ column_means(W_I, fine, 4))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        own = fine_class_prob(emb, W_I, fine)
        assert own.shape == (7,)
        assert own.tobytes() == probs[np.arange(7), fine].tobytes()

    def test_empty_fine_class_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            fine_class_prob(rng.standard_normal((4, 3)),
                            rng.standard_normal((3, 4)),
                            np.array([0, 0, 2, 2]))


class TestEvaluateModel:
    def test_report_on_blob(self):
        d = gen_blob_dataset(2, 3, 4, 4, seed=0)
        params = identity_params(4, C=2, n=d.n)
        report = evaluate_model(params, d, [1, 2])
        assert set(report.recall_at) == {1, 2}
        assert report.n_queries == d.n
        assert 0.0 < report.fine_prob_mean <= 1.0
        assert report.fine_prob_min <= report.fine_prob_mean
        payload = report.to_dict()
        assert payload["recall_at"]["1"] == report.recall_at[1]

    def test_fine_prob_skipped_without_matching_instance_head(self, rng):
        d = gen_blob_dataset(2, 2, 3, 4, seed=1)
        params = make_params(rng, input_dim=4, C=2, n=d.n + 1)
        report = evaluate_model(params, d, [1])
        assert report.fine_prob_mean is None
