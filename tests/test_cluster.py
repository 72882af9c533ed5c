import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import cluster
from coarse2fine.cluster import (Membership, apportion, kmeans,
                                 update_proxies)
from coarse2fine.numerics import DegenerateInputError, InvariantError


# --- the per-problem k-means: one Python loop per class, restart and
# cluster. The batched `kmeans` must give the same result bit for bit.

def _oracle_pp_init(pts, P, rng):
    n = pts.shape[0]
    centers = np.empty((P, pts.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = pts[first]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, P):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def _oracle_assign(pts, centers):
    d2 = (np.sum(pts * pts, axis=1, keepdims=True)
          - 2.0 * pts @ centers.T + np.sum(centers * centers, axis=1))
    d2 = np.maximum(d2, 0.0)
    return np.argmin(d2, axis=1), d2


def _oracle_lloyd(pts, P, rng, max_iters, tol, init=None):
    centers = _oracle_pp_init(pts, P, rng) if init is None \
        else np.array(init, dtype=np.float64)
    prev_obj = np.inf
    for _ in range(max_iters):
        assign, d2 = _oracle_assign(pts, centers)
        for p in range(P):
            if np.any(assign == p):
                continue
            per_point = d2[np.arange(pts.shape[0]), assign]
            counts = np.bincount(assign, minlength=P)
            per_point = np.where(counts[assign] > 1, per_point, -np.inf)
            steal = int(np.argmax(per_point))
            assign[steal] = p
            d2[steal, :] = np.sum((pts[steal] - centers) ** 2, axis=1)
        obj = 0.0
        for p in range(P):
            members = pts[assign == p]
            centers[p] = members.mean(axis=0)
            obj += float(np.sum((members - centers[p]) ** 2))
        if not obj <= prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
            raise InvariantError("k-means objective increased")
        if prev_obj - obj <= tol:
            prev_obj = obj
            break
        prev_obj = obj
    assign, _ = _oracle_assign(pts, centers)
    obj = 0.0
    for p in range(P):
        members = pts[assign == p]
        if members.shape[0] == 0:
            continue
        obj += float(np.sum((members - members.mean(axis=0)) ** 2))
    if not obj <= prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
        raise InvariantError("k-means objective increased at finalization")
    return assign, obj


def oracle_kmeans(W_I, P, seed=0, max_iters=100, tol=1e-6, restarts=4,
                  coarse_labels=None, init=None, _seedseq=None):
    """`kmeans` as one problem at a time: a recursion per coarse class, a
    loop per restart and Lloyd's loops per cluster."""
    pts = W_I.T.astype(np.float64)
    n = pts.shape[0]
    seedseq = _seedseq if _seedseq is not None else np.random.SeedSequence(seed)
    if coarse_labels is None:
        if init is not None:
            restarts = 1
        rngs = [np.random.default_rng(ss)
                for ss in seedseq.spawn(max(restarts, 1))]
        best = None
        for r in range(max(restarts, 1)):
            assign, obj = _oracle_lloyd(pts, P, rngs[r], max_iters, tol,
                                        init=init)
            if best is None or obj < best[1]:
                best = (assign, obj)
        return Membership(assignment=best[0], P=P, within_coarse=False,
                          objective=best[1])
    y = np.asarray(coarse_labels, dtype=np.int64)
    classes = np.unique(y).tolist()
    budgets = apportion([int(np.sum(y == k)) for k in classes], P)
    assign = np.empty(n, dtype=np.int64)
    total_obj = 0.0
    offset = 0
    for k, P_k, ss in zip(classes, budgets, seedseq.spawn(len(classes))):
        idx = np.nonzero(y == k)[0]
        sub = oracle_kmeans(W_I[:, idx], P_k, max_iters=max_iters, tol=tol,
                            restarts=restarts, _seedseq=ss)
        assign[idx] = sub.assignment + offset
        total_obj += sub.objective
        offset += P_k
    return Membership(assignment=assign, P=P, within_coarse=True,
                      objective=total_obj)


def recompute_objective(membership, W_I):
    """Sum of squared distances of the columns to their cluster's mean."""
    pts = W_I.T
    total = 0.0
    for p in range(membership.P):
        members = pts[membership.assignment == p]
        if members.shape[0]:
            total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


def exhaustive_kmeans_oracle(pts, P):
    """Minimum within-cluster sum of squares over every assignment of the
    points to P labels (empty clusters contribute nothing); returns the
    optimum value and the optimal assignment."""
    n = pts.shape[0]
    best, best_assign = np.inf, None
    for assign in itertools.product(range(P), repeat=n):
        a = np.array(assign)
        obj = 0.0
        for p in range(P):
            members = pts[a == p]
            if members.shape[0]:
                obj += float(np.sum((members - members.mean(axis=0)) ** 2))
        if obj < best:
            best, best_assign = obj, a
    return best, best_assign


class TestUpdateProxies:
    def test_columnwise_means(self, rng):
        W_I = rng.standard_normal((3, 5))
        m = Membership(assignment=np.array([0, 0, 1, 1, 1]), P=2,
                       within_coarse=False, objective=0.0)
        W_P = update_proxies(W_I, m)
        np.testing.assert_allclose(W_P[:, 0], W_I[:, :2].mean(axis=1))
        np.testing.assert_allclose(W_P[:, 1], W_I[:, 2:].mean(axis=1))

    def test_empty_cluster_rejected(self, rng):
        m = Membership(assignment=np.zeros(3, int), P=2, within_coarse=False,
                       objective=0.0)
        with pytest.raises(DegenerateInputError,
                           match="group 1 is empty: no column is labelled 1"):
            update_proxies(rng.standard_normal((2, 3)), m)

    def test_cosine_unit_columns(self, rng):
        W_I = rng.standard_normal((4, 6)) + 1.0
        m = Membership(assignment=np.array([0, 0, 1, 1, 2, 2]), P=3,
                       within_coarse=False, objective=0.0)
        W_P = update_proxies(W_I, m, cosine=True)
        np.testing.assert_allclose(np.linalg.norm(W_P, axis=0), 1.0,
                                   atol=1e-12)


class TestApportion:
    def test_proportional_exact(self):
        assert apportion([10, 20, 30], 6) == [1, 2, 3]

    def test_largest_remainder(self):
        # quotas 1.5 / 1.5 / 2.0 with 5 slots: tie broken by lower index
        assert apportion([3, 3, 4], 5) == [2, 1, 2]

    def test_every_class_gets_a_slot(self):
        shares = apportion([100, 1, 1], 3)
        assert shares == [1, 1, 1]

    def test_share_never_exceeds_count(self):
        shares = apportion([1, 1, 10], 6)
        assert shares[0] <= 1 and shares[1] <= 1 and sum(shares) == 6

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6),
           st.data())
    def test_invariants(self, counts, data):
        P = data.draw(st.integers(len(counts), sum(counts)))
        shares = apportion(counts, P)
        assert sum(shares) == P
        assert all(1 <= s <= c for s, c in zip(shares, counts))


class TestKmeans:
    def test_P_equals_n_gives_zero_objective(self, rng):
        W_I = rng.standard_normal((3, 6))
        m = kmeans(W_I, 6, seed=0)
        W_P = update_proxies(W_I, m)
        assert m.objective == 0.0
        # every point is its own proxy, up to cluster relabeling
        np.testing.assert_allclose(np.sort(W_P, axis=1),
                                   np.sort(W_I, axis=1), atol=1e-12)

    def test_single_cluster_centroid_is_mean(self, rng):
        W_I = rng.standard_normal((4, 7))
        m = kmeans(W_I, 1, seed=1)
        W_P = update_proxies(W_I, m)
        np.testing.assert_allclose(W_P[:, 0], W_I.mean(axis=1), atol=1e-12)
        assert abs(m.objective - recompute_objective(m, W_I)) < 1e-9

    def test_lower_bounded_by_exhaustive_oracle(self, rng):
        for trial in range(20):
            n = int(rng.integers(4, 9))
            P = int(rng.integers(2, 4))
            W_I = rng.standard_normal((3, n))
            m = kmeans(W_I, P, seed=trial, restarts=8)
            oracle, _ = exhaustive_kmeans_oracle(W_I.T, P)
            assert m.objective >= oracle - 1e-9

    def test_init_at_oracle_centroids_hits_optimum(self, rng):
        for trial in range(5):
            W_I = rng.standard_normal((2, 7))
            oracle, assign = exhaustive_kmeans_oracle(W_I.T, 3)
            centers = np.stack([W_I[:, assign == p].mean(axis=1)
                                for p in range(3)])
            m = kmeans(W_I, 3, init=centers)
            assert abs(m.objective - oracle) < 1e-9

    def test_deterministic(self, rng):
        W_I = rng.standard_normal((4, 20))
        a = kmeans(W_I, 5, seed=42)
        b = kmeans(W_I, 5, seed=42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_objective_matches_recompute(self, rng):
        W_I = rng.standard_normal((4, 30))
        m = kmeans(W_I, 6, seed=5)
        assert abs(m.objective - recompute_objective(m, W_I)) < 1e-9

    def test_bad_P_rejected(self, rng):
        W_I = rng.standard_normal((2, 4))
        with pytest.raises(ValueError):
            kmeans(W_I, 5)
        with pytest.raises(ValueError):
            kmeans(W_I, 0)

    def test_more_restarts_never_worse(self, rng):
        W_I = rng.standard_normal((3, 24))
        few = kmeans(W_I, 4, seed=7, restarts=1)
        many = kmeans(W_I, 4, seed=7, restarts=8)
        assert many.objective <= few.objective + 1e-9


class TestKmeansWithinCoarse:
    def test_no_cluster_crosses_class_boundary(self, rng):
        W_I = rng.standard_normal((4, 24))
        coarse = rng.integers(0, 3, 24)
        m = kmeans(W_I, 7, seed=0, coarse_labels=coarse)
        assert m.within_coarse
        for p in range(m.P):
            members = np.nonzero(m.assignment == p)[0]
            if members.size:
                assert np.unique(coarse[members]).size == 1

    def test_budget_proportional_to_class_size(self, rng):
        W_I = rng.standard_normal((3, 30))
        coarse = np.repeat([0, 1, 2], [15, 10, 5])
        m = kmeans(W_I, 6, seed=1, coarse_labels=coarse)
        used = [np.unique(m.assignment[coarse == k]).size for k in range(3)]
        assert used == [3, 2, 1]

    def test_P_below_class_count_rejected(self, rng):
        W_I = rng.standard_normal((2, 9))
        with pytest.raises(ValueError, match="coarse"):
            kmeans(W_I, 2, coarse_labels=np.repeat([0, 1, 2], 3))

    def test_objective_is_sum_over_classes(self, rng):
        W_I = rng.standard_normal((3, 16))
        coarse = np.repeat([0, 1], 8)
        m = kmeans(W_I, 4, seed=2, coarse_labels=coarse)
        assert abs(m.objective - recompute_objective(m, W_I)) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_every_cluster_nonempty(self, seed):
        r = np.random.default_rng(seed)
        W_I = r.standard_normal((3, 18))
        coarse = r.integers(0, 2, 18)
        if np.unique(coarse).size < 2:
            coarse[0], coarse[1] = 0, 1
        m = kmeans(W_I, 5, seed=seed, coarse_labels=coarse)
        W_P = update_proxies(W_I, m)
        assert np.array_equal(np.unique(m.assignment), np.arange(5))
        assert W_P.shape == (3, 5)


def assert_matches_oracle(W_I, P, **kw):
    """The batched `kmeans` and the per-problem oracle agree: the same
    assignment, bitwise-equal proxies and the same objective (equal bits,
    so within 1e-12 relative too), or the same ValueError from the proxy
    update."""
    want = oracle_kmeans(W_I, P, **kw)
    try:
        want_W_P = update_proxies(W_I, want)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            update_proxies(W_I, kmeans(W_I, P, **kw))
        return None
    got = kmeans(W_I, P, **kw)
    got_W_P = update_proxies(W_I, got)
    assert np.array_equal(got.assignment, want.assignment)
    assert got_W_P.tobytes() == want_W_P.tobytes()
    assert got.objective == want.objective
    assert (got.P, got.within_coarse) == (want.P, want.within_coarse)
    return got


@st.composite
def clustering_problems(draw):
    """Columns to cluster, globally or within coarse classes of unequal
    sizes (so several shape groups): Gaussian, on a small integer grid
    (exact distance ties, duplicates), or all equal (every k-means++
    total is 0, so each later centre is an integers draw)."""
    d = draw(st.sampled_from([1, 2, 3, 9, 17]))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n = sum(sizes)
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["gauss", "grid", "equal"]))
    if kind == "gauss":
        W_I = r.standard_normal((d, n)) * 10.0 ** draw(st.integers(-3, 3))
    elif kind == "grid":
        W_I = r.integers(-1, 2, (d, n)).astype(np.float64)
    else:
        W_I = np.repeat(r.standard_normal((d, 1)), n, axis=1)
    kw = dict(seed=draw(st.integers(0, 2 ** 31 - 1)),
              restarts=draw(st.integers(1, 4)))
    if draw(st.booleans()):
        labels = r.permutation(np.repeat(np.arange(len(sizes)), sizes))
        kw["coarse_labels"] = labels * 3          # ids need not be 0..C-1
        P = draw(st.integers(len(sizes), n))
    else:
        P = draw(st.integers(1, n))
    return W_I, P, kw


class TestBatchedMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(clustering_problems())
    def test_random_problems(self, problem):
        W_I, P, kw = problem
        assert_matches_oracle(W_I, P, **kw)

    @pytest.mark.parametrize("per_class", ["one", "all"])
    def test_budget_extremes(self, rng, per_class):
        """P_k = 1 for every class, or P_k = n_k (zero objective)."""
        coarse = np.repeat([0, 1, 2, 3], [5, 3, 5, 1])
        W_I = rng.standard_normal((4, coarse.size))
        P = 4 if per_class == "one" else coarse.size
        m = assert_matches_oracle(W_I, P, seed=3, coarse_labels=coarse)
        assert (m.objective == 0.0) == (per_class == "all")

    def test_patch_shaped_refresh(self, rng):
        """32 classes of 16 columns and budgets 3 or 4: two shape groups of
        104 and 24 problems, as in a patch-image coinsP refresh."""
        coarse = rng.permutation(np.repeat(np.arange(32), 16))
        W_I = rng.standard_normal((16, coarse.size))
        assert_matches_oracle(W_I, 102, seed=11, coarse_labels=coarse)

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_large_clusters(self, rng, d):
        """Clusters of more than 128 / d members: NumPy's pairwise sums
        recurse, and for d = 1 a mean sums its members pairwise too."""
        W_I = rng.standard_normal((d, 400))
        for seed in range(6):
            assert_matches_oracle(W_I[:, :100 + 50 * seed], 1 + seed % 3,
                                  seed=seed, restarts=2)
        assert_matches_oracle(W_I, 5, seed=6, coarse_labels=np.arange(400) % 2)

    @pytest.mark.parametrize("far", [[2], [1, 3], [0, 2, 3]])
    def test_init_path_with_forced_repair(self, rng, far):
        """Centres far from every point are empty after the first
        assignment; the repair fills them, lowest first, each with the
        farthest point of a cluster that keeps a member."""
        W_I = rng.standard_normal((2, 12))
        init = rng.standard_normal((4, 2))
        init[far] = 1e3 * (1.0 + np.arange(len(far)))[:, None]
        m = assert_matches_oracle(W_I, 4, init=init)
        assert np.array_equal(np.unique(m.assignment), np.arange(4))

    def test_duplicate_points_repair(self):
        """Six copies of one point and two of another: seeding places
        equal centres, and the repair splits the copies."""
        W_I = np.array([[0.0] * 6 + [1.0] * 2])
        for seed in range(20):
            assert_matches_oracle(W_I, 3, seed=seed, restarts=2)

    def test_init_with_coarse_labels_rejected(self, rng):
        with pytest.raises(ValueError, match="global"):
            kmeans(rng.standard_normal((2, 6)), 2, init=np.zeros((2, 2)),
                   coarse_labels=np.repeat([0, 1], 3))

    def test_non_finite_columns_rejected(self, rng):
        W_I = rng.standard_normal((2, 6))
        W_I[1, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(W_I, 2)

    def test_duplicate_columns_leave_a_cluster_empty(self):
        """Equal columns are one point: the final assignment sends them all
        to the lowest centre, and the proxies are degenerate input."""
        with pytest.raises(DegenerateInputError,
                           match="group 1 is empty: no column is labelled 1"):
            update_proxies(np.ones((3, 6)), kmeans(np.ones((3, 6)), 3))

    def test_huge_finite_columns_rejected(self, rng):
        """A finite W_I whose squared distances would overflow is named as
        such, not met later as an empty cluster."""
        W_I = 1e160 * rng.standard_normal((2, 6))
        with np.errstate(all="raise"), pytest.raises(
                DegenerateInputError, match="W_I too large to cluster: "
                                            r"max \|w\| = \d"):
            kmeans(W_I, 3)


class TestStackBudget:
    @pytest.mark.parametrize("within", [False, True])
    @pytest.mark.parametrize("P", [30, 240])          # 240: every restart ties
    def test_sub_stacks_are_bitwise_one_stack(self, rng, monkeypatch,
                                              within, P):
        # one stack, one problem per sub-stack, and sub-stacks of three
        # (of the 4 global restarts: 3, then 1)
        W_I = rng.standard_normal((3, 240))
        labels = np.arange(240) % 3 if within else None
        n_k, P_k = (80, P // 3) if within else (240, P)
        results = []
        for budget in (1 << 40, 1, 8 * n_k * P_k * 3):
            monkeypatch.setattr(cluster, "_STACK_BYTES", budget)
            m = kmeans(W_I, P, seed=5, restarts=4, coarse_labels=labels)
            results.append((m.assignment.tobytes(), m.objective,
                            update_proxies(W_I, m).tobytes()))
        assert results[1] == results[0] and results[2] == results[0]

    def test_peak_memory_stays_under_the_budget(self, rng, monkeypatch):
        # global k-means whose distances dominate its memory: 4 restarts of
        # 500 points into 250 clusters hold 4 MB of distances in one stack;
        # under a 1.5 MiB budget a sub-stack holds one restart's 1 MB
        W_I = rng.standard_normal((2, 500))
        kmeans(W_I, 250, seed=1, restarts=4)     # first-call set-up
        budget = 1536 * 1024

        def peak():
            tracemalloc.start()
            try:
                kmeans(W_I, 250, seed=1, restarts=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() > budget
        monkeypatch.setattr(cluster, "_STACK_BYTES", budget)
        assert peak() <= budget


class _Recorder:
    """A generator that logs its draws; a choice() is logged as the one
    random() it makes."""

    def __init__(self, seed):
        self.rng, self.log = np.random.default_rng(seed), []

    def integers(self, low, high):
        self.log.append("integers")
        return self.rng.integers(low, high)

    def random(self):
        self.log.append("random")
        return self.rng.random()

    def choice(self, n, p):
        self.log.append("random")
        return self.rng.choice(n, p=p)


@pytest.mark.parametrize("d", [1, 3, 9])
def test_seeding_draws_as_a_lone_seeding(d):
    """The stacked k-means++ makes each problem's draws in the order of a
    lone seeding, integers() once every point sits on a centre, and picks
    the same centres."""
    r = np.random.default_rng(d)
    X = r.standard_normal((5, 7, d))
    X[1] = X[1, 0]                             # all equal: every total is 0
    X[2, 3:] = X[2, 0]                         # duplicates: total 0 late
    X[3] = np.round(X[3])
    P = 5
    new = [_Recorder(g) for g in range(5)]
    centres = cluster._kmeans_pp(X, P, new)
    for g in range(5):
        old = _Recorder(g)
        assert centres[g].tobytes() == _oracle_pp_init(X[g], P, old).tobytes()
        assert new[g].log == old.log
    assert "integers" in new[1].log[1:]


@pytest.mark.parametrize("within", [False, True])
def test_stacks_keep_the_lone_layout(monkeypatch, rng, within):
    """Each stacked point set has the memory order a lone problem's points
    have (W_I's columns globally, gathered rows per class), which fixes
    the order in which NumPy sums over d."""
    seen = []
    lloyd = cluster._lloyd

    def spy(X, centres, max_iters, tol):
        seen.append(X)
        return lloyd(X, centres, max_iters, tol)

    monkeypatch.setattr(cluster, "_lloyd", spy)
    W_I = rng.standard_normal((9, 20))
    coarse = np.repeat([0, 1], 10) if within else None
    kmeans(W_I, 4, coarse_labels=coarse)
    lone = (W_I[:, np.arange(10)] if within else W_I).T.astype(np.float64)
    assert seen and all(
        (X[g].flags.c_contiguous, X[g].flags.f_contiguous)
        == (lone.flags.c_contiguous, lone.flags.f_contiguous)
        for X in seen for g in range(X.shape[0]))


@pytest.mark.parametrize("max_iters, message", [
    (5, "objective increased$"),
    (1, "objective increased at finalization$")])
def test_objective_increase_is_invariant_error(monkeypatch, rng, max_iters,
                                                message):
    """Each call of the mean step reports an objective 1 higher than the
    last: the first Lloyd iteration that follows another, or else the
    final re-assignment, sees an increase."""
    means, calls = cluster._means, []

    def rising(X, assign, P):
        centres, obj = means(X, assign, P)
        calls.append(None)
        return centres, obj + len(calls)

    monkeypatch.setattr(cluster, "_means", rising)
    W_I = rng.standard_normal((3, 12))
    with pytest.raises(InvariantError, match=message):
        kmeans(W_I, 3, restarts=1, max_iters=max_iters, tol=-1.0)
