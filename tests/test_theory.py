import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coarse2fine import numerics, theory
from coarse2fine.evaluate import fine_class_prob
from coarse2fine.numerics import DegenerateInputError, InvariantError
from coarse2fine.theory import (BoundReport, DomainError,
                                NonUniformClassSizeError, log_h_factor,
                                measure_constants, uniform_z, verify_lemma1,
                                verify_theorem)
from conftest import bound_report_dict


def per_row_logsumexp(v):
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def per_row_constants(emb, W_C, W_I, coarse, mode):
    """Reference oracle: log alpha, log beta, log a, log b from one
    logsumexp per example, with the own column deleted for a and b."""
    n = emb.shape[0]
    out = {"log_alpha": np.inf, "log_beta": np.inf,
           "log_a": np.inf, "log_b": np.inf}
    for i in range(n):
        cols = (np.arange(n) if mode == "theorem1"
                else np.nonzero(coarse == coarse[i])[0])
        heads = (("alpha", "a", emb[i] @ W_I[:, cols],
                  int(np.nonzero(cols == i)[0][0])),
                 ("beta", "b", emb[i] @ W_C, int(coarse[i])))
        for prob, resid, row, own in heads:
            rest = np.delete(row, own)
            out["log_" + prob] = min(out["log_" + prob],
                                     row[own] - per_row_logsumexp(row))
            out["log_" + resid] = min(
                out["log_" + resid],
                per_row_logsumexp(rest) if rest.size else -np.inf)
    return out


def per_class_theorem2(emb, W_I, coarse):
    """Reference: theorem 2's (log alpha, log a) one coarse class at a time,
    as measure_constants took them before it stacked the classes of one
    size: each class's rows against its own columns, in the `index_blocks`
    of _ROW_BLOCK rows. DomainError when alpha is exactly 1."""
    log_alpha = log_a = np.inf
    order, starts, counts = numerics.group_by_label(coarse)
    for k in np.flatnonzero(counts):
        members = order[starts[k]:starts[k] + counts[k]]
        E, W = emb[members], W_I[:, members]
        for block in numerics.index_blocks(members.size, numerics._ROW_BLOCK):
            blk = np.arange(block.start, block.stop)
            L = np.empty((blk.size, members.size))
            rows = np.arange(blk.size)
            np.matmul(E[blk], W, out=L)
            own = L[rows, blk]
            L[rows, blk] = -np.inf
            _, m, total = numerics.softmax_core(L)
            with np.errstate(divide="ignore"):
                rest = m[:, 0] + np.log(total[:, 0])
            log_alpha = min(log_alpha, float(np.min(
                own - np.logaddexp(own, rest))))
            log_a = min(log_a, float(np.min(rest)))
    if log_alpha >= 0.0:
        raise DomainError("alpha is exactly 1")
    return log_alpha, log_a


def float_bits(*values):
    return [int(np.float64(v).view(np.int64)) for v in values]


def random_instance(rng, n=12, C=2, F=4, d=4, scale=0.6):
    """Random embeddings/heads with uniform fine-class size and nested labels."""
    assert n % F == 0 and F % C == 0
    emb = scale * rng.standard_normal((n, d))
    W_C = scale * rng.standard_normal((d, C))
    W_I = scale * rng.standard_normal((d, n))
    fine = np.repeat(np.arange(F), n // F)
    coarse = fine % C
    return emb, W_C, W_I, coarse, fine


class TestUniformZ:
    def test_uniform(self):
        assert uniform_z(np.array([0, 0, 1, 1, 2, 2])) == 2

    def test_non_uniform_rejected(self):
        with pytest.raises(NonUniformClassSizeError):
            uniform_z(np.array([0, 0, 0, 1, 1, 1, 2]))
        # a skipped fine id is a class of size 0
        with pytest.raises(NonUniformClassSizeError, match="from 0 to 2"):
            uniform_z(np.array([0, 0, 2, 2, 3, 3]))


class TestMeasureConstants:
    def test_orthogonal_unit_pair(self):
        emb = np.eye(2)
        W_I = np.eye(2)
        W_C = 0.5 * np.eye(2)
        k = measure_constants(emb, W_C, W_I, np.array([0, 1]),
                              np.array([0, 1]))
        assert abs(k.alpha - math.e / (math.e + 1)) < 1e-12
        assert k.c == 1.0
        assert abs(math.exp(k.log_a) - 1.0) < 1e-12
        assert k.z == 1 and k.M == 1

    def test_c_is_max_norm(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        k = measure_constants(emb, W_C, W_I, coarse, fine)
        direct = max(np.linalg.norm(emb, axis=1).max(),
                     np.linalg.norm(W_I, axis=0).max(),
                     np.linalg.norm(W_C, axis=0).max())
        assert abs(k.c - direct) < 1e-15

    def test_matches_brute_force_both_modes(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        n = emb.shape[0]
        for mode in ("theorem1", "theorem2"):
            k = measure_constants(emb, W_C, W_I, coarse, fine, mode=mode)
            alphas, residuals = [], []
            for i in range(n):
                cols = (np.arange(n) if mode == "theorem1"
                        else np.nonzero(coarse == coarse[i])[0])
                expv = np.exp(emb[i] @ W_I[:, cols])
                own = expv[np.nonzero(cols == i)[0][0]]
                alphas.append(own / expv.sum())
                residuals.append(expv.sum() - own)
            betas, b_res = [], []
            for i in range(n):
                expv = np.exp(emb[i] @ W_C)
                betas.append(expv[coarse[i]] / expv.sum())
                b_res.append(expv.sum() - expv[coarse[i]])
            assert abs(k.alpha - min(alphas)) < 1e-12
            assert abs(k.beta - min(betas)) < 1e-12
            assert abs(math.exp(k.log_a) - min(residuals)) < 1e-12
            assert abs(math.exp(k.log_b) - min(b_res)) < 1e-12
            counts = np.bincount(coarse)
            assert k.M == n - counts[coarse].min()

    @pytest.mark.parametrize("block", [1, 3, 128])
    @pytest.mark.parametrize("shape", [
        dict(n=12, C=2, F=4), dict(n=12, C=3, F=12),    # z = 1
        dict(n=10, C=1, F=5),                           # one coarse class
        dict(n=30, C=5, F=10, d=6, scale=1.5)])
    def test_matches_per_row_oracle(self, rng, monkeypatch, block, shape):
        # the walker's passes in blocks of _ROW_BLOCK // 2 rows (at least 1)
        monkeypatch.setattr(numerics, "_ROW_BLOCK", block)
        monkeypatch.setattr(numerics, "_BLOCK_CELLS", 0)
        emb, W_C, W_I, coarse, fine = random_instance(rng, **shape)
        if shape["C"] == 1:     # a second coarse column that no label uses
            W_C = np.hstack([W_C, rng.standard_normal((W_C.shape[0], 1))])
        got = {}
        for mode in ("theorem1", "theorem2"):
            want = per_row_constants(emb, W_C, W_I, coarse, mode)
            got[mode] = measure_constants(emb, W_C, W_I, coarse, fine, mode)
            for name, value in want.items():
                assert getattr(got[mode], name) == pytest.approx(
                    value, rel=1e-12, abs=0), name
        if shape["C"] == 1:
            assert got["theorem2"].log_a == pytest.approx(
                got["theorem1"].log_a, rel=1e-15, abs=0)

    def test_empty_rest_gives_log_a_minus_inf(self, rng):
        # z = 1 and example 4 alone in its coarse class: its within-coarse
        # softmax has no other column (alpha = 1 there, so the min alpha
        # comes from another example) and log a = -inf
        emb, W_C, W_I, _, fine = random_instance(rng, n=5, C=1, F=5)
        W_C = np.hstack([W_C, W_C[:, ::-1]])
        coarse = np.array([0, 0, 0, 0, 1])
        want = per_row_constants(emb, W_C, W_I, coarse, "theorem2")
        got = measure_constants(emb, W_C, W_I, coarse, fine, "theorem2")
        assert want["log_a"] == got.log_a == -np.inf
        assert got.log_alpha == pytest.approx(want["log_alpha"], rel=1e-12)
        assert got.log_b == pytest.approx(want["log_b"], rel=1e-12)

    def test_non_finite_row_named(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        emb[7, 2] = -np.inf
        with pytest.raises(DegenerateInputError, match="row 7 "):
            measure_constants(emb, W_C, W_I, coarse, fine)

    def test_within_coarse_alpha_never_smaller(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        k1 = measure_constants(emb, W_C, W_I, coarse, fine, "theorem1")
        k2 = measure_constants(emb, W_C, W_I, coarse, fine, "theorem2")
        # dropping out-of-class columns removes softmax competitors
        assert k2.log_alpha >= k1.log_alpha - 1e-12

    def test_non_uniform_z_rejected(self, rng):
        emb = rng.standard_normal((3, 2))
        with pytest.raises(NonUniformClassSizeError):
            measure_constants(emb, rng.standard_normal((2, 2)),
                              rng.standard_normal((2, 3)),
                              np.array([0, 0, 1]), np.array([0, 0, 1]))

    def test_saturated_softmax_rejected(self):
        # logits so large the own-class probability rounds to exactly 1
        emb = 100.0 * np.eye(2)
        k = dict(W_C=0.5 * np.eye(2), coarse_labels=np.array([0, 1]),
                 fine_labels=np.array([0, 1]))
        with pytest.raises(DomainError):
            measure_constants(emb, k["W_C"], 100.0 * np.eye(2),
                              k["coarse_labels"], k["fine_labels"])

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 128])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sizes=st.lists(st.one_of(st.integers(1, 300), st.integers(1, 6)),
                          min_size=1, max_size=8),
           kind=st.sampled_from(["normal", "grid", "duplicate"]),
           d=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @example(sizes=[1, 1, 1, 1], kind="normal", d=2, seed=0)
    @example(sizes=[1] * 40, kind="grid", d=1, seed=1)
    def test_stacks_match_per_class_loop(self, monkeypatch, block, sizes,
                                         kind, d, seed):
        """Theorem 2's constants from the stacks of equal-size classes are
        the per-class loop's bit for bit: unequal sizes from 1 to 300 (a
        class of more than _ROW_BLOCK rows takes several blocks), labels in
        shuffled order, exact ties from grid values, duplicated rows and
        columns; all-singleton classes raise DomainError on both sides."""
        monkeypatch.setattr(numerics, "_ROW_BLOCK", block)
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        coarse = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        if kind == "normal":
            emb, W_I = rng.standard_normal((n, d)), rng.standard_normal((d, n))
        elif kind == "grid":                    # many exactly tied logits
            emb = 0.5 * rng.integers(-2, 3, (n, d))
            W_I = 0.5 * rng.integers(-2, 3, (d, n))
        else:                                   # a pool of three vectors
            pool = rng.standard_normal((3, d))
            emb = pool[rng.integers(0, 3, n)]
            W_I = np.ascontiguousarray(pool[rng.integers(0, 3, n)].T)
        W_C = 0.5 * rng.standard_normal((d, len(sizes) + 1))
        fine = np.arange(n)                     # z = 1 nests in any coarse
        try:
            want = per_class_theorem2(emb, W_I, coarse)
        except DomainError:
            with pytest.raises(DomainError):
                measure_constants(emb, W_C, W_I, coarse, fine, "theorem2")
            return
        got = measure_constants(emb, W_C, W_I, coarse, fine, "theorem2")
        assert float_bits(got.log_alpha, got.log_a) == float_bits(*want)


def overflow_case():
    """256 rows, d = 2: rows 0-127 at (1, 1), whose logits against W_C's two
    1e308 columns overflow, so the 86 of them whose coarse label (i mod 3)
    is one of those columns have a NaN log probability; rows 128-255 at 0
    give log(1/3). (emb, W_C, W_I, coarse, fine)."""
    n = 256
    emb = np.zeros((n, 2))
    emb[:128] = 1.0
    W_C = np.array([[1e308, 1e308, 0.1], [1e308, 1e308, 0.2]])
    W_I = 0.1 * np.random.default_rng(0).standard_normal((2, n))
    return emb, W_C, W_I, np.arange(n) % 3, np.arange(n)


class TestNaNConstants:
    """A constant over rows of which some are NaN is NaN, and
    measure_constants names it in a DomainError: no block of rows drops out
    of a minimum, and no NaN constant reaches a report."""

    @pytest.mark.parametrize("mode", ["theorem1", "theorem2"])
    def test_nan_beta_raises(self, mode):
        with pytest.raises(DomainError, match="^log beta is NaN"):
            measure_constants(*overflow_case(), mode)

    @pytest.mark.parametrize("mode", ["theorem1", "theorem2"])
    def test_nan_alpha_raises(self, mode):
        # W_I columns 0 and 3 (coarse class 0, whose 86 members come after
        # the two classes of 85 in theorem 2's stacks) overflow for rows 0
        # and 3, each with its own column among them
        emb, _, W_I, coarse, fine = overflow_case()
        W_I[:, [0, 3]] = 1e308
        W_C = 0.1 * np.ones((2, 3))
        with pytest.raises(DomainError, match="^log alpha is NaN"):
            measure_constants(emb, W_C, W_I, coarse, fine, mode)

    def test_nan_first_block_of_a_stack_is_kept(self, monkeypatch):
        # blocks of 2 rows: rows 0 and 3, class 0's first two members, make
        # the first block of its stack NaN, and every later block is finite
        emb, _, W_I, coarse, fine = overflow_case()
        W_I[:, [0, 3]] = 1e308
        monkeypatch.setattr(numerics, "_ROW_BLOCK", 2)
        with pytest.raises(DomainError, match="^log alpha is NaN"):
            measure_constants(emb, 0.1 * np.ones((2, 3)), W_I, coarse, fine,
                              "theorem2")


def log_h(c, alpha, beta, a, b, z):
    return log_h_factor(c, math.log(alpha), math.log(beta), math.log(a),
                        math.log(b), z)


class TestHFactor:
    def test_z_one_is_one(self):
        assert log_h(2.0, 0.3, 0.4, 1.5, 2.5, 1) == 0.0

    def test_hand_computed_instance(self):
        got = log_h(1.0, 0.5, 0.5, 1.0, 1.0, 2)
        assert abs(got - (-2 * math.sqrt(2))) < 1e-12

    def test_decreasing_in_c(self):
        vals = [log_h(c, 0.4, 0.4, 1.0, 1.0, 3)
                for c in np.linspace(1.0, 4.0, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self, rng):
        for _ in range(50):
            # keep both square-root arguments positive: 2c^2 must dominate
            # 2 log(a * alpha / (1 - alpha))
            c = float(rng.uniform(1.5, 3))
            alpha, beta = rng.uniform(0.05, 0.7, 2)
            a, b = rng.uniform(0.1, 1.5, 2)
            z = int(rng.integers(1, 6))
            h = math.exp(log_h(c, alpha, beta, a, b, z))
            assert 0.0 < h <= 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_h_factor(1.0, 0.0, math.log(0.5), 0.0, 0.0, 2)
        # 2c^2 = 0 cannot cover 2 log(a alpha / (1 - alpha)) = 10
        with pytest.raises(DomainError, match="inconsistent"):
            log_h_factor(0.0, math.log(0.5), math.log(0.5), 5.0, 0.0, 2)


class TestVerifyLemma1:
    def test_z_one_jensen_equality(self, rng):
        emb, _, W_I, _, _ = random_instance(rng, n=8, C=2, F=8)
        report = verify_lemma1(emb, W_I, np.arange(8))
        assert abs(report.jensen_slack_min) < 1e-12
        assert report.jensen_ok and report.lemma_ok

    def test_identical_columns_jensen_equality(self, rng):
        emb = rng.standard_normal((6, 3))
        base = rng.standard_normal((3, 3))
        W_I = np.repeat(base, 2, axis=1)  # each fine class shares a column
        report = verify_lemma1(emb, W_I, np.repeat(np.arange(3), 2))
        assert abs(report.jensen_slack_min) < 1e-12

    def test_random_instances_hold(self, rng):
        for _ in range(30):
            emb, _, W_I, _, fine = random_instance(rng)
            report = verify_lemma1(emb, W_I, fine)
            assert report.jensen_ok and report.lemma_ok

    @pytest.mark.parametrize("F", [6, 8, 12])        # z = 4, 3, 2
    def test_lemma1_matches_paper_formula(self, rng, F):
        # per example i of fine class s(i): lhs = Pr{s(i) | f_i} over the
        # proxies wbar_s, rhs = z alpha exp(f_i.wbar_s(i) - f_i.w_i); the
        # Jensen slack of every (i, s) is log((1/z) sum_{j in s}
        # exp(f_i.w_j)) - f_i.wbar_s. Every quantity is measured by brute
        # force, lhs and rhs in linear space. The pin is 1e-12 relative to
        # the value or 1, whichever is larger: at z = 2 the least Jensen
        # slack is about 4e-7, a difference of two logits of order 1
        emb, _, W_I, _, fine = random_instance(rng, n=24, C=2, F=F)
        z = 24 // F
        inst = emb @ W_I
        alpha = min(math.exp(inst[i, i]) / np.exp(inst[i]).sum()
                    for i in range(24))
        proxy = emb @ np.stack([W_I[:, fine == s].mean(axis=1)
                                for s in range(F)], axis=1)
        lemma, jensen = [], []
        for i in range(24):
            own = proxy[i, fine[i]]
            lhs = math.exp(own) / np.exp(proxy[i]).sum()
            rhs = z * alpha * math.exp(own - inst[i, i])
            lemma.append(math.log(lhs / rhs))
            jensen += [math.log(np.exp(inst[i, fine == s]).sum() / z)
                       - proxy[i, s] for s in range(F)]
        report = verify_lemma1(emb, W_I, fine)
        for got, want in ((report.lemma_slack_min, min(lemma)),
                          (report.jensen_slack_min, min(jensen)),
                          (report.log_alpha, math.log(alpha))):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert report.lemma_ok and report.jensen_ok


def test_fine_class_probability_and_alpha_agree_across_paths(rng):
    # eval, theorem 1 and lemma 1 read one fine-class pass and one alpha
    emb, W_C, W_I, coarse, fine = random_instance(rng, n=24, C=2, F=6)
    report = verify_theorem(emb, W_C, W_I, coarse, fine, which=1)
    np.testing.assert_allclose(np.exp(report.log_lhs),
                               fine_class_prob(emb, W_I, fine),
                               rtol=1e-13, atol=0)
    lemma = verify_lemma1(emb, W_I, fine)
    assert lemma.lemma_ok and lemma.jensen_ok
    assert lemma.log_alpha == report.log_alpha


class TestVerifyTheorem:
    def test_z_one_rhs_equals_alpha(self, rng):
        emb, W_C, W_I, coarse, _ = random_instance(rng, n=12, C=3, F=12)
        fine = np.arange(12)
        report = verify_theorem(emb, W_C, W_I, coarse, fine, which=1)
        assert report.h == 1.0
        np.testing.assert_allclose(report.log_rhs, np.log(report.alpha),
                                   atol=1e-12)
        assert report.all_hold

    @pytest.mark.parametrize("F", [6, 8, 12])        # z = 4, 3, 2
    def test_theorem1_rhs_matches_paper_formula(self, rng, F):
        # per example, rhs = alpha z h with
        # h = exp(-2c (z-1)/z [sqrt(2c^2 - 2 log(a alpha / (1 - alpha)))
        #                      + sqrt(2c^2 - 2 log(b beta / (1 - beta)))]),
        # every constant measured by brute force and the formula in
        # linear space
        emb, W_C, W_I, coarse, fine = random_instance(rng, n=24, C=2, F=F)
        k = per_row_constants(emb, W_C, W_I, coarse, "theorem1")
        alpha, beta = math.exp(k["log_alpha"]), math.exp(k["log_beta"])
        a, b = math.exp(k["log_a"]), math.exp(k["log_b"])
        c = max(np.linalg.norm(emb, axis=1).max(),
                np.linalg.norm(W_I, axis=0).max(),
                np.linalg.norm(W_C, axis=0).max())
        z = 24 // F
        root = (math.sqrt(2 * c * c - 2 * math.log(a * alpha / (1 - alpha)))
                + math.sqrt(2 * c * c - 2 * math.log(b * beta / (1 - beta))))
        h = math.exp(-2 * c * (z - 1) / z * root)
        report = verify_theorem(emb, W_C, W_I, coarse, fine, which=1)
        assert len(report.log_rhs) == 24
        np.testing.assert_allclose(report.log_rhs, math.log(alpha * z * h),
                                   rtol=1e-12, atol=0)
        assert abs(report.h - h) <= 1e-12 * h

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_theorem2_rhs_matches_paper_formula(self, seed):
        # theorem 2 with the within-coarse constants: per example,
        # rhs = alpha' z h with c' = exp(2c S), c'' = M c',
        # alpha' = 1 / (1/alpha + (1 - beta) c'' / beta) and h taken at
        # alpha', where S is the sum of square roots in h's exponent at
        # alpha. Every constant measured by brute force, the formula in
        # linear space
        emb, W_C, W_I, coarse, fine = random_instance(
            np.random.default_rng(seed), n=24, C=2, F=6, scale=0.3)
        k = per_row_constants(emb, W_C, W_I, coarse, "theorem2")
        alpha, beta = math.exp(k["log_alpha"]), math.exp(k["log_beta"])
        a, b = math.exp(k["log_a"]), math.exp(k["log_b"])
        c = max(np.linalg.norm(emb, axis=1).max(),
                np.linalg.norm(W_I, axis=0).max(),
                np.linalg.norm(W_C, axis=0).max())
        z = 24 // 6
        M = 24 - np.bincount(coarse).min()

        def root_sum(alpha):
            return (math.sqrt(2 * c * c - 2 * math.log(a * alpha / (1 - alpha)))
                    + math.sqrt(2 * c * c - 2 * math.log(b * beta / (1 - beta))))

        c_prime = math.exp(2 * c * root_sum(alpha))
        c_dp = M * c_prime
        alpha_prime = 1 / (1 / alpha + (1 - beta) * c_dp / beta)
        h = math.exp(-2 * c * (z - 1) / z * root_sum(alpha_prime))
        report = verify_theorem(emb, W_C, W_I, coarse, fine, which=2)
        assert report.M == M and report.z == z
        for got, want in ((report.c_prime, c_prime),
                          (report.c_doubleprime, c_dp),
                          (report.alpha_prime, alpha_prime)):
            assert abs(got - want) <= 1e-12 * want
        assert len(report.log_rhs) == 24
        np.testing.assert_allclose(report.log_rhs,
                                   math.log(alpha_prime * z * h),
                                   rtol=1e-12, atol=0)

    def test_identical_columns_symmetry(self, rng):
        n, F, d = 8, 4, 3
        emb = 0.5 * rng.standard_normal((n, d))
        W_I = np.tile(rng.standard_normal((d, 1)), (1, n))
        W_C = 0.5 * rng.standard_normal((d, 2))
        fine = np.repeat(np.arange(F), n // F)
        coarse = fine % 2
        report = verify_theorem(emb, W_C, W_I, coarse, fine, which=1)
        np.testing.assert_allclose(np.exp(report.log_lhs), 1.0 / F,
                                   atol=1e-12)
        assert abs(report.alpha - 1.0 / n) < 1e-12
        assert report.all_hold

    def test_random_instances_hold_both_theorems(self, rng):
        for _ in range(30):
            emb, W_C, W_I, coarse, fine = random_instance(rng)
            for which in (1, 2):
                report = verify_theorem(emb, W_C, W_I, coarse, fine, which)
                assert report.all_hold
                rhs = np.exp(report.log_rhs)
                assert report.slack_log_min >= -1e-9
                assert np.all(np.exp(report.log_lhs)
                              >= rhs * (1 - 1e-9))

    def test_alpha_prime_above_alpha_is_invariant_error(self, rng,
                                                         monkeypatch):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        monkeypatch.setattr(theory, "logaddexp", lambda a, b: a - 1.0)
        with pytest.raises(InvariantError, match="alpha' exceeds alpha"):
            verify_theorem(emb, W_C, W_I, coarse, fine, which=2)

    def test_theorem2_extras_and_relaxation_cost(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        report = verify_theorem(emb, W_C, W_I, coarse, fine, which=2)
        assert report.c_prime is not None and report.c_doubleprime is not None
        assert abs(report.c_doubleprime - report.c_prime * report.M) \
            <= 1e-6 * report.c_doubleprime
        assert report.alpha_prime <= report.alpha + 1e-15
        payload = json.loads(report.to_json())
        for key in ("c_prime", "c_doubleprime", "alpha_prime"):
            assert key in payload
        assert len(payload["per_example"]) == emb.shape[0]

    def test_alpha_prime_ratio_increases_with_beta(self, monkeypatch):
        # alpha' = 1 / (1/alpha + (1-beta) c'' / beta): better coarse
        # separation (larger beta) shrinks the relaxation penalty. The
        # measured constants of one instance, with beta changed and b
        # moved so that b beta / (1 - beta), and with it c'', stays
        def log_odds(log_p):
            return log_p - math.log(-math.expm1(log_p))

        emb, W_C, W_I, coarse, fine = random_instance(
            np.random.default_rng(0), n=24, C=2, F=6, scale=0.3)
        k = measure_constants(emb, W_C, W_I, coarse, fine, "theorem2")
        reports = []
        for beta in (0.3, 0.6, 0.9):
            log_b = k.log_b + log_odds(k.log_beta) - log_odds(math.log(beta))
            moved = dataclasses.replace(k, log_beta=math.log(beta),
                                        log_b=log_b)
            monkeypatch.setattr(theory, "measure_constants",
                                lambda *args, moved=moved: moved)
            reports.append(verify_theorem(emb, W_C, W_I, coarse, fine, 2))
        assert [r.beta for r in reports] == pytest.approx([0.3, 0.6, 0.9])
        c_dp = reports[0].c_doubleprime
        assert [r.c_doubleprime for r in reports] == pytest.approx([c_dp] * 3)
        ratios = [r.alpha_prime / r.alpha for r in reports]
        assert 0 < ratios[0] < ratios[1] < ratios[2] < 1

    def test_bad_theorem_number(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        with pytest.raises(ValueError):
            verify_theorem(emb, W_C, W_I, coarse, fine, which=3)

    def test_report_serializes_to_plain_types(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        for which in (1, 2):
            report = verify_theorem(emb, W_C, W_I, coarse, fine, which)
            # json.dumps raises on non-JSON types
            assert report.to_json() == json.dumps(bound_report_dict(report),
                                                  indent=2)

    def test_instance_head_size_mismatch_names_both_counts(self, rng):
        emb, W_C, W_I, coarse, fine = random_instance(rng)
        n = emb.shape[0]
        with pytest.raises(ValueError, match=f"W_I has {n + 1} instance "
                           f"columns, the data set has {n} examples"):
            verify_theorem(emb, W_C, np.hstack([W_I, W_I[:, :1]]), coarse,
                           fine, which=1)


# log values whose linear text is special: exp overflows past 709.78, and
# underflows to 0.0 below -745.2
_LOG_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-800.0, 800.0),
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0, 709.78, 709.79,
                     -745.2, 1e308]))


@st.composite
def bound_reports(draw):
    """BoundReports of either theorem with any float in any field, and
    per-example lists from empty to a few hundred entries."""
    which = draw(st.sampled_from([1, 2]))
    n = draw(st.one_of(st.just(0), st.integers(1, 300)))
    if draw(st.booleans()):    # one value repeated, as verify_theorem's rhs
        log_rhs = [draw(_LOG_VALUES)] * n
    else:
        log_rhs = draw(st.lists(_LOG_VALUES, min_size=n, max_size=n))
    scalar = _LOG_VALUES
    extras = {}
    if which == 2:
        extras = {key: draw(st.one_of(st.none(), scalar)) for key in
                  ("c_prime", "c_doubleprime", "alpha_prime",
                   "log_alpha_prime")}
    return BoundReport(
        theorem=which, alpha=draw(scalar), beta=draw(scalar), a=draw(scalar),
        b=draw(scalar), c=draw(scalar), z=draw(st.integers(1, 10 ** 6)),
        M=draw(st.integers(0, 10 ** 6)), h=draw(scalar),
        log_alpha=draw(scalar), log_a=draw(scalar), log_b=draw(scalar),
        log_lhs=draw(st.lists(_LOG_VALUES, min_size=n, max_size=n)),
        log_rhs=log_rhs, all_hold=draw(st.booleans()),
        slack_min=draw(scalar), slack_log_min=draw(scalar),
        vacuous=draw(st.booleans()), **extras)


@settings(max_examples=60, deadline=None)
@given(bound_reports())
# -0.0 and 0.0 compare equal but have their own texts
@example(BoundReport(theorem=1, alpha=0.5, beta=0.5, a=1.0, b=1.0, c=1.0,
                     z=2, M=0, h=1.0, log_alpha=-0.0, log_a=0.0, log_b=0.0,
                     log_lhs=[-0.0, 0.0, -0.0], log_rhs=[0.0, -0.0, 0.0],
                     all_hold=True, slack_min=0.0, slack_log_min=-0.0,
                     vacuous=False))
def test_report_text_equals_indented_json(report):
    """to_json writes the bytes json.dumps(..., indent=2) writes for the
    report's dict, with Infinity, NaN and empty lists."""
    assert report.to_json() == json.dumps(bound_report_dict(report), indent=2)
