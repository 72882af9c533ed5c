import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse2fine import losses, model, trainer
from coarse2fine.cluster import update_proxies
from coarse2fine.cli import synth_train_config
from coarse2fine.data import (Dataset, augment, gen_blob_dataset,
                              gen_patch_dataset)
from coarse2fine.losses import (WI_READS, build_coarse_index, coarse_loss,
                                combined_objective, instance_loss_full)
from coarse2fine.model import init_params, param_arrays
from coarse2fine.numerics import buffer
from coarse2fine.trainer import (TrainConfig, apply_gradients, lr_at,
                                 param_vector, set_param_vector, sgd_step,
                                 train)
from conftest import ce_block_oracle, make_params


def zero_velocities(params):
    """The SGD velocities `train` starts from, by `param_arrays` name."""
    return {name: np.zeros_like(a) for name, a in param_arrays(params).items()}


def small_blob_config(objective, epochs, **kw):
    """Stable hyperparameters for quick training runs on blob data."""
    base = dict(objective=objective, epochs=epochs, lr=0.003, momentum=0.9,
                weight_decay=5e-4, lr_decay_epochs=[20, 25],
                lr_decay_factor=5.0, batch_size=64, seed=0,
                hidden=[64], embed_dim=32)
    base.update(kw)
    return TrainConfig(**base)


@pytest.mark.parametrize("module, name", [
    *[(trainer, name) for name in ("kmeans", "update_proxies",
                                   "encode_backward", "augment",
                                   "apply_gradients", "objective",
                                   "_epoch_metrics")],
    (losses, "encode"), (losses, "branch_backward")])
def test_benchmark_tracer_seams_exist(module, name):
    """perfbench/tracer.py times these layers by wrapping the module-level
    names that `train` and `objective` call; a renamed one reads 0 there."""
    assert callable(getattr(module, name))


class TestSgdStep:
    def test_two_hand_computed_steps(self):
        p = np.array([0.0])
        v = np.array([0.0])
        sgd_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9,
                 weight_decay=0.0)
        sgd_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9,
                 weight_decay=0.0)
        assert abs(p[0] - (-0.29)) < 1e-15

    def test_weight_decay_shrinks_param(self):
        p = np.array([2.0])
        sgd_step(p, np.array([0.0]), np.array([0.0]), lr=0.1, momentum=0.0,
                 weight_decay=0.5)
        assert abs(p[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9, 0.0)

    def test_non_contiguous_param_rejected(self):
        p = np.zeros((3, 4)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            sgd_step(p, np.zeros((4, 3)), np.zeros((4, 3)), 0.1, 0.9, 0.0)

    S = trainer._SGD_SLICE

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 5, S - 1, S, S + 1, 2 * S, 3 * S - 7]),
           st.integers(1, 3), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.0, 5e-4, 0.3]), st.sampled_from([0.0, 0.9]),
           st.booleans())
    def test_bitwise_equal_to_unsliced_formula(self, size, width, seed, wd,
                                               momentum, own_ws):
        r = np.random.default_rng(seed)
        shape = (width, size)
        p, g, v = (r.standard_normal(shape) for _ in range(3))
        p_ref, v_ref = p.copy(), v.copy()
        g_ref = g + wd * p_ref
        v_ref *= momentum
        v_ref += g_ref
        p_ref -= 0.037 * v_ref
        ws = {} if own_ws else None
        out = sgd_step(p, g, v, 0.037, momentum, wd, ws)
        assert out[0] is p and out[1] is v
        if own_ws:
            assert ws["sgd"].size == min(p.size, self.S)
        assert p.tobytes() == p_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()


class TestLrSchedule:
    def test_factor_applied_per_passed_milestone(self):
        cfg = TrainConfig(epochs=200, lr=0.1, lr_decay_epochs=[60, 120],
                          lr_decay_factor=5.0)
        assert lr_at(cfg, 0) == 0.1
        assert lr_at(cfg, 59) == 0.1
        assert abs(lr_at(cfg, 60) - 0.1 / 5) < 1e-15
        assert abs(lr_at(cfg, 130) - 0.1 / 25) < 1e-15

    def test_epoch_out_of_range(self):
        cfg = TrainConfig(epochs=10)
        with pytest.raises(ValueError):
            lr_at(cfg, 10)
        with pytest.raises(ValueError):
            lr_at(cfg, -1)


class TestConfigValidate:
    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objective="nope").validate()

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0).validate()

    def test_decay_epochs_must_increase(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_epochs=[60, 60]).validate()

    def test_proxy_phase_start_defaults_to_half(self):
        assert TrainConfig(epochs=30).m_epoch(30) == 15
        assert TrainConfig(ip_start_epoch=7).m_epoch(30) == 7


class TestApplyGradients:
    def test_no_weight_decay_on_biases(self, rng):
        params = make_params(rng, C=1)
        for i, (W, b) in enumerate(params.encoder):
            params.encoder[i] = (W, b + 1.0)
        biases_before = [b.copy() for _, b in params.encoder]
        weights_before = [W.copy() for W, _ in params.encoder]
        # single coarse class: loss and every gradient are exactly zero,
        # so any movement comes from weight decay alone
        lv = coarse_loss(params, rng.standard_normal((3, 4)), np.zeros(3, int))
        assert lv.value == 0.0
        apply_gradients(params, lv, zero_velocities(params), lr=0.1,
                        momentum=0.0, weight_decay=0.5)
        for (W, b), b0, W0 in zip(params.encoder, biases_before,
                                  weights_before):
            np.testing.assert_array_equal(b, b0)
            np.testing.assert_allclose(W, W0 * (1 - 0.1 * 0.5), atol=1e-15)

    def test_proxy_gradients_discarded(self, rng):
        from coarse2fine.cluster import Membership
        from coarse2fine.losses import instance_proxy_loss
        params = make_params(rng, n=4, with_proxy=2)
        W_P_before = params.W_P.copy()
        m = Membership(assignment=np.array([0, 0, 1, 1]), P=2,
                       within_coarse=False, objective=0.0)
        lv = instance_proxy_loss(params, rng.standard_normal((2, 4)),
                                 np.array([0, 3]), m)
        apply_gradients(params, lv, zero_velocities(params), lr=0.1,
                        momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(params.W_P, W_P_before)

    @staticmethod
    def transient_peak(step, batches):
        """Peak memory that step(b) allocates under tracemalloc for the last
        of `batches`, once the steps of the others have made the workspace
        buffers."""
        for b in batches[:-1]:
            step(b)
        tracemalloc.start()
        try:
            step(batches[-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_step_with_scratch_allocates_no_head_sized_array(self):
        # blob-coins' shape: B = 64 of n = 2048, d = 32. Once the first step
        # has made the buffers, a step's transient numpy memory stays below
        # the 1 MiB of one B x n logits array
        n, B = 2048, 64
        rng = np.random.default_rng(0)
        params = init_params(64, [128], 32, 16, n, seed=0)
        X = rng.standard_normal((n, 64))
        coarse = np.arange(n) % 16
        vel, run_ws, epoch_ws = zero_velocities(params), {}, {}

        def step(b):
            ids = np.arange(b * B, (b + 1) * B)
            lv = losses.objective(params, X[ids], ids,
                                  {"coarse": 1.0, "instance": 1.0},
                                  coarse[ids], ws=epoch_ws)
            apply_gradients(params, lv, vel, 0.01, 0.9, 5e-4, run_ws)

        assert self.transient_peak(step, (0, 1)) < 512 * 1024

    def test_patch_step_allocates_below_the_mmap_threshold(self):
        # the comparison's shape: 32 x 32 images, so a 3072 x 64 first
        # layer, B = 32 and the coins-imp terms. Once an epoch's steps have
        # made the buffers (the within-coarse ones are sized by the largest
        # class a batch holds), a step (augment, objective, update) makes
        # no array above glibc's 128 KiB mmap threshold, the rule of
        # README's "Memory in the hot loops"
        data = gen_patch_dataset(256, 32, 128, seed=0)
        cfg = synth_train_config("coins-imp", seed=1)
        params = init_params(data.dim, cfg.hidden, cfg.embed_dim, data.C,
                             data.n, seed=1)
        assert params.encoder[0][0].shape == (3072, 64)
        index = build_coarse_index(data.coarse_labels)
        terms = trainer.objective_terms(cfg, proxy_phase=False)
        rng = np.random.default_rng(2)
        vel, run_ws, epoch_ws = zero_velocities(params), {}, {}
        B = cfg.batch_size

        def step(b):
            ids = np.arange(b * B, (b + 1) * B) % data.n
            X = augment(data.examples, ids, 32, 32, cfg.pad, rng,
                        buffer(run_ws, "batch", (B, data.dim)))
            lv = losses.objective(params, X, ids, terms,
                                  data.coarse_labels[ids], index,
                                  ws=epoch_ws)
            apply_gradients(params, lv, vel, cfg.lr, cfg.momentum,
                            cfg.weight_decay, run_ws)

        assert self.transient_peak(step, range(data.n // B + 1)) \
            <= 128 * 1024


class TestTrain:
    def test_zero_epochs_equals_seeded_init(self):
        d = gen_blob_dataset(2, 3, 4, 8, seed=1)
        cfg = small_blob_config("coins-imp", epochs=0, seed=11)
        params, metrics, membership = train(cfg, d)
        ref = init_params(d.dim, cfg.hidden, cfg.embed_dim, d.C, d.n,
                          seed=11)
        assert param_vector(params).tobytes() == param_vector(ref).tobytes()
        assert metrics == [] and membership is None

    def test_epoch_encodes_each_row_once_for_metrics(self, monkeypatch):
        # three training batches, then one full-data pass whose embedding
        # serves both the loss terms and w_gap
        rows = []

        def counting_encode(params, batch):
            rows.append(len(batch))
            return model.encode(params, batch)
        monkeypatch.setattr(losses, "encode", counting_encode)
        monkeypatch.setattr(trainer, "encode", counting_encode, raising=False)
        d = gen_blob_dataset(2, 2, 5, 8, seed=2)
        _, metrics, _ = train(small_blob_config("coins", epochs=1,
                                                batch_size=8), d)
        assert rows == [8, 8, 4, 20]
        assert len(metrics) == 1

    @pytest.mark.parametrize("extra", [{}, {"cosine": True, "mlp_head": True,
                                            "temperature": 0.1}],
                             ids=["plain", "cosine-mlp"])
    @pytest.mark.parametrize("objective", trainer.OBJECTIVES)
    def test_deterministic_rerun(self, objective, extra):
        d = gen_blob_dataset(2, 2, 5, 8, seed=2)
        cfg = small_blob_config(objective, epochs=3, ip_start_epoch=1, P=4,
                                batch_size=8, **extra)
        a, ma, _ = train(cfg, d)
        b, mb, _ = train(cfg, d)
        assert param_vector(a).tobytes() == param_vector(b).tobytes()
        assert json.dumps(ma) == json.dumps(mb)

    @pytest.mark.parametrize("objective, unread", [
        ("cos", "W_I"), ("opt", "W_I"), ("ins", "W_C")])
    def test_unread_head_never_moves(self, objective, unread):
        """Not even weight decay reaches a head the objective never reads."""
        d = gen_blob_dataset(2, 2, 5, 8, seed=2)
        cfg = small_blob_config(objective, epochs=3, batch_size=8,
                                weight_decay=0.5)
        params, _, _ = train(cfg, d)
        ref = init_params(d.dim, cfg.hidden, cfg.embed_dim,
                          d.F if objective == "opt" else d.C, d.n,
                          seed=cfg.seed)
        assert getattr(params, unread).tobytes() == \
            getattr(ref, unread).tobytes()

    def test_loss_decreases_on_blob(self):
        d = gen_blob_dataset(4, 5, 10, 16, seed=0)
        cfg = small_blob_config("coins", epochs=30)
        _, metrics, _ = train(cfg, d)
        assert metrics[-1]["loss_total"] < metrics[0]["loss_total"]

    def test_opt_requires_fine_labels(self):
        d = gen_blob_dataset(2, 2, 3, 4, seed=0)
        d.fine_labels, d.F = None, 0
        with pytest.raises(ValueError, match="fine"):
            train(small_blob_config("opt", epochs=1), d)

    def test_proxy_phase_never_running_warns(self):
        d = gen_blob_dataset(2, 2, 3, 4, seed=0)
        cfg = small_blob_config("coinsP", epochs=2, ip_start_epoch=5, P=4)
        with pytest.warns(UserWarning, match="never runs"):
            train(cfg, d)

    def test_global_clustering_mixes_coarse_classes(self):
        # P = 2 below C = 3 is legal only when clustering over all of W_I
        d = gen_blob_dataset(3, 2, 4, 5, seed=0)
        cfg = small_blob_config("coinsP", epochs=3, ip_start_epoch=1, P=2,
                                cluster_within_coarse=False, hidden=[8],
                                embed_dim=4, batch_size=8)
        _, _, membership = train(cfg, d)
        assert membership.within_coarse is False and membership.P == 2
        assert any(len(set(d.coarse_labels[membership.assignment == p])) > 1
                   for p in range(membership.P))

    def test_proxies_are_cluster_means_after_refresh(self):
        d = gen_blob_dataset(2, 3, 4, 8, seed=3)
        cfg = small_blob_config("coinsP", epochs=6, ip_start_epoch=3, P=5)
        params, _, membership = train(cfg, d)
        assert membership is not None
        expected = update_proxies(params.W_I, membership)
        np.testing.assert_allclose(params.W_P, expected, atol=1e-10)

    def test_metrics_match_independent_reevaluation(self):
        d = gen_blob_dataset(2, 3, 4, 8, seed=4)
        cfg = small_blob_config("coins-imp", epochs=3, lambda_I=0.5)
        params, metrics, _ = train(cfg, d)
        index = build_coarse_index(d.coarse_labels)
        lv = combined_objective(params, d.examples, np.arange(d.n),
                                d.coarse_labels, index, 0.5, 0.0)
        last = metrics[-1]
        assert abs(last["loss_total"] - lv.value) < 1e-9
        assert abs(last["loss_coarse"] - lv.components["coarse"]) < 1e-9
        assert abs(last["loss_instance"] - lv.components["instance"]) < 1e-9

    def test_instance_only_metrics(self):
        d = gen_blob_dataset(2, 2, 3, 6, seed=5)
        cfg = small_blob_config("ins", epochs=2)
        params, metrics, _ = train(cfg, d)
        lv = instance_loss_full(params, d.examples, np.arange(d.n))
        assert abs(metrics[-1]["loss_total"] - lv.value) < 1e-9
        assert metrics[-1]["loss_coarse"] == 0.0

    def test_cosine_head_norms_stay_unit(self):
        d = gen_blob_dataset(2, 2, 4, 6, seed=6)
        cfg = small_blob_config("coins-imp", epochs=3, cosine=True)
        params, _, _ = train(cfg, d)
        for W in (params.W_C, params.W_I):
            np.testing.assert_allclose(np.linalg.norm(W, axis=0), 1.0,
                                       atol=1e-7)

    def test_metrics_record_schedule(self):
        d = gen_blob_dataset(2, 2, 3, 4, seed=7)
        cfg = small_blob_config("cos", epochs=4, lr_decay_epochs=[2],
                                lr_decay_factor=2.0)
        _, metrics, _ = train(cfg, d)
        assert [m["epoch"] for m in metrics] == [1, 2, 3, 4]
        assert metrics[0]["lr"] == cfg.lr
        assert abs(metrics[-1]["lr"] - cfg.lr / 2) < 1e-15


class TestDivergence:
    @pytest.mark.parametrize("objective, lr, where", [
        ("coins-imp", 1e12, "non-finite w_gap at epoch 3"),
        ("coinsP", 1e308, "non-finite W_I after epoch 1")])
    def test_named_with_epoch(self, objective, lr, where):
        d = gen_blob_dataset(4, 5, 10, 16, seed=0)
        cfg = TrainConfig(objective=objective, epochs=8, lr=lr,
                          ip_start_epoch=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(trainer.DivergenceError, match=where):
            train(cfg, d)


def uneven_dataset(n, seed=0):
    """n blobs in 8 dims over 3 coarse x 2 fine classes; the class sizes
    differ by one when 6 does not divide n."""
    rng = np.random.default_rng(seed)
    fine = np.arange(n) % 6
    X = 4.0 * rng.standard_normal((6, 8))[fine] + rng.standard_normal((n, 8))
    return Dataset(examples=X, coarse_labels=fine // 2, C=3,
                   fine_labels=fine, F=6)


def gradient_metrics_oracle(params, config, dataset, coarse_index,
                            class_labels, membership, proxy_phase, epoch, lr):
    """The epoch-metrics record as the gradient-carrying pass made it: the
    whole data set through the training objective at once, with the
    two-softmax cross-entropy block and every gradient formed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_ce_block", ce_block_oracle)
        lv = losses.objective(params, dataset.examples, np.arange(dataset.n),
                              trainer.objective_terms(config, proxy_phase),
                              class_labels, coarse_index, membership)
    g, _ = model.branch_forward(params, lv.embeddings, "instance")
    return {"epoch": epoch, "lr": lr,
            "loss_coarse": lv.components.get("coarse", 0.0),
            "loss_instance": lv.components.get("instance", 0.0),
            "loss_proxy": lv.components.get("proxy", 0.0),
            "loss_total": lv.value,
            "w_gap": float(np.mean(np.sum((g - params.W_I.T) ** 2, axis=1)))}


class TestValuesOnlyMetrics:
    @pytest.mark.parametrize("n", [127, 128, 129, 300])
    @pytest.mark.parametrize("head", ["plain", "cosine-mlp"])
    @pytest.mark.parametrize("objective", trainer.OBJECTIVES)
    def test_records_bitwise_equal_to_gradient_pass(self, monkeypatch, n,
                                                    head, objective):
        extra = {} if head == "plain" else dict(cosine=True, mlp_head=True,
                                                temperature=0.1)
        cfg = small_blob_config(objective, epochs=3, ip_start_epoch=1,
                                **extra)
        values_only = trainer._epoch_metrics
        records = []

        def both(*args):
            WI_READS.reset()
            record = values_only(*args)
            reads = WI_READS.reads
            oracle = gradient_metrics_oracle(*args)
            assert json.dumps(record) == json.dumps(oracle)
            records.append((record, reads))
            return record
        monkeypatch.setattr(trainer, "_epoch_metrics", both)
        d = uneven_dataset(n)
        train(cfg, d)
        assert len(records) == 3
        if objective == "coins":
            assert all(reads == n * n for _, reads in records)

    @pytest.mark.parametrize("objective", ["coins", "coins-imp"])
    def test_wi_reads_per_train(self, objective):
        d = uneven_dataset(129)
        per_pass = {"coins": d.n * d.n,
                    "coins-imp": int(np.sum(np.bincount(d.coarse_labels) ** 2))}
        WI_READS.reset()
        train(small_blob_config(objective, epochs=2), d)
        assert WI_READS.reads == 2 * 2 * per_pass[objective]

    def test_peak_memory_below_one_n_by_n_array(self):
        n = 2048
        d = uneven_dataset(n)
        cfg = small_blob_config("coins", epochs=1)
        params = init_params(d.dim, cfg.hidden, cfg.embed_dim, d.C, n, seed=0)
        index = build_coarse_index(d.coarse_labels)
        tracemalloc.start()
        try:
            trainer._epoch_metrics(params, cfg, d, index, d.coarse_labels,
                                   None, False, 1, cfg.lr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestParamVector:
    def test_round_trip(self, rng):
        params = make_params(rng, with_proxy=3, mlp_head=True)
        vec = param_vector(params)
        back = set_param_vector(params, vec)
        assert param_vector(back).tobytes() == vec.tobytes()

    def test_wrong_length_rejected(self, rng):
        params = make_params(rng)
        with pytest.raises(ValueError):
            set_param_vector(params, np.zeros(param_vector(params).size + 1))
