"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest -v tests/test_acceptance.py`; every test prints
`ACCEPTANCE <n>: PASS/FAIL - <summary>` before asserting.
"""

import itertools
import json
import time

import numpy as np
import pytest

from coarse2fine.cli import main as cli_main
from coarse2fine.cli import reproduce_synthetic
from coarse2fine.cluster import Membership, kmeans, update_proxies
from coarse2fine.data import gen_blob_dataset
from coarse2fine.losses import WI_READS, build_coarse_index, objective
from coarse2fine.model import encode
from coarse2fine.numerics import DegenerateInputError, grad_check
from coarse2fine.theory import verify_lemma1, verify_theorem
from coarse2fine.trainer import (TrainConfig, gradient_vector, param_vector,
                                 set_param_vector, train)
from conftest import make_params

BLOB_TRAIN = dict(objective="coins-imp", epochs=30, lr=0.003, momentum=0.9,
                  weight_decay=5e-4, lr_decay_epochs=[20, 25],
                  lr_decay_factor=5.0, batch_size=64, seed=0,
                  hidden=[64], embed_dim=32)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_theory_instance(rng, n=12, C=2, F=4, d=4, scale=0.6):
    emb = scale * rng.standard_normal((n, d))
    W_C = scale * rng.standard_normal((d, C))
    W_I = scale * rng.standard_normal((d, n))
    fine = np.repeat(np.arange(F), n // F)
    return emb, W_C, W_I, fine % C, fine


def test_criterion_1_gradient_suite():
    """All six loss forms and the encoder match finite differences."""
    rng = np.random.default_rng(2024)
    # each form as its loss terms
    forms = {"instance": {"instance": 1.0},
             "coarse": {"coarse": 1.0},
             "combined-full": {"coarse": 1.0, "instance": 0.6},
             "combined-within": {"coarse": 1.0, "within": 0.6},
             "proxy": {"proxy": 1.0},
             "combined-proxy": {"coarse": 1.0, "within": 0.6, "proxy": 1.4}}
    n_configs = 102
    worst = 0.0
    start = time.monotonic()
    for i in range(n_configs):
        form = list(forms)[i % len(forms)]
        cosine = (i // len(forms)) % 2 == 1
        mlp = (i // (2 * len(forms))) % 2 == 1
        n, C, P = 6, 2, 3
        coarse = np.array([0, 0, 0, 1, 1, 1])
        index = build_coarse_index(coarse)

        lv = None
        while lv is None:
            params = make_params(rng, input_dim=3, hidden=(3,), d=2, C=C,
                                 n=n, cosine=cosine, mlp_head=mlp,
                                 with_proxy=P if "proxy" in form else 0)
            X = rng.standard_normal((4, 3)) + 0.5
            ids = np.sort(rng.choice(n, 4, replace=False))
            assignment = np.concatenate([np.arange(P),
                                         rng.integers(0, P, n - P)])
            m = Membership(assignment=assignment, P=P, within_coarse=False,
                           objective=0.0)

            def call(p, form=form, m=m, X=X, ids=ids):
                return objective(p, X, ids, forms[form], coarse[ids], index,
                                 m)

            try:
                lv = call(params)
            except DegenerateInputError:
                # cosine + ReLU projection can zero a row exactly, which is
                # rejected as degenerate; redraw the configuration
                lv = None
        err = grad_check(lambda v: call(set_param_vector(params, v)).value,
                         param_vector(params), gradient_vector(params, lv))
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    report(1, worst < 1e-4 and elapsed < 30,
           f"{n_configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_reduction_equivalences():
    rng = np.random.default_rng(7)
    params = make_params(rng, n=5)
    X = rng.standard_normal((5, 4))
    ids = np.arange(5)

    single_coarse = np.zeros(5, int)
    full = objective(params, X, ids, {"instance": 1.0}).value
    gap_within = abs(
        objective(params, X, ids, {"within": 1.0},
                  coarse_index=build_coarse_index(single_coarse)).value
        - full)

    m = Membership(assignment=np.arange(5), P=5, within_coarse=False,
                   objective=0.0)
    params.W_P = update_proxies(params.W_I, m)
    gap_proxy = abs(objective(params, X, ids, {"proxy": 1.0},
                              membership=m).value - full)

    coarse = np.array([0, 0, 1, 1, 1])
    combined = objective(params, X, ids,
                         {"coarse": 1.0, "within": 0.0, "proxy": 0.0},
                         coarse, build_coarse_index(coarse))
    exact = combined.value == objective(params, X, None, {"coarse": 1.0},
                                        coarse).value

    ok = gap_within < 1e-12 and gap_proxy < 1e-12 and exact
    report(2, ok, f"within gap {gap_within:.1e}, proxy gap {gap_proxy:.1e}, "
                  f"zero-weight exact={exact}")


def test_criterion_3_kmeans_oracle():
    rng = np.random.default_rng(99)
    worst_gap = -np.inf
    worst_init = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        P = int(rng.integers(2, 4))
        W_I = rng.standard_normal((3, n))
        pts = W_I.T
        best, best_assign = np.inf, None
        for assign in itertools.product(range(P), repeat=n):
            a = np.array(assign)
            obj = 0.0
            for p in range(P):
                members = pts[a == p]
                if members.shape[0]:
                    obj += float(np.sum((members - members.mean(0)) ** 2))
            if obj < best:
                best, best_assign = obj, a
        m = kmeans(W_I, P, seed=trial, restarts=4)
        worst_gap = max(worst_gap, best - m.objective)
        used = np.unique(best_assign)
        centers = np.stack([pts[best_assign == p].mean(0) for p in used])
        m2 = kmeans(W_I, len(used), init=centers)
        worst_init = max(worst_init, abs(m2.objective - best))
    ok = worst_gap <= 1e-9 and worst_init <= 1e-9
    report(3, ok, f"50 trials, max oracle excess {worst_gap:.1e}, "
                  f"max init-at-oracle gap {worst_init:.1e}")


def test_criterion_4_theory_verification():
    start = time.monotonic()
    dataset = gen_blob_dataset(4, 5, 10, 16, seed=0)
    params, _, _ = train(TrainConfig(**BLOB_TRAIN), dataset)
    emb, _ = encode(params, dataset.examples)
    reports = [verify_theorem(emb, params.W_C, params.W_I,
                              dataset.coarse_labels, dataset.fine_labels,
                              which=w) for w in (1, 2)]
    trained_ok = all(r.all_hold for r in reports)

    rng = np.random.default_rng(31)
    random_ok = True
    for _ in range(500):
        e, W_C, W_I, coarse, fine = random_theory_instance(rng)
        lem = verify_lemma1(e, W_I, fine)
        random_ok &= lem.jensen_ok and lem.lemma_ok
    elapsed = time.monotonic() - start
    report(4, trained_ok and random_ok and elapsed < 120,
           f"trained all_hold={trained_ok}, 500 random lemma checks "
           f"ok={random_ok}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_synthetic_ordering(tmp_path):
    start = time.monotonic()
    rows = reproduce_synthetic([1, 2, 3], str(tmp_path / "cmp"))
    med = {r["objective"]: r["R@1"] for r in rows if r["seed"] == "median"}
    elapsed = time.monotonic() - start
    opt_top = all(med["opt"] >= med[o] for o in med)
    coins_vs_cos = med["coins"] >= med["cos"] + 0.05
    coins_vs_ins = med["coins"] >= med["ins"] + 0.05
    imp_close = abs(med["coins-imp"] - med["coins"]) <= 0.03
    ok = opt_top and coins_vs_cos and coins_vs_ins and imp_close \
        and elapsed < 600
    report(5, ok, "median R@1 " +
           " ".join(f"{o}={med[o]:.3f}" for o in med) +
           f", {elapsed:.0f}s")


def test_criterion_6_within_coarse_cost():
    rng = np.random.default_rng(5)
    n, C = 200, 20
    coarse = np.repeat(np.arange(C), n // C)
    params = make_params(rng, input_dim=4, hidden=(3,), d=3, C=C, n=n)
    X = rng.standard_normal((n, 4))
    ids = np.arange(n)
    index = build_coarse_index(coarse)
    WI_READS.reset()
    objective(params, X, ids, {"within": 1.0}, coarse_index=index)
    within_reads = WI_READS.reads
    WI_READS.reset()
    objective(params, X, ids, {"instance": 1.0})
    full_reads = WI_READS.reads
    ratio = within_reads / full_reads
    report(6, ratio == 0.05,
           f"{within_reads}/{full_reads} column reads = {ratio} (exact)")


def test_criterion_7_byte_identical_training(tmp_path):
    data = tmp_path / "d.cfds"
    assert cli_main(["gen-data", "--kind", "blob", "--seed", "2",
                     "--out", str(data)]) == 0
    blobs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        rc = cli_main(["train", "--data", str(data), "--objective", "coinsP",
                       "--epochs", "8", "--m-epoch", "4", "--lr", "0.003",
                       "--hidden", "64", "--embed-dim", "32", "--batch",
                       "64", "--seed", "11", "--out", str(ckpt)])
        assert rc == 0
        blobs.append((ckpt.read_bytes(),
                      (tmp_path / f"{name}.ckpt.metrics.jsonl").read_bytes()))
    same_ckpt = blobs[0][0] == blobs[1][0]
    same_metrics = blobs[0][1] == blobs[1][1]
    report(7, same_ckpt and same_metrics,
           f"checkpoint identical={same_ckpt}, metrics identical={same_metrics}")


def test_criterion_8_end_to_end_cli(tmp_path):
    data = tmp_path / "blob.cfds"
    ckpt = tmp_path / "model.ckpt"
    evalp = tmp_path / "eval.json"
    boundsp = tmp_path / "bounds.json"
    codes = [
        cli_main(["gen-data", "--kind", "blob", "--classes", "4",
                  "--fine-per-coarse", "5", "--z", "10", "--dim", "16",
                  "--seed", "0", "--out", str(data)]),
        cli_main(["train", "--data", str(data), "--objective", "coins-imp",
                  "--epochs", "30", "--lr", "0.003", "--batch", "64",
                  "--decay-epochs", "20,25", "--hidden", "64",
                  "--embed-dim", "32", "--seed", "0", "--out", str(ckpt)]),
        cli_main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                  "--out", str(evalp)]),
        cli_main(["verify-bounds", "--data", str(data), "--checkpoint",
                  str(ckpt), "--theorem", "1", "--out", str(boundsp)]),
        cli_main(["verify-bounds", "--data", str(data), "--checkpoint",
                  str(ckpt), "--theorem", "2", "--out", str(boundsp)]),
    ]
    eval_report = json.loads(evalp.read_text())
    bounds = json.loads(boundsp.read_text())
    schema_ok = (
        {"recall_at", "topk_acc", "n_queries"} <= set(eval_report)
        and {"alpha", "beta", "a", "b", "c", "z", "M", "h", "per_example",
             "all_hold", "slack_min"} <= set(bounds)
        and all({"lhs", "rhs"} <= set(e) for e in bounds["per_example"]))
    report(8, all(c == 0 for c in codes) and schema_ok,
           f"exit codes {codes}, schema ok={schema_ok}")
