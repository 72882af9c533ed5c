import argparse
import ctypes
import dataclasses
import hashlib
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from coarse2fine import cli, data, losses, model, numerics, trainer
from coarse2fine.cli import main, reproduce_synthetic
from coarse2fine.data import gen_patch_dataset, load_dataset, save_dataset
from coarse2fine.model import (ModelParams, encode, load_checkpoint,
                               param_arrays, save_checkpoint)
from coarse2fine.numerics import InvariantError
from coarse2fine.theory import verify_theorem
from coarse2fine.trainer import TrainConfig
from conftest import bound_report_dict


def run(*argv):
    return main(list(argv))


def openblas_core():
    """The kernel set ("SkylakeX", "Haswell", ...) that numpy's bundled
    OpenBLAS 0.3.31 picked for this CPU, or None for any other BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):            # numpy < 1.25, or no BLAS entry
        return None
    if blas.get("name") != "scipy-openblas" or not str(
            blas.get("version")).startswith("0.3.31."):
        return None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        corename = getattr(ctypes.CDLL(str(lib)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def train_config(*flags):
    """The TrainConfig that `train` would run for these flags."""
    return cli._merge_config(cli.build_parser().parse_args(
        ["train", "--data", "d.cfds", "--out", "m.ckpt", *flags]))


@pytest.fixture
def blob_file(tmp_path):
    path = tmp_path / "blob.cfds"
    rc = run("gen-data", "--kind", "blob", "--classes", "2",
             "--fine-per-coarse", "2", "--z", "3", "--dim", "4",
             "--seed", "0", "--out", str(path))
    assert rc == 0
    return str(path)


@pytest.fixture
def overflow_row_file(tmp_path, blob_file):
    """The blob data set with example 3 at the largest finite float: the
    file loads, but embedding 3 overflows to a non-finite row."""
    d = load_dataset(blob_file)
    d.examples[3] = np.finfo(np.float64).max
    path = tmp_path / "nan.cfds"
    save_dataset(d, str(path))
    return str(path)


@pytest.fixture
def true_nan_file(tmp_path, blob_file):
    """The blob data set with a NaN in example 3."""
    d = load_dataset(blob_file)
    d.examples[3, 0] = np.nan
    path = tmp_path / "true_nan.cfds"
    save_dataset(d, str(path))
    return str(path)


@pytest.fixture
def trained(tmp_path, blob_file):
    ckpt = tmp_path / "m.ckpt"
    rc = run("train", "--data", blob_file, "--objective", "coins-imp",
             "--epochs", "3", "--lr", "0.003", "--batch", "8",
             "--hidden", "8", "--embed-dim", "4", "--seed", "1",
             "--out", str(ckpt))
    assert rc == 0
    return str(ckpt)


class TestGenData:
    def test_patch_counts(self, tmp_path, capsys):
        out = tmp_path / "d.cfds"
        rc = run("gen-data", "--kind", "patch", "--n", "48", "--big", "4",
                 "--small", "8", "--img-h", "16", "--img-w", "16",
                 "--big-size", "6", "--small-size", "2", "--seed", "7",
                 "--out", str(out))
        assert rc == 0
        assert "C=4 F=8" in capsys.readouterr().out

    def test_same_command_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.cfds", tmp_path / "b.cfds"
        args = ["gen-data", "--kind", "blob", "--seed", "5"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_big_pool_is_usage_error(self, tmp_path):
        rc = run("gen-data", "--kind", "patch", "--big", "0",
                 "--out", str(tmp_path / "x.cfds"))
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        (["--big-size", "-3"], "patch sizes must be >= 1"),
        (["--small-size", "0"], "patch sizes must be >= 1"),
        (["--n", "0"], "need at least one image"),
        (["--big-size", "32", "--small-size", "32"],
         "patches cannot be placed without overlap: "
         "big_size + small_size exceeds both image sides"),
    ])
    def test_bad_patch_shape_is_usage_error(self, tmp_path, capsys, flags,
                                            message):
        out = tmp_path / "x.cfds"
        assert run("gen-data", "--kind", "patch", *flags,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--noise", "-1"], "noise must be finite and >= 0"),
        (["--noise", "nan"], "noise must be finite and >= 0"),
        (["--noise", "inf"], "noise must be finite and >= 0"),
        (["--coarse-spread", "nan"], "spreads must be finite and positive"),
        (["--fine-spread", "inf"], "spreads must be finite and positive"),
        (["--fine-spread", "0"], "spreads must be finite and positive"),
    ])
    def test_bad_blob_spread_or_noise_is_usage_error(self, tmp_path, capsys,
                                                     flags, message):
        out = tmp_path / "x.cfds"
        assert run("gen-data", "--kind", "blob", *flags,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_failed_placement_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(data, "_below", lambda words, k: 0)
        assert run("gen-data", "--kind", "patch", "--n", "4",
                   "--out", str(tmp_path / "x.cfds")) == 2
        assert capsys.readouterr().err == ("usage error: could not place "
                                           "patches without overlap in 1000 "
                                           "attempts\n")

    def test_unwritable_output_is_io_error(self, blob_file, tmp_path):
        rc = run("gen-data", "--kind", "blob",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.cfds"))
        assert rc == 3


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, tmp_path, blob_file):
        ckpt = tmp_path / "m.ckpt"
        rc = run("train", "--data", blob_file, "--objective", "cos",
                 "--epochs", "2", "--lr", "0.003", "--hidden", "8",
                 "--embed-dim", "4", "--out", str(ckpt))
        assert rc == 0
        assert ckpt.exists()
        lines = (tmp_path / "m.ckpt.metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert {"epoch", "lr", "loss_total", "w_gap"} <= set(rec)

    @pytest.mark.parametrize("batch, where", [
        ("4", "non-finite loss or gradient at epoch 2, batch 2"),
        ("64", "non-finite loss or gradient in the epoch 4 metrics pass")])
    def test_divergence_exits_5_and_writes_nothing(self, tmp_path, blob_file,
                                                   capsys, batch, where):
        ckpt = tmp_path / "m.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = run("train", "--data", blob_file, "--objective", "coins-imp",
                     "--epochs", "8", "--batch", batch, "--lr", "1e12",
                     "--out", str(ckpt))
        assert rc == 5
        assert f"training diverged: {where}" in capsys.readouterr().err
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.metrics.jsonl").exists()

    @pytest.mark.parametrize("objective", ["coins-imp", "coins", "coinsP"])
    @pytest.mark.parametrize("lr", ["1e6", "1e30", "1e300"])
    def test_divergence_warns_nothing_and_prints_one_line(
            self, tmp_path, blob_file, capsys, objective, lr):
        ckpt = tmp_path / "m.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--data", blob_file, "--objective", objective,
                     "--epochs", "8", "--m-epoch", "2", "--batch", "4",
                     "--lr", lr, "--out", str(ckpt))
        assert rc == 5
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and err.count("\n") == 1
        assert not ckpt.exists()

    def test_huge_instance_head_exits_5_before_clustering(self, tmp_path,
                                                          capsys):
        data = tmp_path / "blob.cfds"
        assert run("gen-data", "--kind", "blob", "--classes", "4",
                   "--fine-per-coarse", "5", "--z", "10", "--dim", "16",
                   "--out", str(data)) == 0
        ckpt = tmp_path / "m.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = run("train", "--data", str(data), "--objective", "coinsP",
                     "--m-epoch", "0", "--epochs", "3", "--lr", "1e300",
                     "--out", str(ckpt))
        assert rc == 5
        assert "training diverged: W_I too large to cluster after epoch 1" \
            in capsys.readouterr().err
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.metrics.jsonl").exists()

    @pytest.mark.parametrize("objective, lr, where", [
        # a cosine row whose norm overflowed is no longer degenerate input
        ("coins-imp", "1e30", "row with near-zero norm in the epoch 3 "
                              "metrics pass"),
        # nor is a refresh that leaves a cluster empty
        ("coinsP", "1e300", "group 1 is empty after epoch 1: no column is "
                            "labelled 1")])
    def test_cosine_divergence_exits_5(self, tmp_path, capsys, objective, lr,
                                       where):
        data = tmp_path / "blob.cfds"
        assert run("gen-data", "--kind", "blob", "--seed", "2",
                   "--out", str(data)) == 0
        capsys.readouterr()
        ckpt = tmp_path / "m.ckpt"
        rc = run("train", "--data", str(data), "--objective", objective,
                 "--epochs", "3", "--m-epoch", "0", "--lr", lr, "--cosine",
                 "--mlp-head", "--out", str(ckpt))
        assert rc == 5
        assert capsys.readouterr().err == f"training diverged: {where}\n"
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.metrics.jsonl").exists()

    def test_non_finite_example_is_bad_file(self, tmp_path, true_nan_file,
                                            capsys):
        rc = run("train", "--data", true_nan_file, "--epochs", "1",
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 4
        assert "bad dataset file: example row 3 is not finite" \
            in capsys.readouterr().err

    def test_deterministic_checkpoints(self, tmp_path, blob_file):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            rc = run("train", "--data", blob_file, "--objective", "coinsP",
                     "--epochs", "4", "--lr", "0.003", "--clusters", "4",
                     "--hidden", "8", "--embed-dim", "4", "--seed", "3",
                     "--out", str(path))
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_opt_without_fine_labels(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("coarse,fine,x0\n0,,1.0\n0,,2.0\n1,,3.0\n1,,4.0\n")
        rc = run("train", "--data", str(csv_path), "--format", "csv",
                 "--objective", "opt", "--epochs", "1",
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 2

    def test_proxy_phase_skipped_warns_but_succeeds(self, tmp_path, blob_file):
        with pytest.warns(UserWarning):
            rc = run("train", "--data", blob_file, "--objective", "coinsP",
                     "--epochs", "2", "--m-epoch", "5", "--lr", "0.003",
                     "--hidden", "8", "--embed-dim", "4", "--clusters", "4",
                     "--out", str(tmp_path / "m.ckpt"))
        assert rc == 0

    def test_config_file_with_flag_precedence(self, tmp_path, blob_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "cos", "epochs": 5,
                                   "lr": 0.003, "hidden": [8],
                                   "embed_dim": 4}))
        ckpt = tmp_path / "m.ckpt"
        rc = run("train", "--data", blob_file, "--config", str(cfg),
                 "--epochs", "1", "--out", str(ckpt))
        assert rc == 0
        lines = (tmp_path / "m.ckpt.metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1  # the flag's 1 epoch beats the file's 5

    def test_unknown_config_key(self, tmp_path, blob_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        rc = run("train", "--data", blob_file, "--config", str(cfg),
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 2

    @pytest.mark.parametrize("argv, what", [
        (["train", "--objective", "bogus"], "argument --objective: invalid"),
        (["train", "--hidden", "x"], "argument --hidden: invalid"),
        (["verify-bounds", "--checkpoint", "c", "--theorem", "3"],
         "argument --theorem: invalid choice: 3"),
        (["eval"], "the following arguments are required: --data"),
        ([], "the following arguments are required: command")])
    def test_bad_objective_rejected_by_parser(self, tmp_path, blob_file,
                                              capsys, argv, what):
        """An argument the parser rejects is a one-line usage error with
        exit code 2, not argparse's usage block and SystemExit."""
        if argv[1:]:
            argv = argv + ["--data", blob_file, "--out", str(tmp_path / "o")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {what}")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--help")
        assert exc.value.code == 0
        assert "--objective" in capsys.readouterr().out

    def test_missing_data_file(self, tmp_path):
        rc = run("train", "--data", str(tmp_path / "absent.cfds"),
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 3

    def test_corrupt_data_file(self, tmp_path):
        bad = tmp_path / "bad.cfds"
        bad.write_bytes(b"NOT A DATASET AT ALL.......")
        rc = run("train", "--data", str(bad),
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 4


    @pytest.mark.parametrize("flags, field", [
        (["--batch", "0"], "batch_size"),
        (["--cosine", "--temp", "0"], "temperature"),
        (["--decay-factor", "0", "--decay-epochs", "1"], "lr_decay_factor"),
        (["--wd", "-0.1"], "weight_decay"),
        (["--objective", "coinsP", "--clusters", "1"], "P=1"),
        (["--objective", "coinsP", "--clusters", "13"], "P=13"),
        (["--embed-dim", "0"], "embed_dim must be >= 1"),
        (["--hidden", "0"], "hidden widths must be >= 1"),
        (["--hidden", "8,0"], "hidden widths must be >= 1"),
        (["--pad", "-20"], "pad must be >= 0"),
        (["--objective", "coins", "--lambda-i", "nan"], "lambda_I must be finite"),
        (["--objective", "coinsP", "--lambda-p", "inf"], "lambda_P must be finite"),
        (["--lr", "nan"], "lr must be finite"),
        (["--lr", "inf"], "lr must be finite"),
        (["--cosine", "--temp", "inf"], "temperature must be finite"),
        (["--wd", "inf"], "weight_decay must be finite"),
        (["--decay-factor", "inf", "--decay-epochs", "1"],
         "lr_decay_factor must be finite"),
    ])
    def test_bad_config_field_is_usage_error(self, tmp_path, blob_file,
                                             capsys, flags, field):
        rc = run("train", "--data", blob_file, "--epochs", "2", "--lr",
                 "0.003", "--hidden", "8", "--embed-dim", "4", *flags,
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"epochs": "3"}, "'epochs' must be int, not '3'"),
        ({"epochs": True}, "'epochs' must be int, not True"),
        ({"lr": "0.1"}, "'lr' must be float"),
        ({"cosine": 1}, "'cosine' must be bool"),
        ({"hidden": 64}, "'hidden' must be list[int]"),
        ({"lr_decay_epochs": [1, 2.5]}, "'lr_decay_epochs' must be list[int]"),
        ({"epochs": None}, "'epochs' must be int, not None"),
        ({"kmeans_restarts": -3}, "kmeans_restarts must be >= 1"),
        ([1], "--config must hold a JSON object"),
        ({"learning_rate": 0.1}, "unknown config key 'learning_rate'"),
        # a TrainConfig method is no field
        ({"validate": 1}, "unknown config key 'validate'"),
    ])
    def test_bad_config_json_is_usage_error(self, tmp_path, blob_file,
                                            capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = run("train", "--data", blob_file, "--config", str(path),
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_flag_dests_are_config_fields(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["train"]._actions
                 if not isinstance(a, argparse._HelpAction)}
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert dests - fields == {"data", "format", "img_h", "img_w",
                                  "config", "out", "metrics"}

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--m-epoch", "3", "ip_start_epoch", 3),
        ("--clusters", "7", "P", 7),
        ("--lambda-i", "0.25", "lambda_I", 0.25),
        ("--lambda-p", "0.5", "lambda_P", 0.5),
        ("--wd", "0.01", "weight_decay", 0.01),
        ("--decay-epochs", "3,9", "lr_decay_epochs", [3, 9]),
        ("--decay-factor", "2.5", "lr_decay_factor", 2.5),
        ("--batch", "17", "batch_size", 17),
        ("--temp", "0.2", "temperature", 0.2),
    ])
    def test_renamed_flag_sets_its_field(self, flag, value, field, expected):
        assert train_config(flag, value) == \
            dataclasses.replace(TrainConfig(), **{field: expected})

    def test_empty_list_flags_mean_empty_lists(self, tmp_path, blob_file):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hidden": [], "lr_decay_epochs": []}))
        cfg = train_config("--hidden", "", "--decay-epochs", "")
        assert cfg == train_config("--config", str(path))
        assert cfg.hidden == [] and cfg.lr_decay_epochs == []
        # the flags override a file that asks for a hidden layer and decay
        path.write_text(json.dumps({"hidden": [8], "lr_decay_epochs": [1]}))
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", blob_file, "--config", str(path),
                   "--epochs", "2", "--lr", "0.003", "--embed-dim", "4",
                   "--hidden", "", "--decay-epochs", "",
                   "--out", str(ckpt)) == 0
        assert len(load_checkpoint(str(ckpt)).encoder) == 1
        lines = (tmp_path / "m.ckpt.metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["lr"] for line in lines] == [0.003, 0.003]

    def test_global_clustering_through_config(self, tmp_path, blob_file):
        # P = 1 below C = 2: legal only when clustering over all of W_I
        cfg = {"objective": "coinsP", "epochs": 3, "ip_start_epoch": 1,
               "P": 1, "lr": 0.003, "hidden": [8], "embed_dim": 4,
               "batch_size": 4, "seed": 2}
        path = tmp_path / "within.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--data", blob_file, "--config", str(path),
                   "--out", str(tmp_path / "w.ckpt")) == 2
        path = tmp_path / "global.json"
        path.write_text(json.dumps({**cfg, "cluster_within_coarse": False}))
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            ckpt = tmp_path / name
            assert run("train", "--data", blob_file, "--config", str(path),
                       "--out", str(ckpt)) == 0
            outs.append((ckpt.read_bytes(),
                         (tmp_path / f"{name}.metrics.jsonl").read_bytes()))
        assert outs[0] == outs[1]

    def test_config_json_takes_ints_as_floats_and_null_where_optional(
            self, tmp_path, blob_file):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lr": 1, "epochs": 1, "hidden": [8],
                                    "embed_dim": 4, "ip_start_epoch": None,
                                    "P": None}))
        rc = run("train", "--data", blob_file, "--config", str(path),
                 "--lr", "0.003", "--out", str(tmp_path / "m.ckpt"))
        assert rc == 0


    @staticmethod
    def small_blob_train(tmp_path, tag, objective):
        """Checkpoint and metrics bytes of a blob `train` at n = 200, which
        is no multiple of the batch of 64, so every epoch ends on a short
        batch."""
        data = tmp_path / "b.cfds"
        if not data.exists():
            assert run("gen-data", "--kind", "blob", "--seed", "3",
                       "--out", str(data)) == 0
        ckpt = tmp_path / f"{tag}.ckpt"
        assert run("train", "--data", str(data), "--objective", objective,
                   "--epochs", "3", "--m-epoch", "1", "--lr", "0.003",
                   "--hidden", "32", "--embed-dim", "16", "--batch", "64",
                   "--seed", "4", "--out", str(ckpt)) == 0
        return ckpt.read_bytes(), (tmp_path / f"{tag}.ckpt.metrics.jsonl"
                                   ).read_bytes()

    @staticmethod
    def small_patch_train(tmp_path, tag, objective, dtype):
        """Checkpoint and metrics bytes of a patch-image `train`, the path
        through `augment`, on 40 images of 16 x 16 saved as `dtype`: three
        epochs of batches of 16, the last one short."""
        data = tmp_path / f"p-{dtype}.cfds"
        if not data.exists():
            d = gen_patch_dataset(40, 4, 8, img_h=16, img_w=16, big_size=6,
                                  small_size=2, seed=3)
            d.examples = d.examples.astype(dtype)
            save_dataset(d, str(data))
            assert load_dataset(str(data)).examples.dtype == dtype
        ckpt = tmp_path / f"{tag}.ckpt"
        assert run("train", "--data", str(data), "--objective", objective,
                   "--epochs", "3", "--m-epoch", "1", "--lr", "0.01",
                   "--hidden", "32", "--embed-dim", "8", "--batch", "16",
                   "--pad", "4", "--img-h", "16", "--img-w", "16",
                   "--seed", "4", "--out", str(ckpt)) == 0
        return ckpt.read_bytes(), (tmp_path / f"{tag}.ckpt.metrics.jsonl"
                                   ).read_bytes()

    @staticmethod
    def assert_workspaces_move_no_byte(monkeypatch, train_bytes, run_keys):
        """train_bytes(tag) with `train`'s two workspaces equals it with
        every step array fresh, as `numerics.buffer` makes them without a
        workspace. The workspace run fills one run-lifetime dict with
        `run_keys` and one dict per epoch (3) with the steps' logits."""
        dicts = {}

        def spy(ws, key, shape):
            if ws is not None:
                dicts[id(ws)] = ws       # held, so no id is reused
            return numerics.buffer(ws, key, shape)

        def fresh(ws, key, shape):
            return np.empty(shape)

        modules = (losses, model, trainer)
        for module in modules:
            monkeypatch.setattr(module, "buffer", spy)
        shared = train_bytes("shared")
        for module in modules:
            monkeypatch.setattr(module, "buffer", fresh)
        assert train_bytes("fresh") == shared
        run_ws = [ws for ws in dicts.values() if "sgd" in ws]
        epoch_ws = [ws for ws in dicts.values() if "sgd" not in ws]
        assert len(run_ws) == 1 and run_ws[0].keys() == run_keys
        assert len(epoch_ws) == 3 and all("logits" in ws for ws in epoch_ws)

    @pytest.mark.parametrize("objective", ["coins", "coinsP", "coins-imp"])
    def test_train_bytes_match_fresh_step_arrays(self, tmp_path, monkeypatch,
                                                 objective):
        self.assert_workspaces_move_no_byte(
            monkeypatch,
            lambda tag: self.small_blob_train(tmp_path, tag, objective),
            {"sgd", "grad_W0", "grad_W1"})

    @pytest.mark.parametrize("objective", ["coins", "coinsP"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_patch_train_bytes_match_fresh_step_arrays(
            self, tmp_path, monkeypatch, dtype, objective):
        # the batch buffer is float64 whatever the data set's dtype
        self.assert_workspaces_move_no_byte(
            monkeypatch,
            lambda tag: self.small_patch_train(tmp_path, tag, objective,
                                               dtype),
            {"batch", "sgd", "grad_W0", "grad_W1"})

    # sha256 of the small blob train's checkpoint and metrics, recorded
    # before the steps shared one workspace, for each OpenBLAS 0.3.31 kernel
    # set they were recorded with: another kernel rounds the products
    # differently and gives other bytes
    PINNED = {
        "SkylakeX": {
            "coins": ("c346f28f2cf84d7fbb8591ddf8e5b45a"
                      "a7fa4ec8bbf90f97ce2b2db1745b8553",
                      "b15ffe1ed6c064df682208b8e154de2a"
                      "0330dd088c86bd74d0513264825d93fb"),
            "coinsP": ("c09f67e9ab2e2e76b9f31cc66616f61a"
                       "3c0ff275ffcdd9bfcbabe1f47dc0c59a",
                       "85821d0124631223ff6a0e0739e9592e"
                       "46d9d68269e63131e7173d2e6477d1e9")},
        "Haswell": {
            "coins": ("0b0a3045d82b0b1785043f502f4b3210"
                      "8d451963e19d9aab3727d6f35739a9d4",
                      "a09660add57d50bdf8991606b8652436"
                      "71703a327e4d2a6111fc6b363aea72ae"),
            "coinsP": ("857306f127dd405dc257ad031fee228d"
                       "1e1d4b24b10aefe3ba91230f93fe82dd",
                       "807d23c006a0c61a9ba84605d5831286"
                       "d5300983b542e02debc30b9d7f8a089a")}}

    @pytest.mark.parametrize("objective", ["coins", "coinsP"])
    def test_train_outputs_are_pinned(self, tmp_path, objective):
        core = openblas_core()
        if core not in self.PINNED:
            pytest.skip(f"no digests recorded for BLAS kernel set {core}")
        outputs = self.small_blob_train(tmp_path, objective, objective)
        assert tuple(hashlib.sha256(b).hexdigest() for b in outputs
                     ) == self.PINNED[core][objective]


class TestEval:
    def test_report_with_monotone_recall(self, tmp_path, blob_file, trained):
        out = tmp_path / "report.json"
        rc = run("eval", "--data", blob_file, "--checkpoint", trained,
                 "--recall-at", "1,2,4", "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        vals = [report["recall_at"][k] for k in ("1", "2", "4")]
        assert vals[0] <= vals[1] <= vals[2]
        assert report["n_queries"] == 12

    @pytest.mark.parametrize("ks", ["0", "-3", "1,0,4"])
    def test_recall_at_below_one_is_usage_error(self, tmp_path, blob_file,
                                                trained, capsys, ks):
        out = tmp_path / "report.json"
        rc = run("eval", "--data", blob_file, "--checkpoint", trained,
                 "--recall-at", ks, "--out", str(out))
        assert rc == 2
        assert "--recall-at values must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch(self, tmp_path, trained):
        other = tmp_path / "other.cfds"
        assert run("gen-data", "--kind", "blob", "--dim", "6",
                   "--out", str(other)) == 0
        rc = run("eval", "--data", str(other), "--checkpoint", trained,
                 "--out", str(tmp_path / "r.json"))
        assert rc == 2

    def test_empty_recall_at_names_the_flag(self, tmp_path, blob_file,
                                            trained, capsys):
        out = tmp_path / "report.json"
        rc = run("eval", "--data", blob_file, "--checkpoint", trained,
                 "--recall-at", "", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == \
            "usage error: --recall-at needs at least one value\n"
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["header", "body", "trailing"])
    def test_malformed_checkpoint_is_bad_file(self, tmp_path, blob_file,
                                              trained, capsys, damage):
        blob = open(trained, "rb").read()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes({"header": blob[:12], "body": blob[:-8],
                         "trailing": blob + b"\0"}[damage])
        rc = run("eval", "--data", blob_file, "--checkpoint", str(bad),
                 "--out", str(tmp_path / "r.json"))
        assert rc == 4
        assert "bad checkpoint file" in capsys.readouterr().err


    def test_zero_checkpoint_temperature_is_bad_file(self, tmp_path,
                                                     blob_file, trained,
                                                     capsys):
        raw = bytearray(open(trained, "rb").read())
        # after the magic, the layer count, two shapes, C, n, P, d_h, cosine
        struct.pack_into("<d", raw, 6 + 4 + 2 * 8 + 4 * 4 + 1, 0.0)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "r.json"
        rc = run("eval", "--data", blob_file, "--checkpoint", str(bad),
                 "--out", str(out))
        assert rc == 4
        assert "bad checkpoint file: temperature 0.0 at offset 43" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval"],
                                         ["verify-bounds", "--theorem", "1"],
                                         ["verify-bounds", "--theorem", "2"]])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, index", [("W1", 5), ("b0", 0),
                                             ("coarse", 7), ("instance", 30)])
    def test_non_finite_checkpoint_value_is_bad_file(
            self, tmp_path, blob_file, trained, capsys, command, value, name,
            index):
        arrays = param_arrays(load_checkpoint(trained))
        raw = bytearray(open(trained, "rb").read())
        # the body holds the arrays in param_arrays order and ends the file
        start = len(raw) - 8 * sum(a.size for a in arrays.values())
        for key, a in arrays.items():
            if key == name:
                break
            start += 8 * a.size
        offset = start + 8 * index
        struct.pack_into("<d", raw, offset, value)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "r.json"
        rc = run(*command, "--data", blob_file, "--checkpoint", str(bad),
                 "--out", str(out))
        assert rc == 4
        assert capsys.readouterr().err == (
            f"bad checkpoint file: {name} value {index} is not finite "
            f"(at offset {offset})\n")
        assert not out.exists()

    def test_non_finite_embedding_is_degenerate_data(self, tmp_path, trained,
                                                      overflow_row_file, capsys):
        # the encoder's overflow warns nowhere: stderr is the one line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("eval", "--data", overflow_row_file, "--checkpoint",
                     trained, "--out", str(tmp_path / "r.json"))
        assert rc == 4
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == \
            "degenerate input: embedding row 3 is not finite\n"

    def test_non_finite_example_is_bad_file(self, tmp_path, trained,
                                            true_nan_file, capsys):
        rc = run("eval", "--data", true_nan_file, "--checkpoint", trained,
                 "--out", str(tmp_path / "r.json"))
        assert rc == 4
        assert "bad dataset file: example row 3 is not finite" \
            in capsys.readouterr().err

    def test_unchained_encoder_is_bad_file(self, tmp_path, blob_file, capsys):
        rng = np.random.default_rng(0)
        params = ModelParams(
            encoder=[(rng.standard_normal((4, 3)), np.zeros(3)),
                     (rng.standard_normal((5, 2)), np.zeros(2))],
            W_C=rng.standard_normal((2, 2)), W_I=rng.standard_normal((2, 12)))
        ckpt = tmp_path / "unchained.ckpt"
        save_checkpoint(params, str(ckpt))
        rc = run("eval", "--data", blob_file, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.json"))
        assert rc == 4
        err = capsys.readouterr().err
        assert "bad checkpoint file: encoder layer 1 takes 5 inputs" in err


class TestVerifyBounds:
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_report_bytes_equal_indented_json(self, tmp_path, blob_file,
                                              trained, theorem):
        out = tmp_path / "bounds.json"
        assert run("verify-bounds", "--data", blob_file, "--checkpoint",
                   trained, "--theorem", str(theorem), "--out",
                   str(out)) == 0
        d = load_dataset(blob_file)
        params = load_checkpoint(trained)
        report = verify_theorem(encode(params, d.examples)[0], params.W_C,
                                params.W_I, d.coarse_labels, d.fine_labels,
                                theorem)
        assert out.read_text() == json.dumps(bound_report_dict(report),
                                             indent=2)

    def test_instance_columns_unlike_examples_names_both(
            self, tmp_path, trained, capsys):
        # the trained checkpoint has one W_I column for each of 12 examples
        other = tmp_path / "other.cfds"
        assert run("gen-data", "--kind", "blob", "--classes", "2",
                   "--fine-per-coarse", "2", "--z", "2", "--dim", "4",
                   "--out", str(other)) == 0
        rc = run("verify-bounds", "--data", str(other), "--checkpoint",
                 trained, "--out", str(tmp_path / "b.json"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "usage error: W_I has 12 instance columns, the data set has 8 "
            "examples")

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_non_finite_embedding_is_degenerate_data(
            self, tmp_path, trained, overflow_row_file, capsys, theorem):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("verify-bounds", "--data", overflow_row_file,
                     "--checkpoint", trained, "--theorem", theorem, "--out",
                     str(tmp_path / "b.json"))
        assert rc == 4
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == \
            "degenerate input: embedding row 3 is not finite\n"

    def test_failed_invariant_is_internal_error(self, tmp_path, blob_file,
                                                trained, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("alpha' exceeds alpha")
        monkeypatch.setattr(cli, "verify_theorem", broken)
        rc = run("verify-bounds", "--data", blob_file, "--checkpoint",
                 trained, "--out", str(tmp_path / "b.json"))
        assert rc == 1
        assert "internal error: check failed: alpha' exceeds alpha" \
            in capsys.readouterr().err

    def test_theorem1_holds_exit_zero(self, tmp_path, blob_file, trained):
        out = tmp_path / "bounds.json"
        rc = run("verify-bounds", "--data", blob_file, "--checkpoint",
                 trained, "--theorem", "1", "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["all_hold"] is True
        assert len(report["per_example"]) == 12

    def test_theorem2_emits_relaxation_fields(self, tmp_path, blob_file,
                                              trained):
        out = tmp_path / "bounds2.json"
        rc = run("verify-bounds", "--data", blob_file, "--checkpoint",
                 trained, "--theorem", "2", "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ("c_prime", "c_doubleprime", "alpha_prime"):
            assert key in report

    def test_non_uniform_fine_classes_unsupported(self, tmp_path, trained):
        csv_path = tmp_path / "d.csv"
        rows = ["coarse,fine,x0,x1,x2,x3"]
        rows += ["0,0,1,0,0,0", "0,0,0,1,0,0", "1,1,0,0,1,0"]
        csv_path.write_text("\n".join(rows) + "\n")
        rc = run("verify-bounds", "--data", str(csv_path), "--format", "csv",
                 "--checkpoint", trained, "--out", str(tmp_path / "b.json"))
        assert rc == 4


    def test_skipped_fine_id_unsupported(self, tmp_path):
        # fine ids {0, 2, 3, 4, 5}, two examples each, nested in coarse
        # classes: fine class 1 is empty, so the sizes are not uniform
        rows = ["coarse,fine,x0,x1"]
        for i, fine in enumerate([0, 0, 2, 2, 3, 3, 4, 4, 5, 5]):
            rows.append(f"{int(fine >= 3)},{fine},{i % 3},{i / 10}")
        csv_path = tmp_path / "gap.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", str(csv_path), "--format", "csv",
                   "--objective", "coins-imp", "--epochs", "1", "--lr",
                   "0.003", "--hidden", "8", "--embed-dim", "4",
                   "--out", str(ckpt)) == 0
        rc = run("verify-bounds", "--data", str(csv_path), "--format", "csv",
                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "b.json"))
        assert rc == 4


class TestReproduceSynthetic:
    def test_table_schema(self, tmp_path):
        rows = reproduce_synthetic([1], str(tmp_path / "cmp"), epochs=1,
                                   n=48, n_big=4, n_small=8)
        # 6 objectives x (1 seed + median)
        assert len(rows) == 12
        objectives = {r["objective"] for r in rows}
        assert objectives == {"ins", "cos", "coins", "coins-imp", "coinsP",
                              "opt"}
        medians = [r for r in rows if r["seed"] == "median"]
        assert len(medians) == 6
        header = (tmp_path / "cmp" / "comparison.csv").read_text() \
            .splitlines()[0]
        assert header == "objective,seed,R@1,R@2,R@4,R@8"

    def test_empty_seeds_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run("reproduce-synthetic", "--seeds", "", "--out",
                   str(out)) == 2
        assert capsys.readouterr().err == \
            "usage error: --seeds needs at least one value\n"
        assert not out.exists()
