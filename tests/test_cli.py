import argparse
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from coarse2fine import (cli, data, evaluate, losses, model, numerics,
                         theory, trainer)
from coarse2fine.cli import main, reproduce_synthetic
from coarse2fine.data import gen_patch_dataset, load_dataset, save_dataset
from coarse2fine.model import (ModelParams, encode, init_params,
                               load_checkpoint, param_arrays, save_checkpoint)
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
        (["--seed", "-1"], "seed must be >= 0"),
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
        (["--seed", "-1"], "seed must be >= 0"),
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

    @pytest.mark.parametrize("kind, flags, named", [
        ("patch", ["--n", "100000000"], "--n 100000000"),
        ("patch", ["--img-h", "100000", "--img-w", "100000"],
         "--img-h 100000"),
        ("blob", ["--dim", "1000000000"], "--dim 1000000000"),
        ("blob", ["--classes", "100000", "--z", "100000"],
         "--classes 100000")])
    def test_data_set_too_large_exits_2_before_allocating(
            self, tmp_path, capsys, kind, flags, named):
        # the sizes are rejected from their arithmetic alone: never generate
        # a data set that allocates them
        out = tmp_path / "x.cfds"
        tracemalloc.start()
        try:
            rc = run("gen-data", "--kind", kind, *flags, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {named}: the ")
        assert err.endswith("MiB of physical memory\n") and err.count("\n") == 1
        assert peak < 4 * 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("fmt, message", [
        ("cfds", "zero example width at offset 10"),
        ("csv", "zero example width: no row holds an x value")])
    def test_zero_example_width_is_bad_file(self, tmp_path, capsys, fmt,
                                            message):
        # 2 examples of width 0 of 1 coarse class (no fine labels in CFDS)
        path = tmp_path / f"d.{fmt}"
        if fmt == "cfds":
            path.write_bytes(data.MAGIC + struct.pack("<IIIIB", 2, 0, 1, 0, 1)
                             + struct.pack("<II", 0, 0))
        else:
            path.write_text("coarse,fine,x0\n0,0\n0,0\n")
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", str(path), "--format", fmt,
                   "--epochs", "1", "--out", str(out)) == 4
        assert capsys.readouterr().err == f"bad dataset file: {message}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("flag, value", [
        ("--embed-dim", "1000000000000"), ("--hidden", "64,1000000000000")])
    def test_run_too_large_exits_2_before_allocating(self, tmp_path,
                                                     blob_file, capsys,
                                                     flag, value):
        # the sizes are rejected from their arithmetic alone: never start a
        # run that allocates them
        ckpt = tmp_path / "m.ckpt"
        tracemalloc.start()
        try:
            rc = run("train", "--data", blob_file, "--epochs", "1", flag,
                     value, "--out", str(ckpt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} {value}: the parameters")
        assert err.endswith("MiB of physical memory\n") and err.count("\n") == 1
        assert peak < 4 * 2 ** 20
        assert not ckpt.exists()

    def test_batch_too_large_names_the_flag(self):
        # a batch never holds more than n rows, so --batch counts at large n
        cfg = train_config("--objective", "coins", "--batch", "1000000")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^--batch 1000000: "):
                trainer._check_run_size(cfg, 10 ** 6, 4, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        trainer._check_run_size(cfg, 1000, 4, 2)        # n = 1000 fits

    def test_residual_memory_error_exits_2_in_one_line(self, tmp_path,
                                                       blob_file, capsys,
                                                       monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                              "shape (1000000, 1000000) and data type float64")
        monkeypatch.setattr(cli, "train", exhausted)
        assert run("train", "--data", blob_file, "--out",
                   str(tmp_path / "m.ckpt")) == 2
        assert capsys.readouterr().err == (
            "out of memory: Unable to allocate 7.28 TiB for an array with "
            "shape (1000000, 1000000) and data type float64\n")

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

    @pytest.mark.parametrize("objective", trainer.OBJECTIVES)
    def test_deterministic_checkpoints(self, tmp_path, blob_file, objective):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            rc = run("train", "--data", blob_file, "--objective", objective,
                     "--epochs", "4", "--lr", "0.003", "--clusters", "4",
                     "--hidden", "8", "--embed-dim", "4", "--seed", "3",
                     "--out", str(path))
            assert rc == 0
            outs.append((path.read_bytes(),
                         (tmp_path / f"{name}.metrics.jsonl").read_bytes()))
        assert outs[0] == outs[1]

    def test_opt_without_fine_labels(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("coarse,fine,x0\n0,,1.0\n0,,2.0\n1,,3.0\n1,,4.0\n")
        rc = run("train", "--data", str(csv_path), "--format", "csv",
                 "--objective", "opt", "--epochs", "1",
                 "--out", str(tmp_path / "m.ckpt"))
        assert rc == 2

    def test_proxy_phase_skipped_warns_but_succeeds(self, tmp_path, blob_file):
        """A coinsP run whose proxy phase would start after the last epoch
        trains coins-imp, byte for byte."""
        flags = ("--data", blob_file, "--epochs", "3", "--m-epoch", "5",
                 "--lr", "0.003", "--hidden", "8", "--embed-dim", "4",
                 "--clusters", "4")
        with pytest.warns(UserWarning):
            rc = run("train", *flags, "--objective", "coinsP",
                     "--out", str(tmp_path / "p.ckpt"))
        assert rc == 0
        assert run("train", *flags, "--objective", "coins-imp",
                   "--out", str(tmp_path / "i.ckpt")) == 0
        for suffix in (".ckpt", ".ckpt.metrics.jsonl"):
            assert (tmp_path / f"p{suffix}").read_bytes() == \
                (tmp_path / f"i{suffix}").read_bytes()

    @pytest.mark.parametrize("flags", [
        ("--img-h", "32"), ("--img-w", "32"), ("--img-h", "0", "--img-w", "32"),
        ("--img-h", "-2", "--img-w", "-2"),          # -2 x -2 x 3 = 12
        ("--img-h", "2", "--img-w", "3")])
    def test_bad_image_flags_are_usage_errors(self, tmp_path, capsys, flags):
        """A lone image flag, one below 1, or a shape whose img_h x img_w x 3
        is not the data's width exits 2 before training, writing nothing."""
        data = tmp_path / "blob.cfds"
        assert run("gen-data", "--kind", "blob", "--dim", "12",
                   "--out", str(data)) == 0
        capsys.readouterr()
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", str(data), "--epochs", "1", *flags,
                   "--out", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --img-h ")
        assert "--img-w" in err and "the data's width 12" in err
        assert err.count("\n") == 1
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.metrics.jsonl").exists()

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

    def test_unwritable_metrics_leave_no_checkpoint(self, tmp_path,
                                                     blob_file):
        rc = run("train", "--data", blob_file, "--epochs", "1", "--hidden",
                 "8", "--embed-dim", "4", "--out", str(tmp_path / "m.ckpt"),
                 "--metrics", str(tmp_path / "absent" / "m.jsonl"))
        assert rc == 3
        # no checkpoint, and no temporary file beside it
        assert [p.name for p in tmp_path.iterdir()] == ["blob.cfds"]

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
        (["--seed", "-1"], "usage error: seed must be >= 0\n"),
        (["--objective", "coins", "--lambda-i", "nan"], "lambda_I must be finite"),
        (["--objective", "coinsP", "--lambda-p", "inf"], "lambda_P must be finite"),
        (["--lr", "nan"], "lr must be finite"),
        (["--lr", "inf"], "lr must be finite"),
        (["--cosine", "--temp", "inf"], "temperature must be finite"),
        (["--wd", "inf"], "weight_decay must be finite"),
        (["--decay-factor", "inf", "--decay-epochs", "1"],
         "lr_decay_factor must be finite"),
        (["--decay-epochs", "-1", "--lr", "0.1"],
         "usage error: lr decay epochs must be >= 0\n"),
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
        ({"lr_decay_epochs": [-1, 3]}, "lr decay epochs must be >= 0"),
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

        modules = (losses, trainer)
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
            {"sgd"})

    @pytest.mark.parametrize("objective", ["coins", "coinsP"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_patch_train_bytes_match_fresh_step_arrays(
            self, tmp_path, monkeypatch, dtype, objective):
        # the batch buffer is float64 whatever the data set's dtype
        self.assert_workspaces_move_no_byte(
            monkeypatch,
            lambda tag: self.small_patch_train(tmp_path, tag, objective,
                                               dtype),
            {"batch", "sgd"})

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

    # sha256 of the small blob train's `eval` report and its theorem 1 and
    # theorem 2 bound reports, recorded on the SkylakeX kernel set before
    # checkpoints were read straight into their arrays
    PINNED_READS = {
        "SkylakeX": {
            "coins": ("cad41ad3eaf34da9b2bb1bb8f0826983"
                      "8eb45d563d9f8d9de5c1cb43ae074980",
                      "afec0e621245322cd998f6bcefa3201f"
                      "d83dcc9b68d4f020c9c83f459d1b8147",
                      "a9e68762759c4a7360eb28630175b180"
                      "42479bca7fbdd93da6c815748efd031d"),
            "coinsP": ("4a4eb9482bd8ee8c0a1d16dbffb0da38"
                       "6e2bbfc3568ce52500ac3d7fa9469e01",
                       "83e87714a077184d097d6a302219855c"
                       "c4d8601768b3f158d2ee2fcee31bf226",
                       "e7fde58775b1d7c8b8decbca6ed3629e"
                       "051a8cbb2bb72354a8bc33fd0ad69d93")}}

    @pytest.mark.parametrize("objective", ["coins", "coinsP"])
    def test_read_outputs_are_pinned(self, tmp_path, objective):
        core = openblas_core()
        if core not in self.PINNED_READS:
            pytest.skip(f"no digests recorded for BLAS kernel set {core}")
        self.small_blob_train(tmp_path, "m", objective)
        args = ["--data", str(tmp_path / "b.cfds"),
                "--checkpoint", str(tmp_path / "m.ckpt")]
        commands = [["eval"], ["verify-bounds", "--theorem", "1"],
                    ["verify-bounds", "--theorem", "2"]]
        digests = []
        for i, command in enumerate(commands):
            out = tmp_path / f"r{i}.json"
            assert run(*command, *args, "--out", str(out)) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert tuple(digests) == self.PINNED_READS[core][objective]


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

    def test_zero_width_encoder_layer_is_bad_file(self, tmp_path, blob_file,
                                                  capsys):
        # layer 1 maps 3 columns to 0: its output width is at offset 22
        params = ModelParams(
            encoder=[(np.ones((4, 3)), np.zeros(3)),
                     (np.ones((3, 0)), np.zeros(0))],
            W_C=np.ones((0, 2)), W_I=np.ones((0, 12)))
        ckpt, out = tmp_path / "zero.ckpt", tmp_path / "r.json"
        save_checkpoint(params, str(ckpt))
        assert run("eval", "--data", blob_file, "--checkpoint", str(ckpt),
                   "--out", str(out)) == 4
        assert capsys.readouterr().err == \
            "bad checkpoint file: zero-width encoder layer 1 at offset 22\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval"],
                                         ["verify-bounds", "--theorem", "1"],
                                         ["verify-bounds", "--theorem", "2"]])
    def test_coarse_head_narrower_than_the_classes_is_usage_error(
            self, tmp_path, capsys, command):
        path, ckpt = tmp_path / "d.cfds", tmp_path / "m.ckpt"
        save_dataset(data.gen_blob_dataset(4, 2, 3, 4, seed=0), str(path))
        save_checkpoint(init_params(4, [3], 2, 2, 24, seed=0), str(ckpt))
        out = tmp_path / "r.json"
        assert run(*command, "--data", str(path), "--checkpoint", str(ckpt),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "usage error: checkpoint coarse head has 2 columns, fewer than "
            "the data's 4 coarse classes\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_nan_constant_exits_4_without_a_report(self, tmp_path, capsys,
                                                   theorem):
        # the overflow case of tests/test_theory.py, through an identity
        # encoder: log beta is NaN, which once read as log(1/3)
        from test_theory import overflow_case
        emb, W_C, W_I, coarse, fine = overflow_case()
        save_dataset(data.Dataset(emb, coarse, 3, fine, 256),
                     str(tmp_path / "d.cfds"))
        save_checkpoint(ModelParams(encoder=[(np.eye(2), np.zeros(2))],
                                    W_C=W_C, W_I=W_I),
                        str(tmp_path / "m.ckpt"))
        out = tmp_path / "b.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("verify-bounds", "--data", str(tmp_path / "d.cfds"),
                     "--checkpoint", str(tmp_path / "m.ckpt"), "--theorem",
                     theorem, "--out", str(out))
        assert rc == 4
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "unsupported data: log beta is NaN: a logit is NaN or "
            "overflows\n")
        assert not out.exists()

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

    def test_undefined_bound_is_unsupported_data(self, tmp_path, capsys):
        # every coarse class holds one example: its within-coarse softmax
        # has one column, so alpha is exactly 1 and 1 - alpha is 0
        data_path, ckpt = tmp_path / "one.cfds", tmp_path / "m.ckpt"
        assert run("gen-data", "--kind", "blob", "--classes", "3",
                   "--fine-per-coarse", "1", "--z", "1", "--dim", "4",
                   "--out", str(data_path)) == 0
        assert run("train", "--data", str(data_path), "--epochs", "2",
                   "--batch", "2", "--hidden", "4", "--embed-dim", "2",
                   "--out", str(ckpt)) == 0
        capsys.readouterr()
        out = tmp_path / "b.json"
        assert run("verify-bounds", "--data", str(data_path), "--checkpoint",
                   str(ckpt), "--theorem", "2", "--out", str(out)) == 4
        assert capsys.readouterr().err == (
            "unsupported data: alpha or beta is exactly 1; the 1-alpha "
            "denominator in the bound is undefined\n")
        assert not out.exists()

    def test_zero_coarse_columns_is_bad_file(self, tmp_path, blob_file,
                                             capsys):
        # C follows the magic, the layer count and two layer shapes
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "r.json"
        save_checkpoint(init_params(4, [3], 2, 0, 12, seed=0), str(ckpt))
        assert run("verify-bounds", "--data", blob_file, "--checkpoint",
                   str(ckpt), "--out", str(out)) == 4
        assert capsys.readouterr().err == \
            "bad checkpoint file: zero coarse-head columns at offset 26\n"
        assert not out.exists()

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


class TestReadReportWrites:
    """`eval` and `verify-bounds` write their report under a temporary name
    beside --out and rename it into place: a failure while formatting or
    writing leaves an existing report as it was, and no temporary file."""

    COMMANDS = {"eval": ["eval"],
                "theorem1": ["verify-bounds", "--theorem", "1"],
                "theorem2": ["verify-bounds", "--theorem", "2"]}

    def run_over_old(self, tmp_path, blob_file, trained, command):
        out = tmp_path / "r.json"
        out.write_bytes(b"old report\n")
        rc = run(*self.COMMANDS[command], "--data", blob_file,
                 "--checkpoint", trained, "--out", str(out))
        assert out.read_bytes() == b"old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "blob.cfds", "m.ckpt", "m.ckpt.metrics.jsonl", "r.json"]
        return rc

    @pytest.mark.parametrize("command", ["eval", "theorem1", "theorem2"])
    def test_format_error_keeps_old_report(self, tmp_path, blob_file,
                                           trained, capsys, monkeypatch,
                                           command):
        def broken(self):
            raise RuntimeError("format failed")
        monkeypatch.setattr(evaluate.EvalReport, "to_dict", broken)
        monkeypatch.setattr(theory.BoundReport, "to_json", broken)
        assert self.run_over_old(tmp_path, blob_file, trained, command) == 1
        assert capsys.readouterr().err == \
            "internal error: RuntimeError: format failed\n"

    @pytest.mark.parametrize("command", ["eval", "theorem1", "theorem2"])
    def test_write_error_keeps_old_report(self, tmp_path, blob_file, trained,
                                          capsys, monkeypatch, command):
        def broken(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(cli.os, "replace", broken)
        assert self.run_over_old(tmp_path, blob_file, trained, command) == 3
        assert capsys.readouterr().err == "io error: rename failed\n"

    def test_violated_bound_still_writes_its_report(self, tmp_path,
                                                    blob_file, trained,
                                                    monkeypatch):
        def violated(*args, **kwargs):
            report = verify_theorem(*args, **kwargs)
            report.all_hold = False
            return report
        monkeypatch.setattr(cli, "verify_theorem", violated)
        out = tmp_path / "r.json"
        out.write_bytes(b"old report\n")
        assert run("verify-bounds", "--data", blob_file, "--checkpoint",
                   trained, "--out", str(out)) == 1
        assert json.loads(out.read_text())["all_hold"] is False
        assert not list(tmp_path.glob("*.tmp"))


class TestTwoThreadReads:
    """The O(n^2) passes of `eval` and theorem 1 run on one thread or two
    (`numerics.threaded_row_blocks`); the reports are the same bytes."""

    # (coarse classes, fine per coarse, z) of n = 200, 255, 300 and 512
    SHAPES = {200: (4, 5, 10), 255: (3, 5, 17), 300: (4, 5, 15),
              512: (4, 8, 16)}

    @staticmethod
    def untrained_run(tmp_path, n):
        """A blob data set of n examples and an untrained model of it."""
        classes, fine, z = TestTwoThreadReads.SHAPES[n]
        d = data.gen_blob_dataset(classes, fine, z, 8, seed=n)
        data_path, ckpt = tmp_path / f"d{n}.cfds", tmp_path / f"m{n}.ckpt"
        save_dataset(d, str(data_path))
        save_checkpoint(init_params(8, [16], 6, classes, n, seed=n),
                        str(ckpt))
        return ["--data", str(data_path), "--checkpoint", str(ckpt)]

    @pytest.mark.parametrize("block", [1, 3, 128])
    @pytest.mark.parametrize("n", [200, 255, 300, 512])
    def test_reports_equal_on_one_and_two_threads(self, tmp_path,
                                                  monkeypatch, n, block):
        # below 128, every walker pass in blocks of _ROW_BLOCK // 2 rows (at
        # least 1); at 128, the walker's own blocks
        if block < 128:
            monkeypatch.setattr(numerics, "_ROW_BLOCK", block)
            monkeypatch.setattr(numerics, "_BLOCK_CELLS", 0)
        args = self.untrained_run(tmp_path, n)
        reports = {}
        for threads in (1, 2):
            monkeypatch.setattr(numerics, "_threads",
                                lambda n, width: threads)
            for name, command in TestReadReportWrites.COMMANDS.items():
                out = tmp_path / f"{name}-{threads}.json"
                assert run(*command, *args, "--out", str(out)) == 0
                reports[name, threads] = out.read_bytes()
        for name in TestReadReportWrites.COMMANDS:
            assert reports[name, 1] == reports[name, 2], name

    def test_wide_reports_equal_on_one_and_two_threads(self, tmp_path,
                                                       monkeypatch):
        # n = 4096 with F = 1024 fine classes: the fine-class pass is wide
        # too, so every read pass but theorem 2's stacks takes 64-row blocks
        d = data.gen_blob_dataset(4, 256, 4, 8, seed=4096)
        save_dataset(d, str(tmp_path / "d.cfds"))
        save_checkpoint(init_params(8, [16], 6, 4, d.n, seed=1),
                        str(tmp_path / "m.ckpt"))
        args = ["--data", str(tmp_path / "d.cfds"),
                "--checkpoint", str(tmp_path / "m.ckpt")]
        reports = {}
        for threads in (1, 2):
            monkeypatch.setattr(numerics, "_threads",
                                lambda n, width: threads)
            for name, command in TestReadReportWrites.COMMANDS.items():
                out = tmp_path / f"{name}-{threads}.json"
                assert run(*command, *args, "--out", str(out)) == 0
                reports[name, threads] = out.read_bytes()
        for name in TestReadReportWrites.COMMANDS:
            assert reports[name, 1] == reports[name, 2], name

    # n = classes x fine per coarse x z
    @pytest.mark.parametrize("shape", [(4, 4, 40), (4, 5, 35), (4, 4, 64)],
                             ids=["n640", "n700", "n1024"])
    def test_coins_train_equal_on_one_and_two_threads(self, tmp_path,
                                                      monkeypatch, shape):
        """The epoch metrics pass scores the n-wide instance head in the
        walker's blocks: the checkpoint and metrics are the same bytes on
        one thread or two."""
        path = tmp_path / "d.cfds"
        save_dataset(data.gen_blob_dataset(*shape, 4, seed=1), str(path))
        outputs = {}
        for threads in (1, 2):
            monkeypatch.setattr(numerics, "_threads",
                                lambda n, width: threads)
            out = tmp_path / f"m{threads}.ckpt"
            assert run("train", "--data", str(path), "--objective", "coins",
                       "--epochs", "2", "--batch", "128", "--hidden", "8",
                       "--embed-dim", "4", "--lr", "0.01", "--out",
                       str(out)) == 0
            outputs[threads] = (out.read_bytes(), Path(
                f"{out}.metrics.jsonl").read_bytes())
        assert outputs[1] == outputs[2]

    def test_coins_train_error_on_the_helper_exits_5(self, tmp_path,
                                                     monkeypatch, capsys):
        """A metrics-pass block that raises on the helper thread ends a
        threaded coins train as on one thread: exit 5, nothing written, and
        (the autouse fixture) no thread left running."""
        real, helper_raised = losses.softmax_core, threading.Event()

        def failing(x, at=None):
            if threading.current_thread() is not threading.main_thread():
                helper_raised.set()
                raise FloatingPointError("overflow on the helper")
            if threading.active_count() > 1:     # a walker pass has begun
                assert helper_raised.wait(timeout=60)
            return real(x, at)

        monkeypatch.setattr(losses, "softmax_core", failing)
        monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
        path, ckpt = tmp_path / "d.cfds", tmp_path / "m.ckpt"
        save_dataset(data.gen_blob_dataset(4, 4, 40, 4, seed=1), str(path))
        assert run("train", "--data", str(path), "--objective", "coins",
                   "--epochs", "1", "--batch", "128", "--hidden", "8",
                   "--embed-dim", "4", "--out", str(ckpt)) == 5
        assert capsys.readouterr().err == ("training diverged: overflow on "
                                           "the helper in the epoch 1 "
                                           "metrics pass\n")
        assert not ckpt.exists()

    def test_blob_eval_shape_outputs_equal_on_one_and_two_threads(
            self, tmp_path, monkeypatch):
        """Blobs of 64 columns at n = 4096 behind a 128-wide hidden layer
        (the benchmark's blob-eval shape): the example reads and the
        cache-free forwards are 4096 x 128 passes, which take two threads.
        A coins-imp train's checkpoint and metrics and the three read
        reports are the same bytes on one thread or two."""
        monkeypatch.setattr(numerics.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        assert numerics._threads(4096, 128) == 2
        path = tmp_path / "d.cfds"
        save_dataset(data.gen_blob_dataset(32, 8, 16, 64, noise=1.0, seed=1),
                     str(path))
        outputs = {}
        for threads in (1, 2):
            monkeypatch.setattr(numerics, "_threads",
                                lambda n, width: threads)
            ckpt = tmp_path / f"m{threads}.ckpt"
            assert run("train", "--data", str(path), "--objective",
                       "coins-imp", "--epochs", "2", "--batch", "256",
                       "--hidden", "128", "--embed-dim", "32", "--lr", "0.01",
                       "--out", str(ckpt)) == 0
            files = [ckpt.read_bytes(),
                     Path(f"{ckpt}.metrics.jsonl").read_bytes()]
            for name, command in TestReadReportWrites.COMMANDS.items():
                out = tmp_path / f"{name}-{threads}.json"
                rc = run(*command, "--data", str(path), "--checkpoint",
                         str(ckpt), "--out", str(out))
                files.append((rc, out.read_bytes()))
            outputs[threads] = files
        assert outputs[1] == outputs[2]

    @staticmethod
    def patch_width_run(tmp_path, monkeypatch, shape, *flags):
        """A `train` on n = prod(shape) blob examples of 3072 columns, a
        patch image's width (read as 32 x 32 x 3 images), then `eval` and
        both `verify-bounds`, on one thread and on two: asserts that their
        outputs are the same bytes, and returns the (width, rows) of each
        wide example read and forward (a read command's read and forward
        are one walk)."""
        path = tmp_path / "d.cfds"
        save_dataset(data.gen_blob_dataset(*shape, 3072, coarse_spread=1.0,
                                           fine_spread=0.3, seed=1),
                     str(path))
        walked, real = [], numerics.threaded_row_blocks

        def spy(n, body, *widths, columns=0):
            walked.append((columns, n))
            real(n, body, *widths, columns=columns)

        monkeypatch.setattr(data, "threaded_row_blocks", spy)
        monkeypatch.setattr(model, "threaded_row_blocks", spy)
        outputs = {}
        for threads in (1, 2):
            monkeypatch.setattr(numerics, "_threads",
                                lambda n, width: threads)
            walked.clear()
            ckpt = tmp_path / f"m{threads}.ckpt"
            assert run("train", "--data", str(path), "--img-h", "32",
                       "--img-w", "32", "--lr", "0.01", *flags,
                       "--out", str(ckpt)) == 0
            files = [ckpt.read_bytes(),
                     Path(f"{ckpt}.metrics.jsonl").read_bytes()]
            for name, command in TestReadReportWrites.COMMANDS.items():
                out = tmp_path / f"{name}-{threads}.json"
                rc = run(*command, "--data", str(path), "--checkpoint",
                         str(ckpt), "--out", str(out))
                files.append((rc, out.read_bytes()))
            outputs[threads] = files, list(walked)
        assert outputs[1] == outputs[2]
        return walked

    # n = coarse classes x fine per coarse x z
    @pytest.mark.parametrize("shape", [(2, 1, 67), (4, 8, 16), (4, 5, 35)],
                             ids=["n134", "n512", "n700"])
    def test_patch_width_outputs_equal_on_one_and_two_threads(self, tmp_path,
                                                               monkeypatch,
                                                               shape):
        """The wide example reads and forwards walk 64-row blocks, on one
        thread or two alike: the checkpoint, metrics and reports are the
        same bytes. Training batches of 32 rows are narrow."""
        n = int(np.prod(shape))
        walked = self.patch_width_run(
            tmp_path, monkeypatch, shape, "--epochs", "2", "--batch", "32",
            "--hidden", "8", "--embed-dim", "4")
        # the load and two metrics passes of train, and in each of the
        # three read commands one streamed read through the encoder
        assert walked == [(3072, n)] * 6

    def test_odd_width_wide_batches_equal_on_one_and_two_threads(
            self, tmp_path, monkeypatch):
        """Batches of 256 patch-width rows are wide, but a training step
        keeps the encoder cache and so takes the whole products; only the
        metrics passes and the read commands walk blocks."""
        walked = self.patch_width_run(
            tmp_path, monkeypatch, (4, 8, 16), "--epochs", "2", "--batch",
            "256", "--hidden", "100,30", "--embed-dim", "13")
        assert walked == [(3072, 512)] * 6

    @pytest.mark.parametrize("command", ["eval", "theorem1"])
    def test_non_finite_row_in_a_late_block_exits_4(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    command):
        # row 250 of 300 is in the last block of 64 rows, which either
        # thread may take
        monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
        args = self.untrained_run(tmp_path, 300)
        d = load_dataset(args[1])
        d.examples[250] = np.finfo(np.float64).max
        save_dataset(d, args[1])
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*TestReadReportWrites.COMMANDS[command], *args,
                     "--out", str(out))
        assert rc == 4
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == \
            "degenerate input: embedding row 250 is not finite\n"
        assert not out.exists()


class TestStreamedReads:
    """`eval` and `verify-bounds` hand a CFDS example block to the encoder
    as it is read (`cli._load_run`): the reports are the bytes of the
    in-memory path (`load_dataset`, then `embed`), the n x dim array is
    never held, and the data file's errors still win over the
    checkpoint's."""

    # n = coarse classes x fine per coarse x z
    SHAPES = {134: (2, 1, 67), 512: (4, 8, 16), 700: (4, 5, 35)}

    @staticmethod
    def wide_run(tmp_path, n, dtype="<f8", cosine=False, dim=3072):
        """A blob data set of n examples of `dim` columns in `dtype`, and an
        untrained model of it: (data path, checkpoint path, params)."""
        classes, fine, z = TestStreamedReads.SHAPES[n]
        d = data.gen_blob_dataset(classes, fine, z, dim, coarse_spread=1.0,
                                  fine_spread=0.3, seed=n)
        d.examples = d.examples.astype(dtype)
        path, ckpt = tmp_path / "d.cfds", tmp_path / "m.ckpt"
        save_dataset(d, str(path))
        params = init_params(dim, [8], 4, classes, n, seed=n, cosine=cosine)
        save_checkpoint(params, str(ckpt))
        return path, ckpt, load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cosine", [False, True], ids=["plain", "cosine"])
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    @pytest.mark.parametrize("n", [134, 512, 700])
    def test_reports_equal_the_in_memory_path(self, tmp_path, monkeypatch,
                                              n, dtype, cosine, threads):
        monkeypatch.setattr(numerics, "_threads", lambda n, width: threads)
        path, ckpt, params = self.wide_run(tmp_path, n, dtype, cosine)
        d = load_dataset(str(path))
        emb = model.embed(params, d.examples)
        expected = {
            "eval": json.dumps(evaluate.evaluate_model(
                params, emb, d, [1, 2, 4, 8]).to_dict(), indent=2),
            **{f"theorem{t}": verify_theorem(
                emb, params.W_C, params.W_I, d.coarse_labels,
                d.fine_labels, which=t).to_json() for t in (1, 2)}}
        for name, command in TestReadReportWrites.COMMANDS.items():
            out = tmp_path / f"{name}.json"
            assert run(*command, "--data", str(path), "--checkpoint",
                       str(ckpt), "--out", str(out)) in (0, 1)
            assert out.read_text() == expected[name], name

    @pytest.mark.parametrize("command", list(TestReadReportWrites.COMMANDS))
    def test_peak_memory_below_half_the_example_block(self, tmp_path,
                                                      monkeypatch, command):
        monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
        path, ckpt, _ = self.wide_run(tmp_path, 700)
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            assert run(*TestReadReportWrites.COMMANDS[command], "--data",
                       str(path), "--checkpoint", str(ckpt), "--out",
                       str(out)) in (0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 700 * 3072 * 8 / 2

    # the data file's first error (header, examples, labels) wins over any
    # checkpoint error; with a sound file, the checkpoint's is reported
    DATA_ERRORS = {
        "header": (4, "bad dataset file: unknown dtype code 7 at offset 22"),
        "examples": (4, "bad dataset file: example row 100 is not finite "
                        f"(at offset {23 + 100 * 3072 * 8})"),
        "labels": (4, "bad dataset file: coarse label out of range at "
                      f"offset {23 + 134 * 3072 * 8 + 4 * 5}")}
    CHECKPOINT_ERRORS = {
        "missing": (3, "io error: [Errno 2] No such file or directory: "),
        "corrupt": (4, "bad checkpoint file: bad magic at offset 0: "
                       "b'CFCK0\\x00'"),
        "width": (2, "usage error: checkpoint input dimension does not "
                     "match dataset"),
        "coarse": (2, "usage error: checkpoint coarse head has 1 columns, "
                      "fewer than the data's 2 coarse classes")}

    @pytest.mark.parametrize("checkpoint", [None, *CHECKPOINT_ERRORS])
    @pytest.mark.parametrize("damage", [None, *DATA_ERRORS])
    @pytest.mark.parametrize("command", list(TestReadReportWrites.COMMANDS))
    def test_data_file_errors_win_over_checkpoint_errors(
            self, tmp_path, capsys, command, damage, checkpoint):
        path, ckpt, params = self.wide_run(tmp_path, 134)
        raw = bytearray(path.read_bytes())
        if damage == "header":
            raw[22] = 7
        elif damage == "examples":
            at = 23 + 100 * 3072 * 8
            raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        elif damage == "labels":
            at = 23 + 134 * 3072 * 8 + 4 * 5
            raw[at:at + 4] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        if checkpoint == "missing":
            ckpt.unlink()
        elif checkpoint == "corrupt":
            ckpt.write_bytes(b"CFCK0\x00" + ckpt.read_bytes()[6:])
        elif checkpoint == "width":
            save_checkpoint(init_params(3071, [8], 4, 2, 134, seed=0),
                            str(ckpt))
        elif checkpoint == "coarse":
            save_checkpoint(init_params(3072, [8], 4, 1, 134, seed=0),
                            str(ckpt))
        out = tmp_path / "r.json"
        rc = run(*TestReadReportWrites.COMMANDS[command], "--data", str(path),
                 "--checkpoint", str(ckpt), "--out", str(out))
        err = capsys.readouterr().err
        if damage is None and checkpoint is None:
            assert rc in (0, 1) and out.exists()
            return
        code, message = (self.DATA_ERRORS[damage] if damage
                         else self.CHECKPOINT_ERRORS[checkpoint])
        assert (rc, err[:len(message)]) == (code, message)
        assert err.count("\n") == 1 and not out.exists()

    def test_short_read_in_a_helper_block_names_its_offset(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        """A wide file cut short inside block 5 of 64 rows, read through
        `eval`: the helper thread takes that block while the caller waits
        inside its first one, and the error names the first missing byte,
        as on one thread."""
        d = data.gen_blob_dataset(2, 1, 320, 640, seed=0)  # 10 blocks
        path, ckpt = tmp_path / "d.cfds", tmp_path / "m.ckpt"
        save_dataset(d, str(path))
        save_checkpoint(init_params(640, [8], 4, 2, 640, seed=0), str(ckpt))
        cut = 23 + 8 * 640 * (5 * 64 + 7) + 16
        path.write_bytes(path.read_bytes()[:cut])
        real_fstat, real_preadv = os.fstat, os.preadv

        def fstat(fd):                # the data file keeps its old size
            st = real_fstat(fd)
            if st.st_size != cut:
                return st
            return os.stat_result(st[:6] + (10 ** 9,) + st[7:])

        helper_short = threading.Event()

        def preadv(fd, buffers, offset):
            on_helper = threading.current_thread() is not threading.main_thread()
            if not on_helper:
                assert helper_short.wait(timeout=60)
            got = real_preadv(fd, buffers, offset)
            if on_helper and got < len(buffers[0]):
                helper_short.set()
            return got

        monkeypatch.setattr(os, "fstat", fstat)
        monkeypatch.setattr(os, "preadv", preadv)
        monkeypatch.setattr(numerics, "_threads", lambda n, width: 2)
        out = tmp_path / "r.json"
        assert run("eval", "--data", str(path), "--checkpoint", str(ckpt),
                   "--out", str(out)) == 4
        assert capsys.readouterr().err == (
            f"bad dataset file: truncated example block at offset {cut}\n")
        assert helper_short.is_set() and not out.exists()


class TestEmptyAndMalformedData:
    """An empty data set, and a malformed CSV row, are bad files (exit 4)
    named in one line, in every command that reads data."""

    COMMANDS = [["train", "--epochs", "1"], ["eval"],
                ["verify-bounds", "--theorem", "1"]]

    @staticmethod
    def run_on(tmp_path, command, path, fmt):
        out = tmp_path / "out"
        extra = [] if command[0] == "train" else [
            "--checkpoint", str(tmp_path / "missing.ckpt")]
        rc = run(*command, "--data", str(path), "--format", fmt, *extra,
                 "--out", str(out))
        assert not out.exists()
        return rc

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_zero_examples_is_bad_file(self, tmp_path, capsys, command):
        path = tmp_path / "d.cfds"
        path.write_bytes(data.MAGIC + struct.pack("<IIIIB", 0, 4, 2, 2, 1))
        assert self.run_on(tmp_path, command, path, "cfds") == 4
        assert capsys.readouterr().err == \
            "bad dataset file: zero examples at offset 6\n"

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_header_only_csv_is_bad_file(self, tmp_path, capsys, command):
        path = tmp_path / "d.csv"
        path.write_text("coarse,fine,x0,x1\n")
        assert self.run_on(tmp_path, command, path, "csv") == 4
        assert capsys.readouterr().err == "bad dataset file: no example rows\n"

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1.0,2.0\n1,1,3.0\n",
         "line 3 has 3 fields, where the first example row has 4"),
        ("0,0,1.0,2.0\n1,x,3.0,4.0\n",
         "line 3: fine label 'x' is not an integer"),
        ("0,0,1.0,2.0\n1.5,1,3.0,4.0\n",
         "line 3: coarse label '1.5' is not an integer"),
        ("0,0,1.0,2.0\n-1,1,3.0,4.0\n", "line 3: coarse label -1 is negative"),
        ("0,-2,1.0,2.0\n", "line 2: fine label -2 is negative"),
        ("0,0,1.0,abc\n",
         "line 2: could not convert string to float: 'abc'")],
        ids=["ragged", "fine-not-int", "coarse-not-int", "negative-coarse",
             "negative-fine", "x-not-number"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_malformed_csv_row_is_bad_file(self, tmp_path, capsys, command,
                                           rows, message):
        path = tmp_path / "d.csv"
        path.write_text("coarse,fine,x0,x1\n" + rows)
        assert self.run_on(tmp_path, command, path, "csv") == 4
        assert capsys.readouterr().err == f"bad dataset file: {message}\n"


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

    def test_comparison_bytes(self, tmp_path):
        # csv's \r\n rows, and the JSON list without a final newline
        rows = reproduce_synthetic([1], str(tmp_path / "cmp"), epochs=1,
                                   n=48, n_big=4, n_small=8)
        table = io.StringIO(newline="")
        writer = csv.DictWriter(table, fieldnames=[
            "objective", "seed", "R@1", "R@2", "R@4", "R@8"])
        writer.writeheader()
        writer.writerows(rows)
        assert (tmp_path / "cmp" / "comparison.csv").read_bytes() == \
            table.getvalue().encode()
        assert table.getvalue().count("\r\n") == len(rows) + 1
        assert (tmp_path / "cmp" / "comparison.json").read_bytes() == \
            json.dumps(rows, indent=2).encode()

    def test_failed_json_write_leaves_neither_file(self, tmp_path,
                                                   monkeypatch):
        """comparison.json's write fails after comparison.csv's is done:
        neither file, and no temporary file, is left."""
        real = cli._text

        def failing(text):
            if not text.startswith("["):       # a run's metrics: written
                return real(text)

            def write(path):
                with open(path, "w") as fh:
                    fh.write(text[:10])
                raise OSError(28, "No space left on device")
            return write

        monkeypatch.setattr(cli, "_text", failing)
        out = tmp_path / "cmp"
        with pytest.raises(OSError, match="No space left"):
            reproduce_synthetic([1], str(out), epochs=1, n=48, n_big=4,
                                n_small=8)
        assert not (out / "comparison.csv").exists()
        assert not (out / "comparison.json").exists()
        assert not list(out.glob("*.tmp"))
        assert (out / "seed1" / "opt.ckpt").exists()

    def test_empty_seeds_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run("reproduce-synthetic", "--seeds", "", "--out",
                   str(out)) == 2
        assert capsys.readouterr().err == \
            "usage error: --seeds needs at least one value\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1", "1,-1"])
    def test_negative_seed_writes_nothing(self, tmp_path, capsys, seeds):
        out = tmp_path / "cmp"
        assert run("reproduce-synthetic", "--seeds", seeds, "--out",
                   str(out)) == 2
        assert capsys.readouterr().err == "usage error: seed must be >= 0\n"
        assert not out.exists()
