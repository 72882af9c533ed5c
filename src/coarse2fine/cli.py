"""Command-line entry points: gen-data, train, eval, verify-bounds, and
the end-to-end synthetic comparison (reproduce-synthetic).

Exit codes: 0 success (and bounds hold), 1 internal error (a failed
invariant check among them) / bounds violated, 2 usage error (a run too
large for the machine's memory among them), 3 IO failure, 4 unsupported
or degenerate data (e.g. a non-finite embedding, a NaN bound constant,
or alpha or beta exactly 1, which leaves the bound undefined) or a
malformed dataset or checkpoint file, 5 training diverged (a
non-finite loss, gradient or epoch metric; nothing is written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import statistics
import sys
import typing

from .data import (DatasetFormatError, gen_blob_dataset, gen_patch_dataset,
                   load_dataset, load_dataset_csv, read_header, save_dataset)
from .evaluate import evaluate_model
from .model import (BlockEmbedder, CheckpointFormatError, embed,
                    load_checkpoint, save_checkpoint)
from .numerics import DegenerateInputError, InvariantError
from .theory import DomainError, NonUniformClassSizeError, verify_theorem
from .trainer import OBJECTIVES, DivergenceError, TrainConfig, train

EXIT_OK, EXIT_INTERNAL, EXIT_USAGE, EXIT_IO, EXIT_UNSUPPORTED = 0, 1, 2, 3, 4
EXIT_DIVERGED = 5


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):     # main reports it in one line, exit 2
        raise UsageError(message)


def _int_list(s: str) -> list[int]:
    return [int(v) for v in s.split(",") if v.strip() != ""]


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["cfds", "csv"], default="cfds")


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.kind == "patch":
        d = gen_patch_dataset(args.n, args.big, args.small, args.img_h,
                              args.img_w, args.big_size, args.small_size,
                              seed=args.seed)
    else:
        d = gen_blob_dataset(args.classes, args.fine_per_coarse, args.z,
                             args.dim, args.coarse_spread, args.fine_spread,
                             args.noise, seed=args.seed)
    save_dataset(d, args.out)
    print(f"wrote {args.out}: n={d.n} dim={d.dim} C={d.C} F={d.F}")
    return EXIT_OK


def _check_config_value(key: str, val, hint) -> None:
    """Reject a --config value that misfits `hint`, its TrainConfig field's
    resolved type: a bool is no int, a float takes any number, null fits
    Optional only."""
    if val is None and type(None) in typing.get_args(hint):
        return
    kind = typing.get_args(hint)[0] if typing.get_origin(hint) else hint
    items = val if typing.get_origin(hint) is list else [val]
    if not isinstance(items, list) or not all(
            isinstance(v, bool) == (kind is bool)
            and isinstance(v, (int, float) if kind is float else kind)
            for v in items):
        raise UsageError(f"config key {key!r} must be "
                         f"{TrainConfig.__annotations__[key]}, not {val!r}")


def _merge_config(args: argparse.Namespace) -> TrainConfig:
    """Flags override the optional --config JSON, which overrides defaults:
    each train flag's dest is the TrainConfig field it sets."""
    cfg = TrainConfig()
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError("--config must hold a JSON object")
    hints = typing.get_type_hints(TrainConfig)    # one field -> type each
    for key, val in file_cfg.items():
        if key not in hints:
            raise UsageError(f"unknown config key {key!r}")
        _check_config_value(key, val, hints[key])
        setattr(cfg, key, val)
    for f in dataclasses.fields(cfg):
        if (val := getattr(args, f.name, None)) is not None:
            setattr(cfg, f.name, val)
    return cfg


def _write_files(*files: tuple[str, typing.Callable[[str], None]]) -> None:
    """Each (path, write) pair's file, written by write(tmp) under a
    temporary name beside its target and renamed into place once every one
    is written: a failed write leaves no target changed and no temporary
    file."""
    temps = [f"{path}.{os.getpid()}-{i}.tmp"
             for i, (path, _) in enumerate(files)]
    try:
        for tmp, (_, write) in zip(temps, files):
            write(tmp)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in filter(os.path.exists, temps):
            os.remove(tmp)
        raise


def _text(text: str) -> typing.Callable[[str], None]:
    """A `_write_files` writer of `text`."""
    def write(path: str) -> None:
        with open(path, "w") as fh:
            fh.write(text)
    return write


def _write_run(params, metrics: list[dict], ckpt_path: str,
               metrics_path: str) -> None:
    """A trained model's checkpoint, and its metrics one JSON line per epoch,
    written together by `_write_files`."""
    _write_files(
        (ckpt_path, lambda tmp: save_checkpoint(params, tmp)),
        (metrics_path, _text("".join(json.dumps(rec) + "\n"
                                     for rec in metrics))))


def _model_for(path: str, dim: int, C: int):
    """The --checkpoint model at `path`, whose input width is the data's
    `dim` and whose coarse head has a column for each of its C classes."""
    params = load_checkpoint(path)
    if params.encoder[0][0].shape[0] != dim:
        raise UsageError("checkpoint input dimension does not match dataset")
    if params.W_C.shape[1] < C:
        raise UsageError(f"checkpoint coarse head has {params.W_C.shape[1]} "
                         f"columns, fewer than the data's {C} coarse classes")
    return params


def _load_run(args: argparse.Namespace):
    """The --data set, its `_model_for` model from --checkpoint, and the
    data's embeddings under that model. A CFDS example block goes through
    the encoder as it is read (`load_dataset` with a `BlockEmbedder`), so
    the data set returned holds no examples; a CSV file is loaded, then
    embedded. The checkpoint is read between the CFDS header and the
    examples, but the data file's own error (of its header, examples or
    labels, in that order) still wins over the checkpoint's, as when the
    whole file was read first."""
    if args.format == "csv":
        dataset = load_dataset_csv(args.data)
        params = _model_for(args.checkpoint, dataset.dim, dataset.C)
        return dataset, params, embed(params, dataset.examples)
    try:
        n, dim, C = read_header(args.data)
        params = _model_for(args.checkpoint, dim, C)
    except DatasetFormatError:
        raise
    except Exception:
        load_dataset(args.data)          # raises the data file's own error
        raise
    rows = BlockEmbedder(params, n)
    dataset = load_dataset(args.data, rows.block, rows.widths)
    return dataset, params, rows.result()


def cmd_train(args: argparse.Namespace) -> int:
    dataset = (load_dataset_csv(args.data) if args.format == "csv"
               else load_dataset(args.data))
    shape = (args.img_h, args.img_w)
    if shape != (None, None):
        if None in shape or min(shape) < 1 or 3 * shape[0] * shape[1] != dataset.dim:
            raise UsageError(f"--img-h {shape[0]} --img-w {shape[1]}: give "
                             f"both, each >= 1, with img_h x img_w x 3 equal "
                             f"to the data's width {dataset.dim}")
        dataset.image_shape = shape
    cfg = _merge_config(args)
    params, metrics, _ = train(cfg, dataset)
    metrics_path = args.metrics or args.out + ".metrics.jsonl"
    _write_run(params, metrics, args.out, metrics_path)
    print(f"wrote {args.out} and {metrics_path} "
          f"({cfg.objective}, {cfg.epochs} epochs)")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    ks = _int_list(args.recall_at)
    if not ks:
        raise UsageError("--recall-at needs at least one value")
    if min(ks) < 1:
        raise UsageError("--recall-at values must be >= 1")
    dataset, params, emb = _load_run(args)
    report = evaluate_model(params, emb, dataset, ks)
    _write_files((args.out, _text(json.dumps(report.to_dict(), indent=2))))
    print(f"wrote {args.out}: " +
          " ".join(f"R@{k}={v:.3f}" for k, v in report.recall_at.items()))
    return EXIT_OK


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    dataset, params, emb = _load_run(args)
    if dataset.fine_labels is None:
        raise NonUniformClassSizeError("dataset has no fine labels")
    report = verify_theorem(emb, params.W_C, params.W_I, dataset.coarse_labels,
                            dataset.fine_labels, which=args.theorem)
    _write_files((args.out, _text(report.to_json())))
    print(f"theorem {args.theorem}: all_hold={report.all_hold} "
          f"slack_log_min={report.slack_log_min:.6g}")
    return EXIT_OK if report.all_hold else EXIT_INTERNAL


# --- synthetic comparison ------------------------------------------------

SYNTH_KS = [1, 2, 4, 8]


def synth_train_config(objective: str, seed: int, epochs: int = 150) -> TrainConfig:
    """Hyperparameters for the 512-image patch comparison.

    The narrow encoder (64-32-16) and aggressive crop padding make the
    task depend on position-invariant color features; wider settings let
    the coarse-only baseline retrieve fine classes through residual
    input similarity, masking the differences between objectives.
    """
    return TrainConfig(
        objective=objective, epochs=epochs,
        lambda_I=0.68, lambda_P=1.0,
        lr=0.01, momentum=0.9, weight_decay=5e-3,
        lr_decay_epochs=sorted({e for e in (epochs * 6 // 10,
                                            epochs * 8 // 10) if e > 0}),
        lr_decay_factor=5.0, batch_size=32, seed=seed,
        hidden=[64, 32], embed_dim=16, pad=8,
    )


def reproduce_synthetic(seeds: list[int], out_dir: str, epochs: int = 150,
                        n: int = 512, n_big: int = 32, n_small: int = 128
                        ) -> list[dict]:
    """Patch-image comparison of all objectives; returns the rows that are
    also written to comparison.csv / comparison.json (medians included)."""
    for seed in seeds:                  # a bad seed before anything is written
        synth_train_config(OBJECTIVES[0], seed, epochs).validate()
    os.makedirs(out_dir, exist_ok=True)
    rows: list[dict] = []
    for seed in seeds:
        dataset = gen_patch_dataset(n, n_big, n_small, seed=seed)
        seed_dir = os.path.join(out_dir, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        save_dataset(dataset, os.path.join(seed_dir, "data.cfds"))
        for objective in OBJECTIVES:
            cfg = synth_train_config(objective, seed, epochs)
            params, metrics, _ = train(cfg, dataset)
            _write_run(params, metrics,
                       os.path.join(seed_dir, f"{objective}.ckpt"),
                       os.path.join(seed_dir, f"{objective}.metrics.jsonl"))
            report = evaluate_model(params, embed(params, dataset.examples),
                                    dataset, SYNTH_KS)
            row = {"objective": objective, "seed": seed}
            row.update({f"R@{k}": report.recall_at[k] for k in SYNTH_KS})
            rows.append(row)
            print(f"seed {seed} {objective:9s} " +
                  " ".join(f"R@{k}={row[f'R@{k}']:.3f}" for k in SYNTH_KS))
    for objective in OBJECTIVES:
        med = {"objective": objective, "seed": "median"}
        for k in SYNTH_KS:
            med[f"R@{k}"] = statistics.median(
                r[f"R@{k}"] for r in rows
                if r["objective"] == objective and r["seed"] != "median")
        rows.append(med)

    def write_csv(path: str) -> None:
        with open(path, "w", newline="") as fh:    # csv's own \r\n rows
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    _write_files((os.path.join(out_dir, "comparison.csv"), write_csv),
                 (os.path.join(out_dir, "comparison.json"),
                  _text(json.dumps(rows, indent=2))))
    return rows


def cmd_reproduce_synthetic(args: argparse.Namespace) -> int:
    seeds = _int_list(args.seeds)
    if not seeds:
        raise UsageError("--seeds needs at least one value")
    reproduce_synthetic(seeds, args.out, epochs=args.epochs)
    print(f"wrote {os.path.join(args.out, 'comparison.csv')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coarse2fine",
        description="Representation learning from coarse labels, with "
                    "retrieval evaluation and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=["patch", "blob"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--big", type=int, default=32)
    p.add_argument("--small", type=int, default=128)
    p.add_argument("--img-h", type=int, default=32)
    p.add_argument("--img-w", type=int, default=32)
    p.add_argument("--big-size", type=int, default=12)
    p.add_argument("--small-size", type=int, default=4)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--fine-per-coarse", type=int, default=5)
    p.add_argument("--z", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--coarse-spread", type=float, default=10.0)
    p.add_argument("--fine-spread", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    _add_data_args(p)
    p.add_argument("--objective", choices=list(OBJECTIVES))
    p.add_argument("--epochs", type=int)
    p.add_argument("--m-epoch", dest="ip_start_epoch", type=int)
    p.add_argument("--clusters", dest="P", type=int)
    p.add_argument("--lambda-i", dest="lambda_I", type=float)
    p.add_argument("--lambda-p", dest="lambda_P", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--wd", dest="weight_decay", type=float)
    p.add_argument("--decay-epochs", dest="lr_decay_epochs", type=_int_list)
    p.add_argument("--decay-factor", dest="lr_decay_factor", type=float)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cosine", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--mlp-head", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--temp", dest="temperature", type=float)
    p.add_argument("--hidden", type=_int_list)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--pad", type=int)
    p.add_argument("--img-h", type=int, help="treat loaded data as images")
    p.add_argument("--img-w", type=int)
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval/accuracy report")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--recall-at", default="1,2,4,8")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-bounds", help="check the probability bounds")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--theorem", type=int, choices=[1, 2], default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("reproduce-synthetic",
                       help="patch-image comparison across objectives")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce_synthetic)
    return parser


# the message prefix and exit code of each expected failure, matched in order
_FAILURES = [
    ((NonUniformClassSizeError, DomainError), "unsupported data",
     EXIT_UNSUPPORTED),
    (DatasetFormatError, "bad dataset file", EXIT_UNSUPPORTED),
    (CheckpointFormatError, "bad checkpoint file", EXIT_UNSUPPORTED),
    (DegenerateInputError, "degenerate input", EXIT_UNSUPPORTED),
    (DivergenceError, "training diverged", EXIT_DIVERGED),
    (InvariantError, "internal error: check failed", EXIT_INTERNAL),
    (MemoryError, "out of memory", EXIT_USAGE),
    ((UsageError, ValueError), "usage error", EXIT_USAGE),
    (OSError, "io error", EXIT_IO),
]


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001
        for kind, what, code in _FAILURES:
            if isinstance(exc, kind):
                print(f"{what}: {exc}", file=sys.stderr)
                return code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
