"""coarse2fine benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload patch-coinsP --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and works in ``.bench_work/``. It prints the environment, a table of
metrics with units and sample counts, any failed operation with its
cause, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` untraced
and traced cycles alternate and the metrics are the per-layer ones: self
times per traced cycle, exact counts, the part of the cycle wall time no
span covers, and the tracing overhead (traced minus untraced cycle wall
time). The workloads and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "coarse2fine"
WORK = ROOT / ".bench_work"


def source_sha256(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fix_mmap_threshold() -> str:
    """Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
    rises after the first large free, and whether later data loads reuse
    heap pages becomes a per-process mode: on a 2-vCPU VM it moved every
    read command of one run by 12-15% against the next."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return "default"
    M_MMAP_THRESHOLD = -3
    return "mmap_threshold=128KiB" if mallopt(M_MMAP_THRESHOLD, 128 * 1024) \
        else "default"


def blas_vendor(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def print_table(title, metrics, notes):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {unit:10s} {notes.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    # One process with one BLAS thread, set before numpy loads. The matrices
    # here are small: on a 2-core box two threads were no faster and doubled
    # both the CPU time and the run-to-run spread.
    cpus = len(os.sched_getaffinity(0))
    threads = 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    # NumPy asks for transparent huge pages on large arrays. Where the kernel
    # compacts memory to serve them, each page fault's cost depends on the
    # host's memory state. Without them, blob-eval's commands ran as fast
    # and their normalised times spread less from run to run (README.md).
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    malloc = fix_mmap_threshold()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    src = source_sha256(PACKAGE)
    print(f"# env nproc={os.cpu_count()} cpus={cpus} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"blas={blas_vendor(np)!r} blas_threads={threads} malloc={malloc} "
          f"numpy_hugepages=off "
          f"commit={git_commit()} src_sha256={src[:16]} "
          f"workload={w.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# closed loop, one client; {workloads.DATASETS} data sets used in "
          f"turn, n={w.n} objective={w.objective} epochs={w.epochs}; a cycle is one train, then {w.reads} x "
          f"(eval, verify-bounds --theorem 1, --theorem 2)")

    workdir = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    # earlier outputs of the same inputs, package and benchmark code
    code = source_sha256(PACKAGE, HERE)[:16]
    store = WORK / "digests" / f"{w.name}-seed{args.seed}-code{code}-blas{threads}.json"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(w, args.seed, workdir, store)
        run.setup()
        run.measure(args.seconds, bool(args.trace))
        run.save_digests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = run.end_to_end()
    med = statistics.median
    calibration = [op.calibration for op in run.ops]
    notes = {"setup_s": f"median of {len(run.setup_s)} set-ups; raw median "
                        f"{med(run.setup_raw_s):.4g} s",
             "ok_ratio": f"fail_ratio = {run.failed}/{run.attempted} operations"}
    for kind, name in zip(workloads.OPS, ("train_samples_per_s", "eval_s",
                                          "verify_t1_s", "verify_t2_s")):
        t = [op.seconds for op in run.untraced(kind)]
        notes[name] = (f"{len(t)} samples on {workloads.DATASETS} data sets; "
                       f"raw wall s: median {med(t):.4g},"
                       f" min {min(t):.4g}, max {max(t):.4g}")
    notes["train_samples_per_s"] = (f"{w.n} x {w.epochs} epochs / "
                                    + notes["train_samples_per_s"])
    print(f"# times are normalised to {workloads.CALIBRATION_REFERENCE_S} s "
          f"per calibration kernel; the kernel took median {med(calibration):.4g} s,"
          f" min {min(calibration):.4g} s here (raw = wall clock)")
    print_table("end-to-end (untraced operations)", e2e, notes)
    print_table("not gated", {"recall_at_1": (run.recall_at_1, "ratio"),
                              "coarse_top1": (run.coarse_top1, "ratio"),
                              "fail_ratio": (run.failed / run.attempted, "ratio")},
                {"recall_at_1": "fine-label R@1 of the last eval",
                 "coarse_top1": (f"of the last eval; an eval below "
                                 f"{w.min_coarse_top1} fails"
                                 if w.min_coarse_top1 else "no quality floor"),
                 "fail_ratio": f"{run.failed} failed / {run.attempted} attempted"})
    for i, op in enumerate(run.ops):
        for reason in op.failures:
            print(f"# FAILED op {i} {op.kind}: {reason}")
    metrics = e2e
    if args.trace:
        layers = run.per_layer()
        print_table(f"per layer, per traced cycle ({len(run.traced)} traced, "
                    f"{len(run.cycle_wall[False])} untraced cycles)", layers, {})
        times = [v for name, (v, unit) in layers.items()
                 if unit == "s" and not name.startswith("trace.")
                 and name != "trainer.epoch_metrics_s"]
        print(f"# self times sum to {sum(times):.6g} s of "
              f"{layers['trace.wall_s'][0]:.6g} s wall; remainder "
              f"{layers['trace.remainder_s'][0]:.3g} s")
        for seam in run.traced[0][0].missing:
            print(f"# seam missing, its layer reads 0: {seam}")
        metrics = layers
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
