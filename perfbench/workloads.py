"""Workloads, the closed-loop runner and the output checks of the benchmark.

One client runs the package's commands one after another through
``coarse2fine.cli.main(argv)``; each command starts only after the
previous one has returned. Timing whole commands counts data loads,
checkpoint writes and report writes with the work. Every command is an
operation: it fails if it exits non-zero, leaves an output file missing,
reports a bound that does not hold, reads a different number of W_I
columns than the labels imply, evaluates a model whose coarse top-1
accuracy is below the workload's floor, or writes an output whose sha256
differs from an earlier repeat of the same command on the same data set
(in this run, or in an earlier run of the same workload, seed, package
and benchmark code and BLAS thread count).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from coarse2fine import cli, data, losses
from coarse2fine.trainer import TrainConfig

from tracer import Tracer

SETUP_REPEATS = 5
# Data sets per run, made from the seed and used in turn, one per cycle.
# Retrieval time depends on the trained model: on patch-coinsP, about one
# model in four nearly collapses, and its eval ran about 20% faster. A
# command's time is the median over the data sets, so one run's figure
# does not hang on whether one of few data sets collapsed.
DATASETS = 8
OPS = ("train", "eval", "verify_t1", "verify_t2")
# About the calibration kernel's median time on a 2-vCPU x86-64 VM with one
# OpenBLAS thread and NumPy's huge pages off; gated times are expressed at
# that machine speed.
CALIBRATION_REFERENCE_S = 0.03
# Blob noise 1.0 keeps R@1 off its ceiling; the generator default 0.1 gives 1.0.
BLOB_NOISE = 1.0
BLOB_DIM = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "patch" (32x32x3 images) or "blob"
    objective: str
    epochs: int
    coarse: int                # coarse classes
    fine_per_coarse: int
    z: int                     # examples per fine class (the bounds need it uniform)
    reads: int                 # eval / verify-bounds rounds per cycle
    min_coarse_top1: float     # quality floor: eval's coarse top-1 accuracy
    batch: int = 64            # blob batch size; patch uses synth_train_config's

    @property
    def n(self) -> int:
        return self.coarse * self.fine_per_coarse * self.z

    def train_config(self, seed: int) -> TrainConfig:
        if self.kind == "patch":
            return cli.synth_train_config(self.objective, seed, self.epochs)
        return TrainConfig(
            objective=self.objective, epochs=self.epochs, lr=0.01,
            lr_decay_epochs=sorted({e for e in (self.epochs * 6 // 10,
                                                self.epochs * 8 // 10) if e > 0}),
            batch_size=self.batch, seed=seed, hidden=[128], embed_dim=32)

    def make_dataset(self, seed: int) -> data.Dataset:
        if self.kind == "blob":
            return data.gen_blob_dataset(self.coarse, self.fine_per_coarse,
                                         self.z, BLOB_DIM, noise=BLOB_NOISE,
                                         seed=seed)
        # The patch generator draws fine classes at random; keep the first z
        # images of each so that verify-bounds (uniform z) accepts the set.
        # 8 F z draws leave a fine class short on about one seed in 1e8,
        # so set-up does the same work on every seed.
        F = self.coarse * self.fine_per_coarse
        n_gen = 8 * F * self.z
        while True:
            d = data.gen_patch_dataset(n_gen, self.coarse, F, seed=seed)
            if np.bincount(d.fine_labels, minlength=F).min() >= self.z:
                break
            n_gen *= 2
        keep = np.sort(np.concatenate(
            [np.flatnonzero(d.fine_labels == s)[:self.z] for s in range(F)]))
        return data.Dataset(examples=d.examples[keep],
                            coarse_labels=d.coarse_labels[keep], C=self.coarse,
                            fine_labels=d.fine_labels[keep], F=F,
                            image_shape=d.image_shape)

    def expected_wi_reads(self, coarse_labels: np.ndarray) -> int:
        """W_I column reads of one train: a training pass and an epoch-metrics
        pass per epoch, each reading n columns per example for the full
        instance softmax and n_k for the within-coarse one."""
        if self.objective == "coins":
            per_pass = self.n * self.n
        elif self.objective in ("coins-imp", "coinsP"):
            per_pass = int(np.sum(np.bincount(coarse_labels) ** 2))
        else:
            raise ValueError(f"no read count for objective {self.objective!r}")
        return 2 * self.epochs * per_pass


WORKLOADS = {w.name: w for w in [
    # The paper's method at its reference shape (32 coarse x 128 fine,
    # n_k = 16): augmentation, the within-coarse loop, the proxy term and
    # the k-means refreshes. Its first half is the coins-imp objective.
    # No quality floor: at 10 epochs the model is at chance (coarse loss
    # log 32, coarse top-1 1/32), as an untrained one is.
    Workload("patch-coinsP", "patch", "coinsP", epochs=10, coarse=32,
             fine_per_coarse=4, z=4, reads=3, min_coarse_top1=0.0),
    # Bypass workload: the full n-way instance softmax, no augmentation, no
    # within-coarse loop, no k-means.
    # Coarse top-1 was 0.9995-1.0 over seeds 1-30; untrained, 0.08.
    Workload("blob-coins", "blob", "coins", epochs=3, coarse=16,
             fine_per_coarse=8, z=16, reads=1, min_coarse_top1=0.95),
    # Evaluation-heavy: one short coins-imp epoch, then forward-only encoding
    # of one large batch and the O(n^2) retrieval and bound checks, which
    # the training workloads barely touch.
    # Coarse top-1 was 0.929-0.984 over seeds 1-30; untrained, 0.045.
    Workload("blob-eval", "blob", "coins-imp", epochs=1, coarse=32,
             fine_per_coarse=8, z=16, reads=1, min_coarse_top1=0.85,
             batch=256),
]}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Calibration:
    """Fixed NumPy work that does not touch the package, timed just before
    each command. The host slows whole periods of seconds to minutes by up
    to 1.6x, and the kernel slows with them, so a command's time divided by
    the kernel's time is steady across runs where the raw time is not.
    The kernel is made of the large-array work the commands do: row sorts,
    a matrix product, an element-wise pass and a fresh allocation. Over
    30 runs, dividing by it left less than half the run-to-run spread of
    a kernel of small NumPy calls from a Python loop, which slowed with
    the host by more than the commands did (README.md)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.m = rng.random((512, 512))
        self.v = rng.random(1 << 20)

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(2):
            np.argsort(self.m, axis=1)            # row sorts, as in retrieval
        np.sort(self.v[:1 << 18])
        (self.m @ self.m[:, :128]).sum()          # BLAS
        np.exp(self.v).sum()                      # element-wise, 8 MB
        np.full((1024, 1024), 1.0).sum()          # fresh 8 MB allocation
        return perf_counter() - start


def make_inputs(spec: str) -> None:
    """The set-up child of Run.setup. `spec` is JSON with the workload's
    fields and, per data set, its seed and two output paths. Prints one
    JSON line: the raw and calibration seconds of each set-up and the W_I
    read count of each data set."""
    spec = json.loads(spec)
    w = Workload(**spec["workload"])
    calibrate = Calibration()
    seconds, calibration = [], []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibrate())
        start = perf_counter()
        reads = []
        for seed, data_path, config_path in spec["inputs"]:
            dataset = w.make_dataset(seed)
            data.save_dataset(dataset, data_path)
            cfg = dataclasses.asdict(w.train_config(seed))
            Path(config_path).write_text(json.dumps(cfg))
            reads.append(w.expected_wi_reads(dataset.coarse_labels))
        seconds.append(perf_counter() - start)
    print(json.dumps({"seconds": seconds, "calibration": calibration,
                      "expected_reads": reads}))


@dataclass
class Op:
    kind: str                  # train, eval, verify_t1, verify_t2
    seconds: float
    calibration: float         # kernel time just before the command
    traced: bool
    dataset: int
    failures: list[str] = field(default_factory=list)

    @property
    def normalised(self) -> float:
        return self.seconds / self.calibration * CALIBRATION_REFERENCE_S


class Run:
    """One benchmark process: set-up, then cycles of commands until time is
    up. Data set j of seed s has seed DATASETS * s + j; cycle i uses data
    set i mod DATASETS (i // 2 mod DATASETS in a traced run, so that every
    data set has untraced and traced cycles)."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 digest_store: Path | None = None):
        self.w = workload
        self.dir = workdir
        self.store = digest_store
        self.reference: dict[str, str] = {}
        if self.store is not None and self.store.exists():
            self.reference = json.loads(self.store.read_text())
        self.stored = dict(self.reference)
        self.ops: list[Op] = []
        self.calibrate = Calibration()
        self.setup_s: list[float] = []      # normalised, like Op.normalised
        self.setup_raw_s: list[float] = []
        self.recall_at_1 = self.coarse_top1 = 0.0
        self.expected_reads: list[int] = []
        self.tracer: Tracer | None = None
        self.cycle_wall: dict[bool, list[float]] = {False: [], True: []}
        self.cycle_counts: dict[int, Counter] = {}   # first traced cycle per data set
        self.traced: list[tuple[Tracer, float]] = []
        p = self.dir
        self.inputs = [(DATASETS * seed + j, p / f"data{j}.cfds", p / f"train{j}.json")
                       for j in range(DATASETS)]
        self.d = 0                          # data set of the current cycle
        self.ckpt, self.metrics = p / "model.ckpt", p / "model.metrics.jsonl"
        self.reports = {"eval": p / "eval.json", "verify_t1": p / "t1.json",
                        "verify_t2": p / "t2.json"}

    # --- commands --------------------------------------------------------

    def _command(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Exit code, seconds, calibration seconds and output of one command."""
        if self.tracer is None:
            calibration = self.calibrate()
        else:
            calibration = self.tracer.call("bench", self.calibrate)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = perf_counter()
            if self.tracer is None:
                code = cli.main(argv)
            else:
                code = self.tracer.call("cli", cli.main, argv)
            seconds = perf_counter() - start
        return code, seconds, calibration, buf.getvalue()

    def _checked(self, check, *args) -> list[str]:
        if self.tracer is None:
            return check(*args)
        return self.tracer.call("bench", check, *args)

    def _output(self, role: str, path: Path) -> list[str]:
        if not path.is_file():
            return [f"missing output {path.name}"]
        digest = sha256_file(path)
        ref = self.reference.setdefault(f"{role}@{self.d}", digest)
        if digest != ref:
            return [f"{path.name} sha256 {digest[:12]} differs from {ref[:12]}"]
        return []

    def _record(self, kind: str, seconds: float, calibration: float,
                failures: list[str]) -> None:
        self.ops.append(Op(kind, seconds, calibration, self.tracer is not None,
                           self.d, failures))

    def train(self) -> None:
        reads_before = losses.WI_READS.reads
        _, data_path, config_path = self.inputs[self.d]
        argv = ["train", "--data", str(data_path), "--config", str(config_path),
                "--out", str(self.ckpt), "--metrics", str(self.metrics)]
        if self.w.kind == "patch":
            argv += ["--img-h", "32", "--img-w", "32"]
        self.ckpt.unlink(missing_ok=True)
        self.metrics.unlink(missing_ok=True)
        code, seconds, calibration, out = self._command(argv)
        reads = losses.WI_READS.reads - reads_before
        self._record("train", seconds, calibration,
                     self._checked(self._check_train, code, out, reads))

    def _check_train(self, code: int, out: str, reads: int) -> list[str]:
        failures = [] if code == 0 else [f"exit code {code}: {out.strip()[-300:]}"]
        expected = self.expected_reads[self.d]
        if reads != expected:
            failures.append(f"W_I reads {reads} != {expected}")
        failures += self._output("checkpoint", self.ckpt)
        failures += self._output("metrics", self.metrics)
        if self.metrics.is_file():
            lines = self.metrics.read_text().splitlines()
            if len(lines) != self.w.epochs:
                failures.append(f"{len(lines)} metrics records for "
                                f"{self.w.epochs} epochs")
        return failures

    def read(self, kind: str) -> None:
        out_path = self.reports[kind]
        argv = ["eval"] if kind == "eval" else \
            ["verify-bounds", "--theorem", kind[-1]]
        argv += ["--data", str(self.inputs[self.d][1]), "--checkpoint", str(self.ckpt),
                 "--out", str(out_path)]
        out_path.unlink(missing_ok=True)
        code, seconds, calibration, out = self._command(argv)
        self._record(kind, seconds, calibration,
                     self._checked(self._check_read, kind, code, out))

    def _check_read(self, kind: str, code: int, out: str) -> list[str]:
        failures = [] if code == 0 else [f"exit code {code}: {out.strip()[-300:]}"]
        failures += self._output(kind, self.reports[kind])
        if failures:
            return failures
        report = json.loads(self.reports[kind].read_text())
        if kind == "eval":
            self.recall_at_1 = float(report["recall_at"]["1"])
            self.coarse_top1 = float(report["topk_acc"]["1"])
            if self.coarse_top1 < self.w.min_coarse_top1:
                failures.append(f"coarse top-1 {self.coarse_top1:.4f} is below "
                                f"the floor {self.w.min_coarse_top1}")
        elif report["all_hold"] is not True:
            failures.append(f"{kind}: all_hold is {report['all_hold']}")
        return failures

    # --- phases ----------------------------------------------------------

    def setup(self) -> None:
        """Generate and save the data sets and write their train configs,
        SETUP_REPEATS times, in a child process: the generator's arrays
        then do not count in this process's peak_rss_mb, which covers the
        commands alone."""
        spec = json.dumps({"workload": dataclasses.asdict(self.w),
                           "inputs": [(seed, str(d), str(c))
                                      for seed, d, c in self.inputs]})
        paths = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        child = subprocess.run(
            [sys.executable, "-c", "import sys, run, workloads; "
             "run.fix_mmap_threshold(); workloads.make_inputs(sys.argv[1])", spec],
            env=env, capture_output=True, text=True, timeout=150)
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.strip()[-500:]}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        self.setup_raw_s = result["seconds"]
        self.setup_s = [t / c * CALIBRATION_REFERENCE_S
                        for t, c in zip(result["seconds"], result["calibration"])]
        self.expected_reads = result["expected_reads"]

    def cycle(self, dataset: int, traced: bool) -> None:
        self.d = dataset
        tracer = self.tracer = Tracer() if traced else None
        reads_before = losses.WI_READS.reads
        start = perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            if tracer is None:
                self._commands()
            else:   # the benchmark's own work between commands is its span
                tracer.call("bench", self._commands)
        wall = perf_counter() - start
        self.tracer = None
        self.cycle_wall[traced].append(wall)
        if tracer is not None:
            counts = Counter(tracer.calls) + tracer.counts
            counts["losses.wi_reads"] = losses.WI_READS.reads - reads_before
            if counts != self.cycle_counts.setdefault(dataset, counts):
                self.ops[-1].failures.append("traced counts differ between cycles")
            self.traced.append((tracer, wall))

    def _commands(self) -> None:
        self.train()
        for _ in range(self.w.reads):
            for kind in OPS[1:]:
                self.read(kind)

    def measure(self, seconds: float, trace: bool) -> None:
        """Cycles until `seconds` have passed, and at least one on each data
        set; with trace, untraced and traced cycles alternate and each data
        set has at least one of each."""
        per = 2 if trace else 1
        start = perf_counter()
        i = 0
        while i < per * DATASETS or perf_counter() - start < seconds:
            self.cycle(dataset=i // per % DATASETS, traced=trace and i % 2 == 1)
            i += 1

    def save_digests(self) -> None:
        if self.store is None or self.failed or self.reference == self.stored:
            return
        self.store.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.reference, indent=1, sort_keys=True))
        os.replace(tmp, self.store)

    # --- results ---------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    def untraced(self, kind: str) -> list[Op]:
        return [op for op in self.ops if op.kind == kind and not op.traced]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The gated metrics. A command's time is the median over the data
        sets of the median of its untraced normalised times on each (see
        Calibration)."""
        med = statistics.median

        def median_over_datasets(kind):
            per: defaultdict[int, list[float]] = defaultdict(list)
            for op in self.untraced(kind):
                per[op.dataset].append(op.normalised)
            return med(med(times) for times in per.values())

        time = {kind: median_over_datasets(kind) for kind in OPS}
        return {
            "setup_s": (med(self.setup_s), "s"),
            "train_samples_per_s": (self.w.n * self.w.epochs / time["train"],
                                    "samples/s"),
            "eval_s": (time["eval"], "s"),
            "verify_t1_s": (time["verify_t1"], "s"),
            "verify_t2_s": (time["verify_t2"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
            "ok_ratio": ((self.attempted - self.failed) / self.attempted,
                         "ratio"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per traced cycle: mean self times, inclusive epoch-metrics time,
        and the counts of the first traced cycle on the first data set
        (cycles on one data set must agree).
        The overhead is the median over data sets of the traced cycle's wall
        time minus the untraced one's; the two alternate, a pair per data set."""
        k = len(self.traced)
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        for tracer, _ in self.traced:
            self_s.update(tracer.self_s)
            inclusive.update(tracer.inclusive_s)
        wall = sum(w for _, w in self.traced) / k
        counts = self.cycle_counts[0]

        def t(layer):
            return (self_s[layer] / k, "s")

        def c(name):
            return (int(counts[name]), "count")

        rows = counts["losses.objective_rows"]
        share = counts["losses.wi_reads"] / (rows * self.w.n) if rows else 0.0
        return {
            "cli.self_s": t("cli"),
            "bench.self_s": t("bench"),
            "data.io_s": t("data.io"),
            "data.augment_s": t("data.augment"),
            "data.augment_calls": c("data.augment"),
            "model.encode_s": t("model.encode"),
            "model.encode_rows": c("model.encode_rows"),
            "model.backward_s": t("model.backward"),
            "model.checkpoint_s": t("model.checkpoint"),
            "losses.objective_s": t("losses.objective"),
            "losses.objective_calls": c("losses.objective"),
            "losses.wi_reads": c("losses.wi_reads"),
            "losses.wi_read_share": (share, "ratio"),
            "trainer.self_s": t("trainer"),
            "trainer.update_s": t("trainer.update"),
            "trainer.epoch_metrics_s": (inclusive["trainer.epoch_metrics"] / k, "s"),
            "trainer.epoch_metrics_self_s": t("trainer.epoch_metrics"),
            "cluster.kmeans_s": t("cluster.kmeans"),
            "cluster.kmeans_calls": c("cluster.kmeans"),
            "cluster.proxies_s": t("cluster.proxies"),
            "evaluate.self_s": t("evaluate"),
            "evaluate.recall_s": t("evaluate.recall"),
            "evaluate.recall_queries": c("evaluate.recall_queries"),
            "evaluate.topk_s": t("evaluate.topk"),
            "evaluate.fine_prob_s": t("evaluate.fine_prob"),
            "evaluate.recall_at_1": (self.recall_at_1, "ratio"),
            "theory.constants_s": t("theory.constants"),
            "theory.verify_s": t("theory.verify"),
            "trace.wall_s": (wall, "s"),
            "trace.remainder_s": (wall - sum(self_s.values()) / k, "s"),
            "trace.overhead_s": (statistics.median(
                traced - untraced for untraced, traced
                in zip(self.cycle_wall[False], self.cycle_wall[True])), "s"),
        }
