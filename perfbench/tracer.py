"""Per-layer tracing for the benchmark, from outside the package.

Spans come from wrappers put around module-level names at each seam
(cli -> data/model/trainer/evaluate/theory, trainer -> data/losses/model/
cluster, losses -> model). Only public names are wrapped, plus
``trainer._epoch_metrics``, the one seam that has no public name. A
seam whose name is gone is skipped and listed in ``missing``, so that a
refactor inside the package leaves the benchmark running.

A span's self time is its duration minus the time its child spans cover.
The wrappers are installed only around traced cycles, so untraced cycles
run the package's own functions unchanged.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

from coarse2fine import cli, evaluate, losses, model, theory, trainer


def _rows(args, kwargs, name):
    batch = args[1] if len(args) > 1 else kwargs[name]
    return len(batch)


def _count_encode_rows(counts, args, kwargs, result):
    counts["model.encode_rows"] += _rows(args, kwargs, "batch")


def _count_objective_rows(counts, args, kwargs, result):
    counts["losses.objective_rows"] += _rows(args, kwargs, "batch")


def _count_queries(counts, args, kwargs, result):
    counts["evaluate.recall_queries"] += result[1]


_OBJECTIVES = ("coarse_loss", "instance_loss_full",
               "instance_loss_within_coarse", "instance_proxy_loss",
               "combined_objective", "objective")

# (module, name, layer, counter): the name is looked up in the module that
# calls it, which is where the package resolves it at call time.
SEAMS = [
    (cli, "load_dataset", "data.io", None),
    (cli, "load_checkpoint", "model.checkpoint", None),
    (cli, "save_checkpoint", "model.checkpoint", None),
    (cli, "train", "trainer", None),
    (cli, "evaluate_model", "evaluate", None),
    (cli, "verify_theorem", "theory.verify", None),
    # evaluate_model and cmd_verify_bounds import encode from model at call time
    (model, "encode", "model.encode", _count_encode_rows),
    (trainer, "encode", "model.encode", _count_encode_rows),
    (losses, "encode", "model.encode", _count_encode_rows),
    (trainer, "encode_backward", "model.backward", None),
    (losses, "branch_backward", "model.backward", None),
    (trainer, "augment", "data.augment", None),
    *[(trainer, name, "losses.objective", _count_objective_rows)
      for name in _OBJECTIVES],
    (trainer, "apply_gradients", "trainer.update", None),
    (trainer, "_epoch_metrics", "trainer.epoch_metrics", None),
    (trainer, "kmeans", "cluster.kmeans", None),
    (trainer, "update_proxies", "cluster.proxies", None),
    (evaluate, "recall_at_k", "evaluate.recall", _count_queries),
    (evaluate, "topk_accuracy", "evaluate.topk", None),
    (evaluate, "fine_class_prob", "evaluate.fine_prob", None),
    (theory, "measure_constants", "theory.constants", None),
]

# seams that are expected to be absent: alternative names for one layer
_OPTIONAL = {(trainer, name) for name in _OBJECTIVES}


class Tracer:
    """Self time, inclusive time and call count per layer, plus row counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing = [f"{m.__name__}.{name}" for m, name, _, _ in SEAMS
                        if not hasattr(m, name) and (m, name) not in _OPTIONAL]
        self._open: list[float] = []      # child time of each open span

    def call(self, layer, fn, *args, **kwargs):
        start = perf_counter()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self.self_s[layer] += duration - self._open.pop()
            self.inclusive_s[layer] += duration
            self.calls[layer] += 1
            if self._open:
                self._open[-1] += duration

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every seam while the block runs, and restore the originals."""
        saved = []
        try:
            for module, name, layer, counter in SEAMS:
                original = getattr(module, name, None)
                if original is None:
                    continue
                saved.append((module, name, original))
                setattr(module, name, self._wrap(layer, original, counter))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
