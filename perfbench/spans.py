"""Span tracing around traitgen's layer boundaries, from outside the package.

``install`` replaces the module-level names through which each traitgen
module calls another layer (for example ``traitgen.generator.
masked_cross_entropy`` or ``traitgen.classifier.affine``) with timing
wrappers, and ``restore`` puts the originals back. Nothing under ``src/``
changes. Each call records a span (name, start, end, parent); a span's
self time is its duration minus the time its direct child spans cover,
so the self times of one command add up to that command's wall time.

Span names are the per-layer metric names that BENCHMARK.json lists.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import traitgen.classifier
import traitgen.cli
import traitgen.generator
import traitgen.harness
import traitgen.lexicon
import traitgen.textproc

_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def top_percentile(samples: list[float]) -> tuple[float, float]:
    """(p, value) for the highest p in _PERCENTILES with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = 50.0
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    rank = min(n, max(1, math.ceil(best / 100.0 * n))) - 1  # nearest rank
    return best, ordered[rank]


@dataclass
class Counts:
    """Work counted at the span boundaries of one traced iteration."""

    matrix_calls: int = 0
    clip_calls: int = 0
    clipped: int = 0
    batches: int = 0
    target_tokens: float = 0.0
    logit_rows: int = 0
    texts: int = 0
    tokens_generated: int = 0
    generate_s: list[float] = field(default_factory=list)
    score_calls: int = 0
    tokens_scored: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class Tracer:
    """Collects spans in memory while installed; ``collect`` folds them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = Counts()
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None, closures: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, record[2] - record[1])
            if closures:  # (value, ..., backward): trace the backward too
                result = tuple(self.wrap(name, r, hook) if callable(r) else r
                               for r in result)
            return result

        return traced

    # ---------------------------------------------------------- counters

    def _count_matrix(self, args, result, dur):
        self.counts.matrix_calls += 1

    def _count_ce(self, args, result, dur):
        if len(args) == 3:  # forward (logits, targets, mask); backward takes upstream only
            self.counts.batches += 1
            self.counts.target_tokens += float(np.sum(args[2]))
            self.counts.logit_rows += args[0].rows

    def _count_clip(self, args, result, dur):
        self.counts.clip_calls += 1
        self.counts.clipped += result < 1.0

    def _count_generate(self, args, result, dur):
        self.counts.texts += 1
        self.counts.tokens_generated += len(result)
        self.counts.generate_s.append(dur)

    def _count_score(self, args, result, dur):
        self.counts.score_calls += 1
        self.counts.tokens_scored += len(args[0])

    def _count_save(self, args, result, dur):
        self.counts.bytes_written += os.path.getsize(args[0])

    def _count_load(self, args, result, dur):
        self.counts.bytes_read += os.path.getsize(args[0])

    # ------------------------------------------------------ installation

    def _targets(self):
        """(owner, attribute, span name, hook, wraps returned closures)."""
        cli, gen, clf = traitgen.cli, traitgen.generator, traitgen.classifier
        targets = [
            (cli, "main", "cli.self_s", None, False),
            (cli, "synth_corpus", "harness.synth_s", None, False),
            (cli, "evaluate_generation", "harness.evaluate_self_s", None, False),
            (cli, "train_generator", "generator.train_self_s", None, False),
            (cli, "train_classifier", "classifier.train_self_s", None, False),
            (cli, "label_corpus", "classifier.label_self_s", None, False),
            (cli, "read_corpus", "textproc.read_corpus_s", None, False),
            (cli, "write_corpus", "textproc.write_corpus_s", None, False),
            (cli, "load_model", "checkpoint.load_s", self._count_load, False),
            (cli, "scores_by_trait", "lexicon.score_s", None, False),
            (cli, "calibrate_thresholds", "lexicon.calibrate_s", None, False),
            (traitgen.lexicon, "score_tokens", "lexicon.score_s", self._count_score, False),
            (traitgen.harness, "generate", "generator.generate_s", self._count_generate, False),
            (traitgen.harness, "score_tokens", "lexicon.score_s", self._count_score, False),
            (traitgen.harness, "assign_levels", "lexicon.assign_levels_s", None, False),
            (gen, "masked_cross_entropy", "numeric.cross_entropy_s", self._count_ce, True),
        ]
        for module in (gen, clf):
            targets += [
                (module, "xavier_init", "numeric.xavier_init_s", None, False),
                (module, "adam_step", "numeric.adam_s", None, False),
                (module, "clip_global_norm", "numeric.clip_s", self._count_clip, False),
                (module, "zero_grads", "numeric.zero_grads_s", None, False),
                (module, "encode", "textproc.encode_s", None, False),
                (module, "write_checkpoint", "checkpoint.save_s", self._count_save, False),
            ]
        for op in ("affine", "elementwise_activation", "max_over_time"):
            targets.append((clf, op, "numeric.matrix_s", self._count_matrix, True))
        return targets

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook, closures in self._targets():
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook, closures))
        vocab = traitgen.textproc.Vocabulary
        build = vocab.__dict__["build"]  # the classmethod object itself
        self._originals.append((vocab, "build", build))
        vocab.build = classmethod(self.wrap("textproc.vocab_build_s", build.__func__))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------ folding

    def collect(self) -> tuple[dict[str, float], dict[str, float], set[str], float]:
        """Fold and clear the recorded spans.

        Returns (self seconds per span name, call count per span name,
        names of the root spans, most negative self time seen). Self
        times sum to the total duration of the root spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, float] = {}
        roots = {name for name, _, _, parent in spans if parent < 0}
        worst = 0.0
        for (name, start, end, _), inner in zip(spans, child):
            own = (end - start) - inner
            worst = min(worst, own)
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        spans.clear()
        return self_s, calls, roots, worst

    def layer_metrics(self, units: dict[str, str], self_s: dict[str, float], iterations: int,
                      traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics per traced iteration.

        ``units`` maps each per-layer metric name to its unit; a metric in
        seconds is the self time of the span of that name, and 0 for a
        layer the workload does not reach.
        """
        c = self.counts
        per = 1.0 / iterations
        out = {name: self_s.get(name, 0.0) * per for name, unit in units.items() if unit == "s"}
        out.update({
            "numeric.matrix_calls": c.matrix_calls * per,
            "numeric.clip_rate": c.clipped / c.clip_calls if c.clip_calls else 0.0,
            "generator.batches": c.batches * per,
            "generator.target_tokens": c.target_tokens * per,
            "generator.pad_efficiency": c.target_tokens / c.logit_rows if c.logit_rows else 0.0,
            "generator.texts": c.texts * per,
            "generator.tokens_generated": c.tokens_generated * per,
            "generator.us_per_token": (1e6 * self_s.get("generator.generate_s", 0.0)
                                       / c.tokens_generated if c.tokens_generated else 0.0),
            "generator.generate_ms_p50": 0.0,
            "generator.generate_ms_ptop": 0.0,
            "generator.generate_ptop_pct": 0.0,
            "lexicon.score_calls": c.score_calls * per,
            "lexicon.tokens_scored": c.tokens_scored * per,
            "checkpoint.bytes_written": c.bytes_written * per,
            "checkpoint.bytes_read": c.bytes_read * per,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        if c.generate_s:
            pct, top = top_percentile(c.generate_s)
            out["generator.generate_ms_p50"] = 1e3 * statistics.median(c.generate_s)
            out["generator.generate_ms_ptop"] = 1e3 * top
            out["generator.generate_ptop_pct"] = pct
        return out
