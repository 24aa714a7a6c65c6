"""Spans recorded around na_evalkit's layer boundaries, from outside the package.

``Recorder.patched()`` replaces the module attributes in ``TARGETS`` with
timing wrappers and restores them on exit; nothing under ``src/`` changes.
Every call of a wrapped function opens a span (name, parent, start, end).
The per-stage calls in ``FOLDED`` run up to a million times per job, so each
of them is folded into one span per (parent span, name) that carries its
call count and summed duration; a span's self time is still its duration
minus that of its children, because calls in one thread never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, NamedTuple

FOLDED = frozenset({"grid.apply_stage", "grid.validate_stage"})
ROOT = "cli.main"
MODELS = ("unified", "hybridmapper", "dasatom", "enola")


class Target(NamedTuple):
    module: str
    attr: str
    name: str
    # suffix of the span name, computed from the call's arguments
    label: Callable | None = None
    # counts taken from the call's result, added to Recorder.counts
    count: Callable | None = None


def _collapse_counts(result) -> dict:
    _, report = result
    return {
        "normalize.rewrites": len(report.rewrites_applied),
        "normalize.moves_removed": report.moves_before - report.moves_after,
    }


TARGETS = (
    Target("cli", "parse_program", "rsqasm.parse",
           count=lambda p: {"rsqasm.instructions": sum(len(s.ops) for s in p.stages)}),
    Target("cli", "parse_architecture", "arch.parse"),
    Target("cli", "evaluate_model", "models.evaluate", label=lambda program, spec, model: model),
    Target("cli", "serialize_program", "rsqasm.serialize"),
    Target("grid", "simulate", "grid.simulate"),
    Target("grid", "apply_stage", "grid.apply_stage"),
    Target("grid", "validate_stage", "grid.validate_stage"),
    Target("evaluator", "trace_program", "evaluator.trace_program"),
    Target("models", "trace_program", "evaluator.trace_program"),
    Target("models", "evaluate_unified", "evaluator.evaluate_unified"),
    Target("normalize", "collapse", "normalize.collapse", count=_collapse_counts),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Recorder.spans; -1 for a root
    start: float = 0.0
    end: float = 0.0
    count: int = 0
    total: float = 0.0


class Recorder:
    """Spans and counts of one traced job, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._folded: dict[tuple[int, str], int] = {}

    def wrap(self, name: str, fn, label=None, count=None):
        spans, stack, folded, counts = self.spans, self._stack, self._folded, self.counts
        fold = name in FOLDED

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            index = folded.get((parent, span_name)) if fold else None
            if index is None:
                index = len(spans)
                spans.append(Span(span_name, parent))
                if fold:
                    folded[(parent, span_name)] = index
            span = spans[index]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if not span.count:
                    span.start = start
                span.end = end
                span.count += 1
                span.total += end - start
            if count is not None:
                counts.update(count(result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for t in TARGETS:
                module = importlib.import_module(f"na_evalkit.{t.module}")
                original = getattr(module, t.attr)
                saved.append((module, t.attr, original))
                setattr(module, t.attr, self.wrap(t.name, original, t.label, t.count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (seconds) and counts summed over the recorded job."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_collapse = [False] * len(spans)
        # a parent span is always created before its children
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child_time[s.parent] += s.total
                parent = spans[s.parent]
                in_collapse[i] = parent.name == "normalize.collapse" or in_collapse[s.parent]

        def total(name):
            return sum(s.total for s in spans if s.name == name)

        def self_time(name):
            return sum(s.total - child_time[i] for i, s in enumerate(spans) if s.name == name)

        def calls(name, inside=None):
            return sum(s.count for i, s in enumerate(spans)
                       if s.name == name and (inside is None or inside[i]))

        return {
            "arch.parse_s": total("arch.parse"),
            "rsqasm.parse_s": total("rsqasm.parse"),
            "rsqasm.instructions": self.counts["rsqasm.instructions"],
            "rsqasm.serialize_s": total("rsqasm.serialize"),
            "grid.simulate_s": total("grid.simulate"),
            "grid.apply_stage_calls": calls("grid.apply_stage"),
            "grid.apply_stage.self_s": self_time("grid.apply_stage"),
            "evaluator.trace_s": total("evaluator.trace_program"),
            "evaluator.trace_calls": calls("evaluator.trace_program"),
            "evaluator.unified_s": total("models.evaluate.unified"),
            **{f"models.{m}_s": total(f"models.evaluate.{m}") for m in MODELS[1:]},
            "normalize.collapse_s": total("normalize.collapse"),
            "normalize.self_s": self_time("normalize.collapse"),
            "normalize.simulate_calls": calls("grid.simulate", in_collapse),
            "normalize.apply_stage_calls": calls("grid.apply_stage", in_collapse),
            "normalize.rewrites": self.counts["normalize.rewrites"],
            "normalize.moves_removed": self.counts["normalize.moves_removed"],
            "cli.self_s": self_time(ROOT),
        }

    def dump(self) -> list[dict]:
        """Spans as plain dicts, times relative to the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        out = []
        for s in self.spans:
            d = asdict(s)
            d["start"] -= origin
            d["end"] -= origin
            out.append(d)
        return out
