"""Outside-in spans around the public functions of each `edda` module.

A traced run rebinds every function in TARGETS to a timing wrapper, in every
loaded `edda` namespace that holds it (so `from .x import f` imports are
covered too), and methods on their class. The originals are put back when the
`traced` block exits. Spans are kept in memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# "module:qualname"; the span name is "<module suffix>.<function name>"
TARGETS = (
    "edda.synthgen:generate",
    "edda.synthgen:write_dataset",
    "edda.mdgraph:load_interactions",
    "edda.mdgraph:ingest",
    "edda.mdgraph:DomainGraph.sym_norm_adjacency",
    "edda.mdgraph:anchors",
    "edda.walker:mine_pairs",
    "edda.walker:run_walks",
    "edda.walker:write_pairs",
    "edda.encoders:grec_propagate",
    "edda.encoders:save_table",
    "edda.encoders:load_table",
    "edda.edmodel:EDModel.propagated",
    "edda.edmodel:init_model",
    "edda.edmodel:save_model",
    "edda.edmodel:load_model",
    "edda.trainer:train",
    "edda.trainer:adam_step",
    "edda.trainer:edge_dropout",
    "edda.evalkit:split",
    "edda.evalkit:build_cases",
    "edda.evalkit:evaluate_cases_mean",
    "edda.evalkit:evaluate_all",
)

SETUP_STAGE = "cli.synth"
PIPELINE_STAGES = ("cli.align", "cli.train", "cli.eval")  # root spans, one per CLI command


def span_name(target: str) -> str:
    module, _, qualname = target.partition(":")
    return f"{module.rsplit('.', 1)[-1]}.{qualname.rsplit('.', 1)[-1]}"


MODULES = ("cli",) + tuple(dict.fromkeys(span_name(t).split(".")[0] for t in TARGETS))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a root


def _count_mine_pairs(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts["walker.pairs"] += len(result.pairs)
    counts["walker.sources"] += bound.arguments["dataset"].graph(bound.arguments["d"]).n_nodes


def _count_build_cases(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts["evalkit.cases"] += len(result)


COUNTERS = {"walker.mine_pairs": _count_mine_pairs, "evalkit.build_cases": _count_build_cases}


class Tracer:
    """Span recorder for one traced repetition; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count:
                count(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _edda_modules():
    importlib.import_module("edda.cli")  # the package __init__ does not import it
    return [m for name, m in list(sys.modules.items()) if name == "edda" or name.startswith("edda.")]


@contextmanager
def traced(tracer: Tracer):
    """Rebind each target to a span-recording wrapper; restore on exit."""
    rebound: list[tuple[object, str, object]] = []
    try:
        modules = _edda_modules()
        for target in TARGETS:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(span_name(target), original)
            for holder in [owner] if classes else modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        rebound.append((holder, name, original))
        yield
    finally:
        for holder, name, original in reversed(rebound):
            setattr(holder, name, original)


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def _roots(spans: list[Span]) -> list[str]:
    roots: list[str] = []
    for span in spans:  # a parent always precedes its children
        roots.append(span.name if span.parent < 0 else roots[span.parent])
    return roots


def layer_metrics(spans: list[Span], counts: Counter, warnings: Counter) -> dict[str, float]:
    """Per-layer totals of one traced repetition.

    `synthgen.*` spans come from the setup stage; everything else counts only
    inside the pipeline stages (align, train, eval), so the module self times
    plus `cli.self_s` add up to the traced pipeline time.
    """
    out: dict[str, float] = {}
    for name in PIPELINE_STAGES + tuple(span_name(t) for t in TARGETS):
        out.update({f"{name}.s": 0.0, f"{name}.calls": 0, f"{name}.self_s": 0.0})
    out.update({f"{module}.self_s": 0.0 for module in MODULES})
    for span, self_s, root in zip(spans, self_times(spans), _roots(spans)):
        in_setup = root == SETUP_STAGE
        if in_setup != span.name.startswith("synthgen."):
            continue
        duration = span.end - span.start
        out[f"{span.name}.s"] += duration
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += self_s
        if not in_setup:
            out[f"{span.name.split('.')[0]}.self_s"] += self_s
    out["trace.pipeline_s"] = sum(out[f"{name}.s"] for name in PIPELINE_STAGES)
    out["walker.pairs"] = counts["walker.pairs"]
    out["walker.pair_yield"] = (
        counts["walker.pairs"] / counts["walker.sources"] if counts["walker.sources"] else 0.0
    )
    out["evalkit.cases"] = counts["evalkit.cases"]
    out["evalkit.skipped_cases"] = warnings["edda.evalkit"]
    out["trainer.skipped_users"] = warnings["edda.trainer"]
    return out
