"""Span arithmetic and rebinding of the traced run."""

import sys
from collections import Counter

import pytest

import edda.cli
import edda.edmodel
import edda.mdgraph
from tracing import TARGETS, Span, Tracer, layer_metrics, self_times, span_name, traced


def _tree():
    return [
        Span("cli.train", 0.0, 10.0),
        Span("trainer.train", 1.0, 9.0, parent=0),
        Span("trainer.adam_step", 2.0, 3.0, parent=1),
        Span("evalkit.build_cases", 4.0, 6.0, parent=1),
        Span("cli.eval", 10.0, 12.0),
        Span("evalkit.evaluate_all", 10.5, 11.5, parent=4),
        Span("cli.synth", 20.0, 21.0),
        Span("synthgen.generate", 20.25, 20.75, parent=6),
        Span("mdgraph.ingest", 20.5, 20.75, parent=7),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [2.0, 5.0, 1.0, 2.0, 1.0, 1.0, 0.5, 0.25, 0.25]


def test_layer_metrics_split_setup_from_pipeline():
    out = layer_metrics(_tree(), Counter(), Counter({"edda.trainer": 2}))
    assert out["trace.pipeline_s"] == 12.0
    assert out["trainer.train.s"] == 8.0
    assert out["trainer.train.self_s"] == 5.0
    assert out["trainer.self_s"] == 6.0
    assert out["evalkit.self_s"] == 3.0
    assert out["cli.self_s"] == 3.0
    assert out["evalkit.build_cases.calls"] == 1
    assert out["trainer.skipped_users"] == 2
    # module self times partition the traced pipeline time
    modules = ("cli", "mdgraph", "walker", "encoders", "edmodel", "trainer", "evalkit")
    assert sum(out[f"{m}.self_s"] for m in modules) == out["trace.pipeline_s"]
    # synthgen spans count from the set-up stage; nothing else there does
    assert out["synthgen.generate.s"] == 0.5
    assert out["synthgen.generate.self_s"] == 0.25
    assert out["mdgraph.ingest.calls"] == 0
    # a layer that never ran reports zero
    assert out["walker.mine_pairs.calls"] == 0
    assert out["walker.pair_yield"] == 0.0


def _edda_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "edda" or name.startswith("edda.")
    }


def test_traced_block_restores_every_attribute():
    before = _edda_namespaces()
    methods = (
        vars(edda.mdgraph.DomainGraph)["sym_norm_adjacency"],
        vars(edda.edmodel.EDModel)["propagated"],
    )
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert hasattr(edda.cli.mine_pairs, "__wrapped__")
            raise RuntimeError("leave the block early")
    after = _edda_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name
    assert vars(edda.mdgraph.DomainGraph)["sym_norm_adjacency"] is methods[0]
    assert vars(edda.edmodel.EDModel)["propagated"] is methods[1]


def test_by_name_imports_are_rebound():
    with traced(Tracer()):
        for holder, attr in [
            (edda.cli, "mine_pairs"), (edda.cli, "train"), (edda.cli, "load_model"),
            (edda.edmodel, "grec_propagate"), (edda.edmodel, "save_table"),
            (edda.evalkit, "ingest"), (edda.synthgen, "ingest"), (edda.walker, "anchors"),
        ]:
            assert hasattr(getattr(holder, attr), "__wrapped__"), f"{holder.__name__}.{attr}"


def test_span_names_are_unique():
    names = [span_name(t) for t in TARGETS]
    assert len(names) == len(set(names))
