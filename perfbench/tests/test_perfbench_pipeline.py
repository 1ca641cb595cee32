"""The benchmark's stage runner, output checks and metric names, on tiny workloads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from edda.evalkit import _quota
from pipeline import Bench, _test_rows, measure, measure_traced, read_facts, sha256
from tracing import TARGETS, span_name
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
SYNTH = {
    "num_domains": 2,
    "users_per_domain": 40,
    "items_per_domain": 20,
    "interactions_per_domain": 240,
    "overlap_fraction": 0.3,
}
TINY_ALIGNED = Workload("tiny_aligned", SYNTH, "edda", 2, True)
TINY_UNALIGNED = Workload("tiny_unaligned", SYNTH, "wo-da", 2, False)


def _traced(workload, directory):
    bench = Bench(workload, 3, directory)
    with bench.logging_attached():
        m = measure_traced(bench, directory, seconds=1e-3)
    assert bench.failures == [] and bench.failed == 0
    return m


@pytest.fixture(scope="module")
def aligned(tmp_path_factory):
    return _traced(TINY_ALIGNED, tmp_path_factory.mktemp("aligned"))


@pytest.fixture(scope="module")
def unaligned(tmp_path_factory):
    return _traced(TINY_UNALIGNED, tmp_path_factory.mktemp("unaligned"))


def _fired(m):
    return {span["name"] for spans in m.spans for span in spans}


def test_every_listed_span_fires_where_its_layer_runs(aligned, unaligned):
    expected = {span_name(t) for t in TARGETS}
    assert expected - _fired(aligned) == set()
    bypassed = {n for n in expected if n.startswith("walker.")} | {"mdgraph.anchors"}
    assert expected - bypassed - _fired(unaligned) == set()
    assert _fired(unaligned) & bypassed == set()
    assert unaligned.metrics["walker.mine_pairs.calls"] == 0
    assert aligned.metrics["walker.pairs"] > 0


def test_traced_reps_write_the_same_bytes_as_untraced_ones(aligned):
    # any difference would have been filed as a failure by _record
    assert {"synth/interactions.tsv", "align/pairs_0_1.tsv", "train/checkpoint/inter.bin",
            "train/train.log", "eval/eval_report.tsv"} <= set(aligned.hashes)


def test_metric_names_match_benchmark_json(aligned, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {d["name"] for d in spec["per_layer"]} <= set(aligned.metrics)
    bench = Bench(TINY_ALIGNED, 1, tmp_path)
    with bench.logging_attached():
        m = measure(bench, tmp_path, seconds=1e-3)
    assert bench.failed == 0
    assert {d["name"] for d in spec["end_to_end"]} <= set(m.metrics) | {"peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_spec_from_a_seed_is_deterministic(tmp_path):
    workload = WORKLOADS["align_heavy"]
    assert workload.spec_text(7) == workload.spec_text(7) != workload.spec_text(8)
    assert workload.config_text(7) == workload.config_text(7)
    bench = Bench(TINY_ALIGNED, 7, tmp_path)
    for name in ("a", "b"):
        assert bench.setup(tmp_path / name) is not None
    other = Bench(TINY_ALIGNED, 8, tmp_path / "other")
    assert other.setup(tmp_path / "c") is not None
    data = [sha256(tmp_path / name / "interactions.tsv") for name in ("a", "b", "c")]
    assert data[0] == data[1] != data[2]


def test_held_out_row_oracle_matches_the_split_rule():
    assert all(_test_rows(n) == _quota(n, (7, 1, 2))[2] for n in range(300))


def test_output_checks_catch_broken_artifacts(tmp_path):
    bench = Bench(TINY_ALIGNED, 5, tmp_path)
    with bench.logging_attached():
        setup = bench.setup(tmp_path / "synth")
        data = setup.out / "interactions.tsv"
        rep = bench.rep(data, tmp_path / "rep")
    facts = read_facts(data)
    for result in rep.values():
        bench.check(result, facts)
    assert bench.failed == 0

    pairs = tmp_path / "rep" / "align" / "pairs_0_1.tsv"
    fields = pairs.read_text().splitlines()[0].split("\t")
    pairs.write_text("\t".join(fields[:5] + ["0"]) + "\n")
    log = tmp_path / "rep" / "train" / "train.log"
    log.write_text(log.read_text().replace("\t", "\tnan\t", 1))
    report = tmp_path / "rep" / "eval" / "eval_report.tsv"
    lines = report.read_text().splitlines()
    label, auc, recall, cases = lines[1].split("\t")
    lines[1] = "\t".join([label, auc, recall, str(int(cases) + 1)])
    report.write_text("\n".join(lines) + "\n")

    for result in rep.values():
        bench.check(result, facts)
    messages = "\n".join(message for _, message in bench.failures)
    assert "similarity 0.0 outside (0, 1]" in messages
    assert "train.log" in messages
    assert "case counts" in messages
    assert bench.failed == 3  # align, train and eval each count once


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "align_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert not out.stdout.strip()
