"""Drive the `edda` CLI through one workload the way a user would, and check
every file it writes.

Each stage is one call of `edda.cli.main` with the argv a user would type.
A command that exits non-zero, raises, or writes something that fails a
check counts as failed. Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import logging
import math
import shutil
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from edda import cli
from edda.walker import load_pairs

from tracing import Tracer, layer_metrics, traced
from workloads import Workload

SPLIT_RATIOS = (7, 1, 2)
SETUP_REPS = 5  # at least this many timed set-ups, reported as a median
MIN_REPS = 2  # the determinism check compares reps of one run
# files each stage writes whose bytes must not change between runs of one seed
OUTPUTS = {
    "synth": ("interactions.tsv",),
    "align": ("pairs_*.tsv",),
    "train": ("checkpoint/*.bin", "checkpoint/*.npy", "train.log", "val_report.tsv"),
    "eval": ("eval_report.tsv",),
}


class WarningLog(logging.Handler):
    """Every warning of the `edda` loggers, as (logger name, args)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records: list[tuple[str, tuple]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((record.name, record.args))


@dataclass
class StageResult:
    stage: str
    attempt: int  # index of the command among those the Bench ran
    out: Path  # the directory the command wrote
    seconds: float
    stdout: str
    warnings: list[tuple[str, tuple]]


# one pass over the pipeline stages: stage name -> its command's result
Rep = dict[str, StageResult]


# -- facts about the generated data, read without the `edda` package ---------


def _test_rows(n: int) -> int:
    """Held-out test rows of a user with n interactions under the 7:1:2 split:
    largest remainder, ties toward train, train keeps at least one row."""
    total = sum(SPLIT_RATIOS)
    raw = [n * r / total for r in SPLIT_RATIOS]
    counts = [math.floor(x) for x in raw]
    order = sorted(range(3), key=lambda k: (-(raw[k] - counts[k]), k))
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    if n >= 1 and counts[0] == 0:
        donor = 1 if counts[1] >= counts[2] else 2
        counts[donor] -= 1
        counts[0] += 1
    return counts[2]


@dataclass
class DataFacts:
    users: list[set[int]]
    items: list[set[int]]
    test_rows: list[int]  # per domain


def read_facts(path: Path) -> DataFacts:
    degree: list[Counter] = []
    items: list[set[int]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            d, u, i = (int(x) for x in line.split("\t"))
            while len(degree) <= d:
                degree.append(Counter())
                items.append(set())
            degree[d][u] += 1
            items[d].add(i)
    return DataFacts(
        users=[set(c) for c in degree],
        items=items,
        test_rows=[sum(_test_rows(n) for n in c.values()) for c in degree],
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(result: StageResult) -> dict[str, str]:
    """sha256 of each deterministic file a command wrote, keyed `<stage>/<file>`."""
    return {
        f"{result.stage}/{path.relative_to(result.out).as_posix()}": sha256(path)
        for pattern in OUTPUTS[result.stage]
        for path in sorted(result.out.glob(pattern))
    }


# -- the benchmark's view of one workload ----------------------------------------


class Bench:
    """Runs the CLI commands of one workload and records every failure.

    Each command is one attempt. A failure is filed against the attempt
    whose command failed or whose output failed a check, so `failed` counts
    commands, never messages.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []  # (attempt, message)
        self.warnings = WarningLog()
        work_dir.mkdir(parents=True, exist_ok=True)
        self.spec_path = work_dir / "spec.txt"
        self.spec_path.write_text(workload.spec_text(seed), encoding="utf-8")
        self.config_path = work_dir / "run.cfg"
        self.config_path.write_text(workload.config_text(seed), encoding="utf-8")

    @property
    def failed(self) -> int:
        return len({attempt for attempt, _ in self.failures})

    @contextlib.contextmanager
    def logging_attached(self):
        logger = logging.getLogger("edda")
        logger.addHandler(self.warnings)
        try:
            yield
        finally:
            logger.removeHandler(self.warnings)

    def command(self, argv: list[str], out: Path, tracer: Tracer | None = None) -> StageResult | None:
        """Run one CLI command writing `out`; None when it exits non-zero or raises."""
        stage = argv[0]
        attempt = self.attempted
        self.attempted += 1
        gc.collect()
        first_warning = len(self.warnings.records)
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span(f"cli.{stage}"):
                        code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            self.failures.append((attempt, f"{stage}: raised\n{traceback.format_exc()}"))
            return None
        seconds = time.perf_counter() - start
        if code != 0:
            self.failures.append((attempt, f"{stage}: exit code {code}"))
            return None
        return StageResult(stage, attempt, out, seconds, printed.getvalue(),
                           self.warnings.records[first_warning:])

    def setup(self, out: Path, tracer: Tracer | None = None) -> StageResult | None:
        return self.command(["synth", str(self.spec_path), "--out", str(out)], out, tracer)

    def rep(self, data: Path, rep_dir: Path, tracer: Tracer | None = None) -> Rep | None:
        """align (if the workload aligns), train and eval into `rep_dir`;
        None when a command fails."""
        config = ["--config", str(self.config_path)]
        argvs = {}
        pairs = []
        if self.workload.align:
            argvs["align"] = ["align", str(data), "--out", str(rep_dir / "align"), *config]
            pairs = ["--pairs", str(rep_dir / "align")]
        argvs["train"] = ["train", str(data), "--out", str(rep_dir / "train"), *config, *pairs]
        argvs["eval"] = ["eval", str(data), str(rep_dir / "train"), "--out", str(rep_dir / "eval"), *config]
        rep: Rep = {}
        for stage, argv in argvs.items():
            result = self.command(argv, rep_dir / stage, tracer)
            if result is None:
                return None
            rep[stage] = result
        return rep

    # -- output checks ---------------------------------------------------------

    def check(self, result: StageResult, facts: DataFacts) -> tuple[float, float] | None:
        """File a failure for each check the command's output fails; for an
        eval, return its (AVG AUC, AVG Recall@1)."""
        if result.stage == "align":
            self._check_pairs(result, facts)
        elif result.stage == "train":
            self._check_train_log(result)
            self._check_report(result, result.out / "val_report.tsv", None)
        elif result.stage == "eval":
            skipped = Counter(args[0] for name, args in result.warnings if name == "edda.evalkit")
            expected = [rows - skipped[d] for d, rows in enumerate(facts.test_rows)]
            report = result.out / "eval_report.tsv"
            avg = self._check_report(result, report, expected)
            if avg is not None and result.stdout != report.read_text(encoding="utf-8"):
                self.failures.append((result.attempt, "eval: printed report differs from eval_report.tsv"))
            return avg
        return None

    def _check_pairs(self, result: StageResult, facts: DataFacts) -> None:
        def fail(message):
            self.failures.append((result.attempt, f"align: {message}"))

        n = len(facts.users)
        for d in range(n):
            for d_prime in range(d + 1, n):
                path = result.out / f"pairs_{d}_{d_prime}.tsv"
                try:
                    pair_sets = load_pairs(path)
                except (OSError, ValueError) as err:
                    fail(f"{path.name} does not load: {err}")
                    continue
                for pair_set in pair_sets:
                    src, dst = pair_set.domain_pair
                    if {src, dst} != {d, d_prime}:
                        fail(f"{path.name} holds domain pair {pair_set.domain_pair}")
                        continue
                    per_source = Counter(p.source for p in pair_set.pairs)
                    if per_source and max(per_source.values()) > 1:
                        fail(f"{path.name}: more than k=1 pair for one source")
                    for p in pair_set.pairs:
                        nodes = facts.users if p.source.kind == 0 else facts.items
                        if p.source.kind != p.target.kind:
                            fail(f"{path.name}: cross-kind pair {p}")
                        elif p.source.id not in nodes[src] or p.target.id not in nodes[dst]:
                            fail(f"{path.name}: pair {p} outside domains {src}->{dst}")
                        elif not 0.0 < p.similarity <= 1.0:
                            fail(f"{path.name}: similarity {p.similarity} outside (0, 1]")

    def _check_train_log(self, result: StageResult) -> None:
        try:
            rows = [line.split("\t") for line in (result.out / "train.log").read_text(encoding="utf-8").splitlines()]
            losses = [float(x) for row in rows for x in row[1:4]]
        except (OSError, ValueError) as err:
            self.failures.append((result.attempt, f"train.log: {err}"))
            return
        if len(rows) != self.workload.epochs or len(losses) != 3 * len(rows):
            self.failures.append((result.attempt, f"train.log: {len(rows)} rows, {self.workload.epochs} epochs expected"))
        if not all(math.isfinite(x) for x in losses):
            self.failures.append((result.attempt, "train.log: a loss is not finite"))

    def _check_report(self, result: StageResult, path: Path, expected_cases: list[int] | None):
        """(AVG AUC, AVG Recall@1) of a report; per-domain case counts checked
        against `expected_cases` when given."""
        def fail(message):
            self.failures.append((result.attempt, f"{path.name}: {message}"))

        try:
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
            rows = [(label, float(a), float(r), int(n)) for label, a, r, n in (x.split("\t") for x in lines)]
        except (OSError, ValueError) as err:
            fail(str(err))
            return None
        domains = [n for label, _, _, n in rows if label != "AVG"]
        if expected_cases is not None and domains != expected_cases:
            fail(f"case counts {domains}, expected {expected_cases}")
        avg = None
        for label, auc, recall, _ in rows:
            if not (0.0 <= auc <= 1.0 and 0.0 <= recall <= 1.0):
                fail(f"domain {label}: AUC {auc} or Recall@1 {recall} outside [0, 1]")
            if label == "AVG":
                avg = (auc, recall)
        if avg is None:
            fail("no AVG row")
        return avg


# -- measurement loops --------------------------------------------------------


@dataclass
class Measurement:
    metrics: dict[str, float] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)  # of the first output of each stage
    quality: tuple[float, float] | None = None  # AVG AUC and Recall@1 of the first eval
    runs: list[dict[str, float]] = field(default_factory=list)  # seconds per stage, per command group
    spans: list[list[dict]] = field(default_factory=list)  # traced set-up, then each traced rep


def _record(bench: Bench, m: Measurement, results: list[StageResult], facts: DataFacts) -> None:
    """Check each command's output and compare its hashes with the first
    output of the same stage; only the first outputs stay on disk."""
    m.runs.append({r.stage: r.seconds for r in results})
    for result in results:
        avg = bench.check(result, facts)
        if result.stage == "eval" and m.quality is None:
            m.quality = avg
        hashes = output_hashes(result)
        first = {k: v for k, v in m.hashes.items() if k.startswith(f"{result.stage}/")}
        if not first:
            m.hashes.update(hashes)
            continue
        for name in sorted(set(first) | set(hashes)):
            if first.get(name) != hashes.get(name):
                bench.failures.append((result.attempt, f"{name} differs from the first {result.stage}"))
        shutil.rmtree(result.out)


def _pipeline_s(rep: Rep) -> float:
    return sum(r.seconds for r in rep.values())


def measure(bench: Bench, work_dir: Path, seconds: float) -> Measurement:
    """Untraced run: cycles of a set-up and a rep on the first data set until
    the next cycle would end after `seconds`, then set-ups up to SETUP_REPS.
    Set-ups spread over the run see the same host conditions as the reps."""
    m = Measurement()
    start = time.perf_counter()
    setups: list[StageResult] = []
    reps: list[Rep] = []
    facts = None
    while len(reps) < MIN_REPS or (
        time.perf_counter() - start
        + statistics.median(r.seconds for r in setups)
        + statistics.median(map(_pipeline_s, reps)) <= seconds
    ):
        setup = bench.setup(work_dir / f"setup{len(setups)}" / "synth")
        if setup is None:
            return m
        if facts is None:
            data = setup.out / "interactions.tsv"
            facts = read_facts(data)
        _record(bench, m, [setup], facts)
        setups.append(setup)
        rep = bench.rep(data, work_dir / f"rep{len(reps)}")
        if rep is None:
            return m
        _record(bench, m, list(rep.values()), facts)
        reps.append(rep)
    while len(setups) < SETUP_REPS:
        setup = bench.setup(work_dir / f"setup{len(setups)}" / "synth")
        if setup is None:
            return m
        _record(bench, m, [setup], facts)
        setups.append(setup)
    m.metrics = {
        "setup_s": statistics.median(r.seconds for r in setups),
        "pipeline_s": statistics.median(map(_pipeline_s, reps)),
    }
    for stage in reps[0]:
        m.metrics[f"{stage}_s"] = statistics.median(rep[stage].seconds for rep in reps)
    if m.quality is not None:
        m.metrics["test_auc"], m.metrics["test_recall_at_1"] = m.quality
    return m


def measure_traced(bench: Bench, work_dir: Path, seconds: float) -> Measurement:
    """Traced run: one traced set-up (for `synthgen.*`), then pairs of an
    untraced and a traced rep on its data, so the tracing overhead is
    measured under the same conditions."""
    m = Measurement()
    start = time.perf_counter()
    setup_tracer = Tracer()
    with traced(setup_tracer):
        setup = bench.setup(work_dir / "setup0" / "synth", setup_tracer)
    if setup is None:
        return m
    m.spans.append(setup_tracer.records())
    data = setup.out / "interactions.tsv"
    facts = read_facts(data)
    _record(bench, m, [setup], facts)
    untraced_s: list[float] = []
    rows: list[dict[str, float]] = []
    pair_s = 0.0
    while not rows or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        rep = bench.rep(data, work_dir / f"rep{len(rows)}")
        if rep is None:
            return m
        _record(bench, m, list(rep.values()), facts)
        tracer = Tracer()
        with traced(tracer):
            traced_rep = bench.rep(data, work_dir / f"traced{len(rows)}", tracer)
        m.spans.append(tracer.records())
        if traced_rep is None:
            return m
        warnings = Counter(name for r in traced_rep.values() for name, _ in r.warnings)
        rows.append(layer_metrics(tracer.spans, tracer.counts, warnings))
        _record(bench, m, list(traced_rep.values()), facts)
        untraced_s.append(_pipeline_s(rep))
        pair_s = time.perf_counter() - pair_start
    m.metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    synth = layer_metrics(setup_tracer.spans, Counter(), Counter())
    m.metrics.update({name: value for name, value in synth.items() if name.startswith("synthgen.")})
    m.metrics["trace.overhead_s"] = m.metrics["trace.pipeline_s"] - statistics.median(untraced_s)
    return m
