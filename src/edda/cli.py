"""Command-line front end: synth | align | train | eval.

Every command writes a manifest into its output directory recording the
resolved configuration, seeds, and SHA-256 hashes of its inputs: `eval`
writes `eval_manifest.txt`, so a run directory keeps the `manifest.txt` its
training wrote. Reruns with identical inputs and configuration produce
byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 data/config error or an unusable
path (missing, a directory where a file is wanted, or the reverse).

`train` holds the heap first (`_hold_heap`): each training step frees
several table-sized arrays, which glibc's defaults hand back to the kernel
(unmapped, or trimmed off the heap top) for the next step to fault in again,
about 10 MB a step. glibc's mmap threshold at its 32 MiB maximum and its trim
threshold at twice that keep them in the heap for reuse, for the rest of the
process; larger arrays are still unmapped on free. glibc on Linux only.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import evalkit, synthgen
from .edmodel import VARIANTS, EDModel, ModelSpec, init_model, load_model, save_model, variant_spec
from .encoders import GRecConfig
from .mdgraph import MultiDomainDataset, atomic_write, ingest_file, read_key_values
from .trainer import TrainConfig, TrainingDiverged, train
from .walker import WalkConfig, load_pairs, mine_pairs, run_walks, write_pairs

ALIGNED_VARIANTS = ("edda", "ed-mf")  # the rest drop the alignment term
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
HEAP_MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on 64-bit


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings: defaults, then config file, then CLI flags."""

    seed: int = 0
    eval_seed: int = 0
    variant: str = "edda"
    d_inter: int = ModelSpec.d_inter
    d_intra: int = ModelSpec.d_intra
    num_layers: int = GRecConfig.num_layers
    alpha: float = GRecConfig.alpha
    beta: float = TrainConfig.beta
    reg_lambda: float = TrainConfig.reg_lambda
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    edge_dropout: float = TrainConfig.edge_dropout
    # a command-line run trains longer than the library default and stops early
    epochs: int = 200
    patience: int = 20  # negative: disabled
    k: int = 1
    walk_length: int = WalkConfig.walk_length
    num_walks: int = WalkConfig.num_walks
    checkpoint_every: int = 0  # 0: only the final checkpoint

    def model_spec(self) -> ModelSpec:
        base = ModelSpec(
            d_inter=self.d_inter,
            d_intra=self.d_intra,
            grec=GRecConfig(num_layers=self.num_layers, alpha=self.alpha),
        )
        return variant_spec(base, self.variant)

    def train_config(self) -> TrainConfig:
        settings = {f.name: getattr(self, f.name) for f in fields(TrainConfig)}
        settings["patience"] = self.patience if self.patience >= 0 else None
        return TrainConfig(**settings)

    def walk_config(self) -> WalkConfig:
        return WalkConfig(
            walk_length=self.walk_length, num_walks=self.num_walks, rng_seed=self.seed
        )


def resolve_config(config_path: str | None, overrides: dict) -> RunConfig:
    """The checked run settings: a bad one stops a command before it does any work."""
    cfg = RunConfig()
    if config_path:
        types = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
        file_values = read_key_values(config_path)
        unknown = set(file_values) - set(types)
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            try:
                cfg = replace(cfg, **{key: types[key](value)})
            except ValueError as err:
                raise ValueError(f"{config_path}: {key}: {err}") from None
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    for key in ("seed", "eval_seed", "checkpoint_every"):
        if getattr(cfg, key) < 0:
            raise ValueError(f"{key} must be non-negative, got {getattr(cfg, key)}")
    if cfg.k < 1:
        raise ValueError(f"k must be at least 1, got {cfg.k}")
    for build in (cfg.model_spec, cfg.train_config, cfg.walk_config):
        build()  # each config class checks its own fields
    return cfg


def _sha256(path: Path) -> str:
    digest, block = hashlib.sha256(), bytearray(1 << 20)  # read in 1 MiB blocks into one buffer
    with open(path, "rb") as handle:
        while n := handle.readinto(block):
            digest.update(memoryview(block)[:n])
    return digest.hexdigest()


def _config_lines(cfg: RunConfig) -> list[str]:
    return [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]


def _write_manifest(manifest: Path, command: str, cfg: RunConfig | None, inputs: dict[str, Path], extra: dict | None = None) -> None:
    lines = [f"command = {command}"]
    if cfg is not None:
        lines.extend(_config_lines(cfg))
    for name, path in sorted(inputs.items()):
        lines.append(f"input.{name} = {Path(path).name}")
        lines.append(f"sha256.{name} = {_sha256(Path(path))}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key} = {value}")
    with atomic_write(manifest) as handle:
        handle.write("\n".join(lines) + "\n")


def _provenance_mismatches(recorded: dict[str, str], cfg: RunConfig, data: Path, source: str) -> list[str]:
    """How an upstream manifest's split seed and data hash differ from this run's."""
    mismatches = []
    if recorded.get("seed") != str(cfg.seed):
        mismatches.append(f"split seed {recorded.get('seed')} != {cfg.seed}")
    if recorded.get("sha256.data") != _sha256(data):
        mismatches.append(f"data file hash differs from the {source} manifest")
    return mismatches


def _checkpoint_mismatch(model: EDModel, dataset: MultiDomainDataset) -> str | None:
    """Where a checkpoint's table keys differ from the dataset's nodes, or None.

    Training builds each per-domain table on its domain's nodes and the
    shared table on all nodes, so a checkpoint of other data differs here.
    """
    tables = []
    if model.intra is not None:
        n_saved, n_wanted = len(model.intra), dataset.num_domains
        if n_saved != n_wanted:
            return f"{n_saved} domains in the checkpoint, {n_wanted} in the data"
        for d, (table, graph) in enumerate(zip(model.intra, dataset.domains)):
            tables.append((f"domain {d}", table.keys, graph.keys))
    if model.inter is not None:
        tables.append(("shared table", model.inter.keys, dataset.keys))
    for name, saved, wanted in tables:
        if not np.array_equal(saved, wanted):
            return f"{name} has {len(saved)} nodes in the checkpoint and {len(wanted)} in the data"
    return None


def _refused(action: str, mismatches: list[str], force: bool) -> bool:
    if mismatches and not force:
        print(
            f"refusing to {action} (pass --force to override): " + "; ".join(mismatches),
            file=sys.stderr,
        )
        return True
    return False


def _hold_heap() -> None:
    """Keep freed blocks under 32 MiB in the heap (see the module docstring).
    Either threshold alone turns off glibc's dynamic thresholds and faults
    more, so the trim threshold is set only once the mmap threshold is."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    mallopt = getattr(libc, "mallopt", None)  # None off Linux or without glibc's mallopt
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD):  # 0: refused
        mallopt(M_TRIM_THRESHOLD, 2 * HEAP_MMAP_THRESHOLD)


# -- commands ------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = synthgen.load_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    records, latents = synthgen.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synthgen.write_dataset(out, spec, records, latents)
    _write_manifest(out / "manifest.txt", "synth", None, {"spec": Path(args.spec)}, {"seed": spec.seed})
    print(f"wrote {spec.num_domains} domains to {out / 'interactions.tsv'}")
    return 0


def cmd_align(args) -> int:
    cfg = resolve_config(args.config, _overrides(args))
    dataset = ingest_file(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # pairs are mined on the training graphs so held-out edges stay unseen
    split_data = evalkit.split(dataset, seed=cfg.seed)
    written = []
    if dataset.num_domains < 2:
        print("single-domain dataset: no domain pairs to align", file=sys.stderr)
    else:
        stops = [run_walks(graph, cfg.walk_config()) for graph in split_data.train.domains]
    for d in range(dataset.num_domains):
        for d_prime in range(d + 1, dataset.num_domains):
            pair_sets = [
                mine_pairs(split_data.train, d, d_prime, cfg.k, stops),
                mine_pairs(split_data.train, d_prime, d, cfg.k, stops),
            ]
            path = out / f"pairs_{d}_{d_prime}.tsv"
            write_pairs(path, pair_sets)
            written.append(path)
    _write_manifest(
        out / "manifest.txt",
        "align",
        cfg,
        {"data": Path(args.data)},
        {"pair_files": ",".join(p.name for p in written)},
    )
    print(f"wrote {len(written)} pair files to {out}")
    return 0


def _load_pair_sets(paths: list[str]):
    pair_sets = []
    resolved: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            resolved.extend(sorted(p.glob("pairs_*.tsv")))
        else:
            resolved.append(p)
    for p in resolved:
        pair_sets.extend(load_pairs(p))
    return pair_sets, resolved


def _pair_mismatches(pair_paths: list[Path], cfg: RunConfig, data: Path) -> list[str]:
    """Check the align manifest next to each pair file against this run.

    Pairs mined on another split have seen this run's held-out edges. Pair
    files without a manifest cannot be checked; that is warned about once.
    """
    mismatches = []
    unchecked = []
    for directory in dict.fromkeys(p.parent for p in pair_paths):
        manifest = directory / "manifest.txt"
        if manifest.exists():
            recorded = read_key_values(manifest)
            mismatches.extend(
                f"{directory}: {m}" for m in _provenance_mismatches(recorded, cfg, data, "align")
            )
        else:
            unchecked.append(str(directory))
    if unchecked:
        print(
            "warning: no align manifest next to the pair files in "
            + ", ".join(unchecked)
            + "; their split seed and data hash are unchecked",
            file=sys.stderr,
        )
    return mismatches


def cmd_train(args) -> int:
    _hold_heap()
    cfg = resolve_config(args.config, _overrides(args))
    dataset = ingest_file(args.data)
    split_data = evalkit.split(dataset, seed=cfg.seed)
    pair_sets, pair_paths = [], []
    if cfg.variant in ALIGNED_VARIANTS:
        pair_sets, pair_paths = _load_pair_sets(args.pairs or [])
        if _refused("train", _pair_mismatches(pair_paths, cfg, Path(args.data)), args.force):
            return 2
        if not pair_sets:
            print(
                f"warning: variant {cfg.variant} aligns pairs, but no pair was loaded;"
                " it trains without the alignment term",
                file=sys.stderr,
            )
    elif args.pairs:  # neither read nor recorded
        print(f"variant {cfg.variant}: alignment pairs ignored", file=sys.stderr)

    model = init_model(cfg.model_spec(), dataset, seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    callbacks = []
    if cfg.checkpoint_every > 0:
        def checkpoint_cb(log, current):
            if log.epoch % cfg.checkpoint_every == 0:
                save_model(out / f"checkpoint_epoch_{log.epoch}", current)
        callbacks.append(checkpoint_cb)

    val_cases = evalkit.build_all_cases(split_data, "validation", cfg.eval_seed)
    try:
        model, logs, val_rows = train(
            model, split_data, pair_sets, cfg.train_config(), val_cases, callbacks=callbacks
        )
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 2

    save_model(out / "checkpoint", model)
    log_lines = []
    for log in logs:  # the last column is a wall time, zeroed so reruns match
        log_lines.append(
            f"{log.epoch}\t{log.bpr:.6f}\t{log.align:.6f}\t{log.total:.6f}"
            f"\t{log.val_auc:.6f}\t{log.val_recall:.6f}\t0.000"
        )
    with atomic_write(out / "train.log") as handle:
        handle.write("\n".join(log_lines) + ("\n" if log_lines else ""))
    if not val_rows:  # no epoch validated: no epochs, or no validation case
        val_rows = evalkit.evaluate_all(model, split_data, val_cases)
    evalkit.write_report(out / "val_report.tsv", val_rows)

    inputs = {"data": Path(args.data)}
    for idx, p in enumerate(pair_paths):
        inputs[f"pairs{idx}"] = p
    _write_manifest(out / "manifest.txt", "train", cfg, inputs, {"epochs_run": len(logs)})
    print(f"trained {cfg.variant} for {len(logs)} epochs; checkpoint in {out / 'checkpoint'}")
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args.config, _overrides(args))
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.txt"
    if manifest_path.exists():
        recorded = read_key_values(manifest_path)
        mismatches = _provenance_mismatches(recorded, cfg, Path(args.data), "training")
        if recorded.get("eval_seed") != str(cfg.eval_seed):
            mismatches.append(f"eval seed {recorded.get('eval_seed')} != {cfg.eval_seed}")
        if _refused("evaluate", mismatches, args.force):
            return 2
    else:
        print(
            f"warning: no training manifest in {run_dir}; its split seed, data hash"
            " and eval seed are unchecked",
            file=sys.stderr,
        )

    dataset = ingest_file(args.data)
    split_data = evalkit.split(dataset, seed=cfg.seed)
    model = load_model(run_dir / "checkpoint")
    mismatch = _checkpoint_mismatch(model, dataset)
    if mismatch:
        print(f"error: checkpoint does not match the data: {mismatch}", file=sys.stderr)
        return 2
    test_cases = evalkit.build_all_cases(split_data, "test", cfg.eval_seed)
    rows = evalkit.evaluate_all(model, split_data, test_cases)
    sys.stdout.write(evalkit.format_report(rows))

    stats_lines = ["domain\tdomain_size\tout_of_domain_interaction"]
    for d in range(split_data.train.num_domains):
        ds_frac = evalkit.domain_size(split_data.train, d)
        oi = evalkit.out_of_domain_interaction(split_data.train, d)
        stats_lines.append(f"{d}\t{ds_frac:.6f}\t{oi:.6f}")
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    evalkit.write_report(out / "eval_report.tsv", rows)
    with atomic_write(out / "domain_stats.tsv") as handle:
        handle.write("\n".join(stats_lines) + "\n")
    _write_manifest(
        out / "eval_manifest.txt", "eval", cfg, {"data": Path(args.data)},
        {"checkpoint": str(run_dir.name)},
    )
    return 0


# -- argument plumbing ---------------------------------------------------------


def _overrides(args) -> dict:
    """The RunConfig fields set by command-line flags; a flag's dest is its field name."""
    return {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}


def build_parser() -> _Parser:
    parser = _Parser(prog="edda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, help="root random seed")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("spec", help="synthetic spec file")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(func=cmd_synth)

    p_align = sub.add_parser("align", help="mine cross-domain similar pairs")
    p_align.add_argument("data", help="interaction file")
    p_align.add_argument("--out", required=True)
    common(p_align)
    p_align.add_argument("--k", type=int)
    p_align.add_argument("--walk-length", dest="walk_length", type=int)
    p_align.add_argument("--num-walks", dest="num_walks", type=int)
    p_align.set_defaults(func=cmd_align)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("data", help="interaction file")
    p_train.add_argument("--pairs", nargs="*", help="pair files or directories")
    p_train.add_argument("--out", required=True)
    common(p_train)
    p_train.add_argument("--variant", choices=tuple(VARIANTS))
    p_train.add_argument("--beta", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--eval-seed", dest="eval_seed", type=int)
    p_train.add_argument("--force", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained run")
    p_eval.add_argument("data", help="interaction file")
    p_eval.add_argument("run", help="training output directory")
    p_eval.add_argument("--out")
    common(p_eval)
    p_eval.add_argument("--eval-seed", dest="eval_seed", type=int)
    p_eval.add_argument("--force", action="store_true")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    # ValueError covers IngestError and SynthError; a failing write propagates
    except (
        ValueError, KeyError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
