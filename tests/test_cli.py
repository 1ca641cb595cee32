import filecmp
from pathlib import Path

import numpy as np
import pytest

from edda.cli import main
from edda.edmodel import init_model, load_model
from edda.mdgraph import ingest_file, write_interactions


SPEC_TEXT = """\
num_domains = 2
users_per_domain = 12,10
items_per_domain = 16,12
interactions_per_domain = 110,80
overlap_fraction = 0.1
shared_dim = 4
specific_dim = 2
shared_weight = 0.7
seed = 3
"""

CONFIG_TEXT = """\
d_inter = 4
d_intra = 4
epochs = 3
batch_size = 64
learning_rate = 0.01
num_walks = 60
patience = -1
"""


@pytest.fixture()
def workspace(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SPEC_TEXT)
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
    return tmp_path


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def test_synth_writes_dataset_and_manifest(workspace):
    data_dir = workspace / "data"
    assert (data_dir / "interactions.tsv").exists()
    assert (data_dir / "synth.manifest").exists()
    assert (data_dir / "manifest.txt").exists()
    ds = ingest_file(data_dir / "interactions.tsv")
    assert ds.num_domains == 2
    assert ds.graph(0).n_edges == 110


def test_synth_rerun_is_byte_identical(workspace, tmp_path):
    spec = workspace / "spec.cfg"
    assert main(["synth", str(spec), "--out", str(tmp_path / "again")]) == 0
    a = _dir_bytes(workspace / "data")
    b = _dir_bytes(tmp_path / "again")
    assert a == b


def test_synth_infeasible_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SPEC_TEXT.replace("interactions_per_domain = 110,80", "interactions_per_domain = 4,4"))
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, replacement, message",
    [
        ("seed = 3", "seed = 3\naffinity_gain = nan", "affinity_gain must be finite"),
        ("users_per_domain = 12,10", "users_per_domain = 0", "users_per_domain must be at least 1"),
    ],
)
def test_synth_degenerate_spec_exits_2_and_writes_nothing(tmp_path, capsys, line, replacement, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SPEC_TEXT.replace(line, replacement))
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_align_train_eval_pipeline(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    assert main(["align", str(data), "--out", str(workspace / "pairs"), "--config", str(config)]) == 0
    pair_files = sorted((workspace / "pairs").glob("pairs_*.tsv"))
    assert [p.name for p in pair_files] == ["pairs_0_1.tsv"]

    assert main([
        "train", str(data), "--pairs", str(workspace / "pairs"),
        "--out", str(workspace / "run"), "--config", str(config),
    ]) == 0
    run_dir = workspace / "run"
    assert (run_dir / "checkpoint" / "model.manifest").exists()
    log_lines = (run_dir / "train.log").read_text().strip().split("\n")
    assert len(log_lines) == 3
    assert all(len(line.split("\t")) == 7 for line in log_lines)
    # determinism mode zeroes the wall-clock column
    assert all(line.split("\t")[-1] == "0.000" for line in log_lines)

    capsys.readouterr()
    assert main([
        "eval", str(data), str(run_dir), "--config", str(config),
    ]) == 0
    report = capsys.readouterr().out.strip().split("\n")
    ds = ingest_file(data)
    assert len(report) == ds.num_domains + 2  # header + per-domain + AVG
    assert report[-1].startswith("AVG\t")
    stats = (run_dir / "domain_stats.tsv").read_text().strip().split("\n")
    assert len(stats) == ds.num_domains + 1


def test_train_rerun_is_byte_identical(workspace):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    for name in ("run_a", "run_b"):
        assert main([
            "train", str(data), "--out", str(workspace / name), "--config", str(config),
        ]) == 0
    assert _dir_bytes(workspace / "run_a") == _dir_bytes(workspace / "run_b")


def test_train_epochs_zero_keeps_initialization(workspace):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    assert main([
        "train", str(data), "--out", str(workspace / "run0"),
        "--config", str(config), "--epochs", "0",
    ]) == 0
    loaded = load_model(workspace / "run0" / "checkpoint")
    from edda.cli import resolve_config

    cfg = resolve_config(str(config), {"epochs": 0})
    fresh = init_model(cfg.model_spec(), ingest_file(data), seed=cfg.seed)
    for (_, a), (_, b) in zip(loaded.parameters(), fresh.parameters()):
        assert np.array_equal(a, b)


def test_variant_flags_shape_the_model(workspace):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    for variant, check in [
        ("inter", lambda m: m.intra is None and m.inter.dim == 8),
        ("intra", lambda m: m.inter is None and m.intra[0].dim == 8),
        ("ed-mf", lambda m: m.spec.encoder == "mf"),
    ]:
        out = workspace / f"run_{variant}"
        assert main([
            "train", str(data), "--out", str(out), "--config", str(config),
            "--variant", variant, "--epochs", "1",
        ]) == 0
        assert check(load_model(out / "checkpoint"))


def test_eval_refuses_on_seed_mismatch(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    assert main([
        "train", str(data), "--out", str(workspace / "runm"), "--config", str(config),
    ]) == 0
    capsys.readouterr()
    code = main([
        "eval", str(data), str(workspace / "runm"), "--config", str(config),
        "--seed", "99",
    ])
    assert code == 2
    assert "refusing" in capsys.readouterr().err
    assert main([
        "eval", str(data), str(workspace / "runm"), "--config", str(config),
        "--seed", "99", "--force",
    ]) == 0


def test_eval_without_training_manifest_warns_once(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    run = workspace / "run_nomanifest"
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    (run / "manifest.txt").unlink()
    capsys.readouterr()
    code = main([
        "eval", str(data), str(run), "--out", str(workspace / "eval_nm"),
        "--config", str(config), "--seed", "99",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("warning: no training manifest") == 1
    assert "split seed, data hash and eval seed are unchecked" in err
    assert "refusing" not in err


def test_align_single_domain_writes_no_pairs(tmp_path, capsys):
    data = tmp_path / "one.tsv"
    write_interactions(data, [(0, u, i) for u in range(4) for i in range(4)])
    assert main(["align", str(data), "--out", str(tmp_path / "pairs")]) == 0
    assert list((tmp_path / "pairs").glob("pairs_*.tsv")) == []
    assert "single-domain" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["train"]) == 1
    assert main(["bogus"]) == 1


def test_malformed_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\tnot_an_int\t1\n")
    assert main(["align", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_config_file_unknown_key_exit_code(workspace, capsys):
    config = workspace / "weird.cfg"
    config.write_text("no_such_key = 1\n")
    data = workspace / "data" / "interactions.tsv"
    assert main(["align", str(data), "--out", str(workspace / "p"), "--config", str(config)]) == 2


def test_train_refuses_pairs_mined_on_another_split(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    pairs = workspace / "pairs_s1"
    assert main(["align", str(data), "--out", str(pairs), "--config", str(config), "--seed", "1"]) == 0
    train = ["train", str(data), "--pairs", str(pairs), "--config", str(config)]
    capsys.readouterr()
    assert main([*train, "--out", str(workspace / "run_s2"), "--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert "refusing to train (pass --force to override)" in err
    assert "split seed 1 != 2" in err
    assert not (workspace / "run_s2").exists()
    assert main([*train, "--out", str(workspace / "run_s2"), "--seed", "2", "--force"]) == 0

    # a different data file under the same seed is refused too
    other = workspace / "other.tsv"
    write_interactions(other, [r for r in ingest_file(data).records() if r[1] != 0])
    capsys.readouterr()
    assert main([
        "train", str(other), "--pairs", str(pairs), "--config", str(config),
        "--seed", "1", "--out", str(workspace / "run_other"),
    ]) == 2
    assert "data file hash differs from the align manifest" in capsys.readouterr().err


def test_unaligned_variant_ignores_pairs_without_checking_them(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    pairs = workspace / "pairs_s1"
    bare = workspace / "bare"  # pair file with no manifest next to it
    assert main(["align", str(data), "--out", str(pairs), "--config", str(config), "--seed", "1"]) == 0
    bare.mkdir()
    (bare / "pairs_0_1.tsv").write_bytes((pairs / "pairs_0_1.tsv").read_bytes())
    for name in ("pairs_s1", "bare"):
        capsys.readouterr()
        assert main([
            "train", str(data), "--pairs", str(workspace / name), "--config", str(config),
            "--seed", "2", "--variant", "wo-da", "--out", str(workspace / f"run_{name}"),
        ]) == 0
        err = capsys.readouterr().err
        assert "variant wo-da: alignment pairs ignored" in err
        assert "refusing" not in err and "warning" not in err


def test_train_with_checked_pairs_writes_the_same_bytes(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    pairs = workspace / "pairs"
    assert main(["align", str(data), "--out", str(pairs), "--config", str(config)]) == 0
    bare = workspace / "bare"  # the same pair file with no manifest next to it
    bare.mkdir()
    (bare / "pairs_0_1.tsv").write_bytes((pairs / "pairs_0_1.tsv").read_bytes())

    runs = {}
    for name, argv in [
        ("checked", ["--pairs", str(pairs)]),
        ("forced", ["--pairs", str(pairs / "pairs_0_1.tsv"), "--force"]),
        ("bare", ["--pairs", str(bare)]),
    ]:
        capsys.readouterr()
        out = workspace / f"run_{name}"
        assert main(["train", str(data), "--out", str(out), "--config", str(config), *argv]) == 0
        runs[name] = (_dir_bytes(out), capsys.readouterr().err)
    assert runs["checked"][0] == runs["forced"][0] == runs["bare"][0]
    assert runs["checked"][1] == runs["forced"][1] == ""
    assert runs["bare"][1].count("warning: no align manifest") == 1


def test_train_rejects_malformed_pair_file(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    bad = workspace / "bad.tsv"
    bad.write_text("0\t1\tusr\t3\t4\t0.5\n")
    code = main([
        "train", str(data), "--pairs", str(bad), "--out", str(workspace / "run"),
        "--config", str(workspace / "run.cfg"),
    ])
    assert code == 2
    assert f"{bad} line 1: kind must be user or item" in capsys.readouterr().err
