import argparse
import contextlib
import filecmp
import hashlib
import io
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import edda
from edda import evalkit
from edda.cli import RunConfig, _sha256, build_parser, main, resolve_config
from edda.edmodel import init_model, load_model
from edda.mdgraph import ingest_file, load_interactions, read_key_values, write_interactions

from oracles import interaction_files


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
    "line, replacement, flags, message",
    [
        ("seed = 3", "seed = 3\naffinity_gain = nan", [], "{spec}: affinity_gain must be finite"),
        ("users_per_domain = 12,10", "users_per_domain = 0", [], "{spec}: users_per_domain must be at least 1"),
        (
            "num_domains = 2",
            "num_domains = 99999999999999999999",
            [],
            "{spec}: num_domains must lie in [1, 256]",
        ),
        (
            "items_per_domain = 16,12",
            f"items_per_domain = {2**62}",
            [],
            "{spec}: items_per_domain must be at most 4611686018427387903",
        ),
        ("seed = 3", "seed = 3.5", [], "{spec}: seed: invalid literal for int()"),
        ("users_per_domain = 12,10", "users_per_domain = 12,x", [], "{spec}: users_per_domain: invalid literal"),
        ("seed = 3", "seed = -1", [], "{spec}: seed must be non-negative, got -1"),
        ("seed = 3", "seed = 3", ["--seed", "-4"], "seed must be non-negative, got -4"),
    ],
)
def test_synth_degenerate_spec_exits_2_and_writes_nothing(tmp_path, capsys, line, replacement, flags, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SPEC_TEXT.replace(line, replacement))
    assert main(["synth", str(bad), "--out", str(tmp_path / "out"), *flags]) == 2
    assert f"error: {message.format(spec=bad)}" in capsys.readouterr().err
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
    # the wall-clock column is written as zero, so reruns are byte-identical
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


# sha256 of what `edda train` writes for the workspace's dataset, its mined
# pairs and CONFIG_TEXT (edge dropout 0.3, three epochs of batch 64). Any
# change to the negative or dropout random streams, or to the arithmetic of a
# step, changes them: such a change must say why.
TRAIN_SHA256 = {
    "train.log": "9c3024c0d65a5ae1c12597b6e0f5ea81fe089cfeae89d756114b034c6e3ed79e",
    "checkpoint/inter.bin": "5a600a384ca2c3edd0b2407341abdd7d10c64d467313247b3793b27bb5fe1c85",
    "checkpoint/intra_0.bin": "37ada553b4ab4240e7e808c46d151054125a224855bb7b7715013b04093df9de",
    "checkpoint/intra_1.bin": "9d2488758b17d80f490049bd207a15cf2264830dce6fc493c2c3685652cc1f4f",
    "checkpoint/model.manifest": "b7ba1b83803592e7c7e49f06a28cfc1e38a32494b7df4fc77c6e700ee698dd9f",
    "checkpoint/proj_0.npy": "66a2a816e7e066e7fffbf31bbdfff9cf14bdd1e425bbc74f509e33c72aae0d43",
    "checkpoint/proj_1.npy": "632031ed31458a7f363817357c072edcf863fd70ddc02051e6014f8e1ccc6bc8",
}


def test_training_bytes_are_pinned(workspace):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    assert "edge_dropout" not in CONFIG_TEXT  # the 0.3 default applies
    assert main(["align", str(data), "--out", str(workspace / "pairs"), "--config", str(config)]) == 0
    assert main([
        "train", str(data), "--pairs", str(workspace / "pairs"),
        "--out", str(workspace / "run"), "--config", str(config),
    ]) == 0
    got = {
        name: hashlib.sha256((workspace / "run" / name).read_bytes()).hexdigest()
        for name in TRAIN_SHA256
    }
    assert got == TRAIN_SHA256
    assert "edge_dropout = 0.3\n" in (workspace / "run" / "manifest.txt").read_text()


# sha256 of every pair file `edda align` writes for SPEC_TEXT grown to three
# domains and CONFIG_TEXT with k = 2. Each domain's walks serve both of its
# partner domains, in both directions. Any change to the walk streams, the
# stop counts, the similarity arithmetic or the tie order changes them.
ALIGN_SHA256 = {
    "pairs_0_1.tsv": "f7940a434b11e7bf9590302ae19cf24587160eec3703a2414d5c8c7a14b5a670",
    "pairs_0_2.tsv": "a65d358eed47fa17e22b9a606ab04bef4baff679160d6b5d7e8876ef8bfa3185",
    "pairs_1_2.tsv": "5261e71dcb9aca86de7c47e2b9511aa5701402e7dc56c45aad28a3066d6b4e2b",
}


def test_pair_bytes_are_pinned(tmp_path):
    spec = tmp_path / "spec3.cfg"
    spec.write_text(
        SPEC_TEXT.replace("num_domains = 2", "num_domains = 3")
        .replace("users_per_domain = 12,10", "users_per_domain = 12,10,11")
        .replace("items_per_domain = 16,12", "items_per_domain = 16,12,14")
        .replace("interactions_per_domain = 110,80", "interactions_per_domain = 110,80,90")
    )
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT + "k = 2\n")
    assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
    data = tmp_path / "data" / "interactions.tsv"
    assert main(["align", str(data), "--out", str(tmp_path / "pairs"), "--config", str(config)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "pairs").glob("pairs_*.tsv"))
    }
    assert got == ALIGN_SHA256


# after `edda train`, a process allocates and frees a 4.8 MB and a 2.4 MB
# array in a loop; it prints the minor page faults of all but the first round
HELD_HEAP_SCRIPT = """\
import resource, sys
import numpy as np
from edda.cli import main
assert main(["train", *sys.argv[1:]]) == 0
def churn():
    a, b = np.ones(600_000), np.ones(300_000)
    del a, b
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap settings")
def test_train_holds_the_heap_for_the_rest_of_the_process(workspace):
    # glibc's defaults unmap or trim what each round frees and fault it back
    # in on the next, about 1,200 faults over the 50 rounds
    argv = [
        str(workspace / "data" / "interactions.tsv"), "--out", str(workspace / "run"),
        "--config", str(workspace / "run.cfg"), "--variant", "wo-da",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(edda.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", HELD_HEAP_SCRIPT, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[-1]) < 100


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
    # the forced eval wrote its own manifest and kept the training one
    assert (workspace / "runm" / "eval_manifest.txt").read_text().startswith("command = eval\n")
    assert (workspace / "runm" / "manifest.txt").read_text().startswith("command = train\n")
    capsys.readouterr()
    assert main([
        "eval", str(data), str(workspace / "runm"), "--config", str(config),
        "--seed", "99",
    ]) == 2
    assert "refusing" in capsys.readouterr().err


def test_eval_refuses_an_eval_seed_mismatch_unless_forced(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    run = workspace / "run_es"
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    capsys.readouterr()
    evaluate = ["eval", str(data), str(run), "--config", str(config), "--eval-seed", "5"]
    assert main([*evaluate, "--out", str(workspace / "eval_es")]) == 2
    assert "refusing to evaluate (pass --force to override): eval seed 0 != 5" in (
        capsys.readouterr().err
    )
    assert not (workspace / "eval_es").exists()
    assert main([*evaluate, "--out", str(workspace / "eval_es"), "--force"]) == 0
    assert (workspace / "eval_es" / "eval_report.tsv").exists()


def test_train_divergence_exits_2_without_a_checkpoint(workspace, capsys):
    config = workspace / "diverge.cfg"
    config.write_text(CONFIG_TEXT.replace("learning_rate = 0.01", "learning_rate = 1e300"))
    run = workspace / "run_div"
    code = main([
        "train", str(workspace / "data" / "interactions.tsv"), "--out", str(run),
        "--config", str(config),
    ])
    assert code == 2
    assert "training diverged: non-finite loss" in capsys.readouterr().err
    assert not (run / "checkpoint").exists() and not (run / "manifest.txt").exists()


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


FEWER_ITEMS = [("items_per_domain = 16,12", "items_per_domain = 16,11")]
MORE_USERS = [("users_per_domain = 12,10", "users_per_domain = 14,10")]
ONE_DOMAIN = [
    ("num_domains = 2", "num_domains = 1"), ("users_per_domain = 12,10", "users_per_domain = 12"),
    ("items_per_domain = 16,12", "items_per_domain = 16"), ("110,80", "110"),
    ("overlap_fraction = 0.1", "overlap_fraction = 0.0"),
]


@pytest.mark.parametrize(
    "variant, edits, message",
    [
        ("edda", FEWER_ITEMS, "domain 1 has {domain1} nodes in the checkpoint and {other1} in"),
        ("intra", MORE_USERS, "domain 0 has {domain0} nodes in the checkpoint and {other0} in"),
        ("inter", MORE_USERS, "shared table has {nodes} nodes in the checkpoint and {other} in"),
        ("edda", ONE_DOMAIN, "2 domains in the checkpoint, 1 in"),
    ],
    ids=["edda-fewer-items", "intra-more-users", "inter-more-users", "edda-one-domain"],
)
def test_eval_refuses_a_checkpoint_trained_on_other_data(
    workspace, capsys, variant, edits, message
):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    run = workspace / f"run_{variant}"
    assert main([
        "train", str(data), "--out", str(run), "--config", str(config), "--variant", variant,
    ]) == 0
    other = SPEC_TEXT
    for line, replacement in edits:
        other = other.replace(line, replacement)
    (workspace / "other.cfg").write_text(other)
    assert main(["synth", str(workspace / "other.cfg"), "--out", str(workspace / "other")]) == 0
    other_data = workspace / "other" / "interactions.tsv"
    trained, others = ingest_file(data), ingest_file(other_data)
    message = message.format(
        domain0=trained.graph(0).n_nodes, domain1=trained.graph(1).n_nodes, nodes=len(trained.keys),
        other0=others.graph(0).n_nodes, other1=others.graph(others.num_domains - 1).n_nodes,
        other=len(others.keys),
    )
    capsys.readouterr()
    code = main([
        "eval", str(other_data), str(run), "--out", str(workspace / "eval_other"),
        "--config", str(config), "--force",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: checkpoint does not match the data: {message} the data\n" in err
    assert "missing from embedding table" not in err
    assert not (workspace / "eval_other" / "eval_report.tsv").exists()


def test_align_single_domain_writes_no_pairs(tmp_path, capsys, monkeypatch):
    data = tmp_path / "one.tsv"
    write_interactions(data, [(0, u, i) for u in range(4) for i in range(4)])
    walked = []
    monkeypatch.setattr("edda.cli.run_walks", lambda *args: walked.append(args))
    assert main(["align", str(data), "--out", str(tmp_path / "pairs")]) == 0
    assert list((tmp_path / "pairs").glob("pairs_*.tsv")) == []
    assert read_key_values(tmp_path / "pairs" / "manifest.txt")["pair_files"] == ""
    assert "single-domain dataset: no domain pairs to align" in capsys.readouterr().err
    assert walked == []  # no domain pair, so no graph is walked


def test_usage_error_exit_code():
    assert main(["train"]) == 1
    assert main(["bogus"]) == 1


def test_malformed_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\tnot_an_int\t1\n")
    assert main(["align", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_negative_id_is_reported_on_its_file_line(tmp_path, capsys):
    bad = tmp_path / "f.tsv"
    bad.write_text("# header\n0\t0\t0\n\n0\t-1\t2\n")
    assert main(["align", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {bad} line 4: negative id in record (0, -1, 2)\n"


@pytest.mark.parametrize("big", [2**62, 2**63 - 1, 10**20])
def test_interaction_id_no_node_key_holds_exits_2_naming_the_line(workspace, capsys, big):
    data = workspace / "big.tsv"
    data.write_text(f"0\t0\t0\n0\t1\t1\n1\t0\t{big}\n1\t1\t1\n")
    for command in ("align", "train"):
        capsys.readouterr()
        assert main([command, str(data), "--out", str(workspace / command)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data} line 3: id above 4611686018427387903 in record (1, 0, {big})\n"
        )


@pytest.mark.parametrize(
    "line, message",
    [
        (f"0\t1\tuser\t{2**62}\t0\t0.5", "domain or node id outside [0, 4611686018427387903]"),
        (f"0\t1\titem\t0\t{10**20}\t0.5", "domain or node id outside [0, 4611686018427387903]"),
    ],
)
def test_pair_id_no_node_key_holds_exits_2_naming_the_line(workspace, capsys, line, message):
    data = workspace / "data" / "interactions.tsv"
    bad = workspace / "bad.tsv"
    bad.write_text(f"# mined by hand\n{line}\n")
    code = main([
        "train", str(data), "--pairs", str(bad), "--out", str(workspace / "run"),
        "--config", str(workspace / "run.cfg"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad} line 2: {message} in {line.split(chr(9))[:5]!r}\n"


def test_pair_file_naming_a_domain_the_data_lacks_exits_2(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    bad = workspace / "pairs_0_5.tsv"
    bad.write_text("0\t5\tuser\t0\t0\t0.5\n")
    code = main([
        "train", str(data), "--pairs", str(bad), "--out", str(workspace / "run"),
        "--config", str(workspace / "run.cfg"), "--force",
    ])
    assert code == 2
    assert "error: pair domains (0, 5) outside [0, 2)" in (
        capsys.readouterr().err
    )


def test_pair_file_pairing_a_domain_with_itself_exits_2(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    bad = workspace / "pairs_0_0.tsv"
    bad.write_text("0\t0\tuser\t1\t2\t0.5\n")
    code = main([
        "train", str(data), "--pairs", str(bad), "--out", str(workspace / "run"),
        "--config", str(workspace / "run.cfg"), "--force",
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad} line 1: pair domains must differ, got 0 twice\n"
    assert not (workspace / "run").exists()


@pytest.mark.parametrize("field, value", [("id", 2**62), ("id", 2**64 - 1), ("kind", 2)])
def test_table_record_no_node_key_holds_exits_2_naming_the_file(workspace, capsys, field, value):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    run = workspace / "run"
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    table = run / "checkpoint" / "inter.bin"
    raw = bytearray(table.read_bytes())
    offset, size = (21, 8) if field == "id" else (20, 1)  # first record: kind u8, id u64
    raw[offset : offset + size] = value.to_bytes(size, "little")
    table.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval", str(data), str(run), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: {table}: record with kind above 1 or id above 4611686018427387903\n"
    )


def _damaged_checkpoint(w: Path, name: str, edit) -> tuple[Path, list[str]]:
    """A trained run whose checkpoint file `name` is rewritten by `edit`, and
    the eval argv that reads it."""
    data, run, config = w / "data" / "interactions.tsv", w / "run", w / "run.cfg"
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    path = run / "checkpoint" / name
    path.write_bytes(edit(path.read_bytes()))
    return path, ["eval", str(data), str(run), "--config", str(config)]


def _non_utf8(path: Path, argv: list[str]) -> tuple[Path, list[str]]:
    path.write_bytes(b"\xff\x00\t1\t2\n")
    return path, argv


# each case: the path its error must name, and the argv
UNUSABLE_INPUTS = {
    "data is a directory": lambda w: (w / "data", ["train", str(w / "data"), "--out", str(w / "r")]),
    "out below a file": lambda w: (
        w / "spec.cfg", ["align", str(w / "data" / "interactions.tsv"), "--out", str(w / "spec.cfg" / "sub")]
    ),
    "out is a file": lambda w: (w / "spec.cfg", ["synth", str(w / "spec.cfg"), "--out", str(w / "spec.cfg")]),
    "table header cut short": lambda w: _damaged_checkpoint(w, "inter.bin", lambda raw: raw[:19]),
    "table records cut short": lambda w: _damaged_checkpoint(w, "intra_0.bin", lambda raw: raw[:-1]),
    "table with a trailing byte": lambda w: _damaged_checkpoint(w, "inter.bin", lambda raw: raw + b"\0"),
    "empty projection": lambda w: _damaged_checkpoint(w, "proj_1.npy", lambda raw: b""),
    "table dim no record holds": lambda w: _damaged_checkpoint(
        w, "inter.bin", lambda raw: b"EDDA" + struct.pack("<IIQ", 1, 2**32 - 1, 0)
    ),
    "checkpoint manifest missing a key": lambda w: _damaged_checkpoint(
        w, "model.manifest", lambda raw: raw.replace(b"use_inter = 1\n", b"")
    ),
    "checkpoint manifest with more domains than files": lambda w: _damaged_checkpoint(
        w, "model.manifest", lambda raw: raw.replace(b"num_domains = 2\n", b"num_domains = 3\n")
    ),
    "checkpoint manifest flag not an integer": lambda w: _damaged_checkpoint(
        w, "model.manifest", lambda raw: raw.replace(b"use_inter = 1\n", b"use_inter = yes\n")
    ),
    "checkpoint manifest alpha not a number": lambda w: _damaged_checkpoint(
        w, "model.manifest", lambda raw: raw.replace(b"alpha = 0.1\n", b"alpha = x\n")
    ),
    "checkpoint manifest domain count not an integer": lambda w: _damaged_checkpoint(
        w, "model.manifest", lambda raw: raw.replace(b"num_domains = 2\n", b"num_domains = three\n")
    ),
    "checkpoint manifest with an unknown dtype": lambda w: _damaged_checkpoint(
        w, "model.manifest", lambda raw: raw.replace(b"dtype = float64\n", b"dtype = bogus\n")
    ),
    "non-UTF-8 interaction file": lambda w: _non_utf8(
        w / "bad.tsv", ["align", str(w / "bad.tsv"), "--out", str(w / "p")]
    ),
    "non-UTF-8 pair file": lambda w: _non_utf8(w / "pairs_0_1.tsv", [
        "train", str(w / "data" / "interactions.tsv"), "--pairs", str(w / "pairs_0_1.tsv"),
        "--out", str(w / "r"), "--config", str(w / "run.cfg"), "--force",
    ]),
}


@pytest.mark.parametrize("case", UNUSABLE_INPUTS)
def test_an_unusable_path_or_file_exits_2_naming_it(workspace, capsys, case):
    path, argv = UNUSABLE_INPUTS[case](workspace)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err


def test_checkpoint_every_writes_epoch_checkpoints(workspace):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "every.cfg"
    config.write_text(CONFIG_TEXT.replace("epochs = 3", "epochs = 4") + "checkpoint_every = 2\n")
    assert "patience = -1" in CONFIG_TEXT  # no early stop, so the last epoch is final
    run = workspace / "run"
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    assert sorted(p.name for p in run.glob("checkpoint*")) == [
        "checkpoint", "checkpoint_epoch_2", "checkpoint_epoch_4",
    ]
    final = _dir_bytes(run / "checkpoint")
    assert _dir_bytes(run / "checkpoint_epoch_4") == final
    assert _dir_bytes(run / "checkpoint_epoch_2") != final
    assert sorted(_dir_bytes(run / "checkpoint_epoch_2")) == sorted(final)


@settings(max_examples=25, deadline=None)
@given(interaction_files(bad=True))
def test_align_on_a_malformed_file_exits_2_naming_the_line(tmp_path_factory, case):
    text, labels = case
    work = tmp_path_factory.mktemp("align")
    (work / "inter.tsv").write_text(text, encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(["align", str(work / "inter.tsv"), "--out", str(work / "out")]) == 2
    first_bad = [kind for kind, _ in labels].index("bad") + 1
    err = stderr.getvalue()
    assert err.startswith(f"error: {work / 'inter.tsv'} line {first_bad}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_file_unknown_key_exit_code(workspace, capsys):
    config = workspace / "weird.cfg"
    data = workspace / "data" / "interactions.tsv"
    for text in ("no_such_key = 1\n", "determinism = true\n", "d_align = 8\n"):
        config.write_text(text)
        assert main(["align", str(data), "--out", str(workspace / "p"), "--config", str(config)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


def test_negative_seed_exits_2_naming_the_key(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    assert main(["align", str(data), "--out", str(workspace / "p"), "--seed", "-3"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"
    assert not (workspace / "p").exists()


def test_negative_eval_seed_exits_2_naming_the_key(workspace, capsys):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "neg.cfg"
    config.write_text(CONFIG_TEXT + "eval_seed = -1\n")
    assert main(["train", str(data), "--out", str(workspace / "r"), "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: eval_seed must be non-negative, got -1\n"
    assert not (workspace / "r").exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("train", "epochs = abc", "{config}: epochs: invalid literal for int()"),
        ("align", "batch_size = 1.5", "{config}: batch_size: invalid literal for int()"),
        ("eval", "alpha = half", "{config}: alpha: could not convert string to float"),
        ("align", "no_such_key = 1", "{config}: unknown config keys: ['no_such_key']"),
        ("align", "k = 0", "k must be at least 1, got 0"),
        ("align", "walk_length = 0", "walk_length must be at least 1"),
        ("align", "num_walks = 0", "num_walks must be at least 1"),
        ("train", "learning_rate = 0", "invalid learning_rate"),
        ("train", "learning_rate = nan", "invalid learning_rate"),
        ("train", "beta = inf", "beta and reg_lambda must be non-negative and finite"),
        ("train", "edge_dropout = 1", "edge_dropout must lie in [0, 1)"),
        ("train", "num_layers = -1", "num_layers must be non-negative"),
        ("train", "d_inter = 0", "embedding dimensions d_inter and d_intra must be positive"),
        ("train", "variant = wo-alignment", "unknown variant 'wo-alignment'"),
        ("eval", "k = 0", "k must be at least 1, got 0"),
        ("train", "checkpoint_every = -3", "checkpoint_every must be non-negative, got -3"),
    ],
)
def test_a_bad_run_setting_exits_2_naming_its_key_before_any_work(
    workspace, capsys, monkeypatch, command, setting, message
):
    def no_read(path):
        raise AssertionError(f"{path} read before the settings were checked")

    monkeypatch.setattr("edda.cli.ingest_file", no_read)
    config = workspace / "bad.cfg"
    config.write_text(CONFIG_TEXT + setting + "\n")
    data = str(workspace / "data" / "interactions.tsv")
    out = workspace / "out"
    run = [str(workspace / "no_run")] if command == "eval" else []
    argv = [command, data, *run, "--out", str(out), "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(config=config)}") and err.count("\n") == 1
    assert not out.exists()


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
    records = load_interactions(data)
    write_interactions(other, records[records[:, 1] != 0])
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
    malformed = workspace / "bad.tsv"
    malformed.write_text("0\t1\tuser\t3\n")
    for name in ("pairs_s1", "bare", "bad.tsv"):
        capsys.readouterr()
        assert main([
            "train", str(data), "--pairs", str(workspace / name), "--config", str(config),
            "--seed", "2", "--variant", "wo-da", "--out", str(workspace / f"run_{name}"),
        ]) == 0
        err = capsys.readouterr().err
        assert "variant wo-da: alignment pairs ignored" in err
        assert "refusing" not in err and "warning" not in err
        manifest = (workspace / f"run_{name}" / "manifest.txt").read_text()
        assert "input.data = " in manifest and "input.pairs" not in manifest


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


@pytest.mark.parametrize(
    "variant, pairs", [("edda", None), ("edda", "empty"), ("ed-mf", None)]
)
def test_aligned_variant_without_pairs_warns_and_trains(workspace, capsys, variant, pairs):
    data = workspace / "data" / "interactions.tsv"
    argv = ["train", str(data), "--out", str(workspace / "run"), "--variant", variant]
    if pairs:
        (workspace / pairs).mkdir()  # a directory without pairs_*.tsv
        argv += ["--pairs", str(workspace / pairs)]
    capsys.readouterr()
    assert main([*argv, "--config", str(workspace / "run.cfg")]) == 0
    assert capsys.readouterr().err == (
        f"warning: variant {variant} aligns pairs, but no pair was loaded;"
        " it trains without the alignment term\n"
    )
    assert (workspace / "run" / "checkpoint" / "model.manifest").exists()


def test_train_and_eval_build_each_domains_cases_once(workspace, monkeypatch):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    built = []
    original = evalkit.build_cases

    def counted(split_data, d, which="test", eval_seed=0):
        built.append((which, d))
        return original(split_data, d, which, eval_seed)

    monkeypatch.setattr(evalkit, "build_cases", counted)
    run = workspace / "run"
    assert "epochs = 3" in CONFIG_TEXT  # validation scores three epochs; the report reuses the last
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    assert built == [("validation", 0), ("validation", 1)]
    built.clear()
    assert main(["eval", str(data), str(run), "--config", str(config)]) == 0
    assert built == [("test", 0), ("test", 1)]


@pytest.mark.parametrize("epochs", [3, 0])
def test_val_report_scores_the_saved_checkpoint_once(workspace, monkeypatch, epochs):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("epochs = 3", f"epochs = {epochs}"))
    original, calls = evalkit.evaluate_all, []
    monkeypatch.setattr(evalkit, "evaluate_all", lambda *args: calls.append(args) or original(*args))
    run = workspace / "run"
    assert main(["train", str(data), "--out", str(run), "--config", str(config)]) == 0
    assert len(calls) == (epochs == 0)  # the last validation is reused when there is one
    cfg = resolve_config(str(config), {})
    split_data = evalkit.split(ingest_file(data), seed=cfg.seed)
    cases = evalkit.build_all_cases(split_data, "validation", cfg.eval_seed)
    rows = original(load_model(run / "checkpoint"), split_data, cases)
    assert (run / "val_report.tsv").read_text() == evalkit.format_report(rows)


def test_every_run_option_names_a_run_config_field():
    not_run_config = {"config", "data", "run", "out", "pairs", "force", "help"}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    names = {f.name for f in fields(RunConfig)}
    for command in ("align", "train", "eval"):
        dests = {a.dest for a in subparsers.choices[command]._actions} - not_run_config
        assert dests and dests <= names, (command, dests - names)


@pytest.mark.parametrize("patience, want", [(-1, None), (-7, None), (0, 0), (5, 5)])
def test_a_run_configs_negative_patience_turns_early_stopping_off(patience, want):
    # the library's TrainConfig refuses a negative patience; a run config maps it to None
    assert RunConfig(patience=patience).train_config().patience == want


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


@pytest.mark.parametrize(
    "command, name",
    [
        ("train", "manifest.txt"),
        ("train", "train.log"),
        ("train", "val_report.tsv"),
        ("eval", "eval_report.tsv"),
        ("eval", "domain_stats.tsv"),
    ],
)
def test_interrupted_output_write_keeps_the_earlier_file(
    workspace, monkeypatch, fail_writes, command, name
):
    data = workspace / "data" / "interactions.tsv"
    config = workspace / "run.cfg"
    run, out = workspace / "run", workspace / "eval"
    argv = {
        "train": ["train", str(data), "--out", str(run), "--config", str(config)],
        "eval": ["eval", str(data), str(run), "--out", str(out), "--config", str(config)],
    }
    assert main(argv["train"]) == 0
    assert main(argv["eval"]) == 0
    target = (run if command == "train" else out) / name
    written = target.read_bytes()
    target.write_text("earlier contents\n", encoding="utf-8")

    fail_writes(1, name)
    with pytest.raises(OSError, match="no space"):
        main(argv[command])
    assert target.read_text(encoding="utf-8") == "earlier contents\n"
    assert not list(target.parent.glob(".*.tmp"))

    monkeypatch.undo()
    assert main(argv[command]) == 0
    assert target.read_bytes() == written


def test_sha256_reads_a_file_in_blocks(tmp_path):
    # more than eight 1 MiB blocks, the last one short
    path = tmp_path / "interactions.tsv"
    path.write_bytes(np.random.default_rng(0).bytes(8 * 2**20 + 12345))
    tracemalloc.start()
    try:
        digest = _sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < path.stat().st_size / 4


NO_SCIPY_SUBPACKAGE_SCRIPT = """
import sys
from edda.cli import main
spec, config, root = sys.argv[1:]
data, pairs = f"{root}/data/interactions.tsv", f"{root}/pairs"
assert main(["synth", spec, "--out", f"{root}/data"]) == 0
assert main(["align", data, "--out", pairs, "--config", config]) == 0
for variant, extra in (("wo-da", []), ("edda", ["--pairs", pairs])):
    assert main(["train", data, "--out", f"{root}/{variant}", "--config", config, "--variant", variant, *extra]) == 0
assert main(["eval", data, f"{root}/edda", "--config", config]) == 0
print(sorted(name for name in sys.modules if name.startswith(("scipy.sparse", "scipy.special"))))
"""


def test_a_float64_run_never_imports_scipy_sparse_or_special(tmp_path):
    # its CSR products call scipy's kernel through `mdgraph.CsrMatrix`, and its
    # BPR weights take libm's exp through `math`; only float32 needs expit
    spec, config = tmp_path / "spec.cfg", tmp_path / "run.cfg"
    spec.write_text(SPEC_TEXT)
    config.write_text(CONFIG_TEXT)
    env = {**os.environ, "PYTHONPATH": str(Path(edda.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SUBPACKAGE_SCRIPT, str(spec), str(config), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert "input.pairs" in (tmp_path / "edda" / "manifest.txt").read_text()  # edda trained on mined pairs
    assert read_key_values(tmp_path / "edda" / "checkpoint" / "model.manifest")["dtype"] == "float64"
