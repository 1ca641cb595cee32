import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edda.edmodel import EDModel, ModelSpec
from edda.encoders import (
    EmbeddingTable,
    GRecConfig,
    grec_propagate,
    load_table,
    save_table,
)
from edda.mdgraph import MAX_ID, NodeId, NodeKind, ingest

from oracles import (
    dense_propagate,
    grec_propagate_by_expression,
    keys,
    nodes_of,
    random_bipartite_records,
    row,
)

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def _table_for(dataset, rng, dim=3):
    return EmbeddingTable(dataset.keys, rng.normal(size=(len(dataset.keys), dim)))


def _propagate(graph, table, cfg, mask=None):
    """Propagated rows of every graph node, as a table over the graph's nodes."""
    x = table.matrix[table.rows(graph.keys)]
    return EmbeddingTable(graph.keys, grec_propagate(graph.sym_norm_adjacency(mask), x, cfg))


def _inter_encode(dataset, table, cfg, encoder="grec"):
    """The shared-table encoding of an inter-only model holding `table`."""
    spec = ModelSpec(d_inter=table.dim, use_intra=False, encoder=encoder, grec=cfg)
    encoded = EDModel(spec, table, None, None).propagated(dataset).inter
    return EmbeddingTable(table.keys, encoded)


def test_alpha_one_is_identity_bitwise():
    ds = ingest([(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    rng = np.random.default_rng(1)
    table = _table_for(ds, rng)
    out = _propagate(ds.graph(0), table, GRecConfig(num_layers=3, alpha=1.0))
    assert np.array_equal(out.matrix, table.matrix[table.rows(out.keys)])


def test_zero_layers_is_identity_bitwise():
    ds = ingest([(0, 0, 0), (0, 0, 1)])
    table = _table_for(ds, np.random.default_rng(2))
    out = _propagate(ds.graph(0), table, GRecConfig(num_layers=0, alpha=0.1))
    assert np.array_equal(out.matrix, table.matrix[table.rows(out.keys)])


def test_two_node_graph_hand_value():
    # single edge u0-i0, both degree 1
    ds = ingest([(0, 0, 0)])
    table = EmbeddingTable(keys(U(0), I(0)), np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = _propagate(ds.graph(0), table, GRecConfig(num_layers=1, alpha=0.1))
    assert row(out, U(0)) == pytest.approx([0.1, 0.9])
    assert row(out, I(0)) == pytest.approx([0.9, 0.1])


@pytest.mark.parametrize("seed", range(5))
def test_matches_dense_operator_oracle(seed):
    rng = np.random.default_rng(seed)
    records = random_bipartite_records(rng, 0, 8, 9, 25)
    ds = ingest(records)
    table = _table_for(ds, rng, dim=4)
    cfg = GRecConfig(num_layers=2, alpha=0.1)
    got = _propagate(ds.graph(0), table, cfg)
    pairs = [(u, i) for _, u, i in records]
    want = dense_propagate(
        pairs, {n: row(table, n) for n in nodes_of(ds.keys)}, cfg.alpha, cfg.num_layers
    )
    for node in nodes_of(got.keys):
        assert row(got, node) == pytest.approx(want[node], rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.float64, np.float32]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(0, 3),
    st.sampled_from([None, 0.0, 0.3, 0.9]),
)
def test_in_place_layers_equal_the_expression_bit_for_bit(seed, dtype, alpha, layers, dropout):
    rng = np.random.default_rng(seed)
    n_users, n_items = (int(n) for n in rng.integers(1, 12, size=2))
    n_edges = int(rng.integers(1, n_users * n_items + 1))
    graph = ingest(random_bipartite_records(rng, 0, n_users, n_items, n_edges)).graph(0)
    mask = None if dropout is None else rng.random(graph.n_edges) >= dropout
    op = graph.sym_norm_adjacency(mask)
    x = rng.normal(size=(graph.n_nodes, int(rng.integers(1, 6)))).astype(dtype)
    cfg = GRecConfig(num_layers=layers, alpha=alpha)
    want = grec_propagate_by_expression(op, x, cfg)
    got = grec_propagate(op, x, cfg)
    assert got is x  # the layers ran in place
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_linearity():
    rng = np.random.default_rng(3)
    ds = ingest(random_bipartite_records(rng, 0, 6, 6, 15))
    g = ds.graph(0)
    cfg = GRecConfig(num_layers=2, alpha=0.3)
    xa = _table_for(ds, rng)
    xb = _table_for(ds, rng)
    a, b = 0.7, -2.5
    combo = EmbeddingTable(xa.keys, a * xa.matrix + b * xb.matrix)
    lhs = _propagate(g, combo, cfg).matrix
    rhs = a * _propagate(g, xa, cfg).matrix + b * _propagate(g, xb, cfg).matrix
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_doubling_is_exact():
    rng = np.random.default_rng(4)
    ds = ingest(random_bipartite_records(rng, 0, 5, 5, 12))
    table = _table_for(ds, rng)
    doubled = EmbeddingTable(table.keys, 2.0 * table.matrix)
    cfg = GRecConfig(num_layers=2, alpha=0.1)
    assert np.array_equal(
        _propagate(ds.graph(0), doubled, cfg).matrix,
        2.0 * _propagate(ds.graph(0), table, cfg).matrix,
    )


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    records = random_bipartite_records(rng, 0, 6, 7, 18)
    remap_u = dict(zip(range(6), rng.permutation(100)[:6]))
    remap_i = dict(zip(range(7), rng.permutation(100)[:7]))
    relabeled = [(0, int(remap_u[u]), int(remap_i[i])) for _, u, i in records]

    ds1, ds2 = ingest(records), ingest(relabeled)
    table1 = _table_for(ds1, np.random.default_rng(6))
    rows2 = {}
    for node in nodes_of(ds1.keys):
        mapped = remap_u if node.kind == NodeKind.USER else remap_i
        rows2[NodeId(node.kind, int(mapped[node.id]))] = row(table1, node)
    table2 = EmbeddingTable(ds2.keys, np.array([rows2[n] for n in nodes_of(ds2.keys)]))

    cfg = GRecConfig(num_layers=2, alpha=0.2)
    out1 = _propagate(ds1.graph(0), table1, cfg)
    out2 = _propagate(ds2.graph(0), table2, cfg)
    for node in nodes_of(out1.keys):
        mapped = remap_u if node.kind == NodeKind.USER else remap_i
        twin = NodeId(node.kind, int(mapped[node.id]))
        assert row(out1, node) == pytest.approx(row(out2, twin), rel=1e-12, abs=1e-12)


def test_masked_out_node_keeps_residual_only():
    ds = ingest([(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    g = ds.graph(0)
    table = _table_for(ds, np.random.default_rng(7))
    # canonical edge order is sorted (user, item): (0,0), (0,1), (1,1)
    mask = np.array([False, False, True])
    out = _propagate(g, table, GRecConfig(num_layers=1, alpha=0.1), mask)
    assert row(out, U(0)) == pytest.approx(0.1 * row(table, U(0)), rel=1e-15)


def test_dropout_keeps_full_graph_degrees():
    ds = ingest([(0, 0, 0), (0, 0, 1)])
    g = ds.graph(0)
    table = EmbeddingTable(keys(U(0), I(0), I(1)), np.array([[1.0], [2.0], [4.0]]))
    mask = np.array([True, False])  # keep edge (u0, i0) only
    out = _propagate(g, table, GRecConfig(num_layers=1, alpha=0.1), mask)
    # u0 has full degree 2, i0 degree 1: weight 1/sqrt(2)
    assert row(out, U(0))[0] == pytest.approx(0.1 * 1.0 + 0.9 * 2.0 / np.sqrt(2))


def test_inter_encode_single_domain_matches_propagate():
    rng = np.random.default_rng(8)
    ds = ingest(random_bipartite_records(rng, 0, 5, 6, 14))
    table = _table_for(ds, rng)
    cfg = GRecConfig(num_layers=2, alpha=0.1)
    combined = _inter_encode(ds, table, cfg)
    single = _propagate(ds.graph(0), table, cfg)
    for node in nodes_of(single.keys):
        assert np.array_equal(row(combined, node), row(single, node))


def test_inter_encode_sums_identical_domains():
    base = [(0, u, i) for u, i in [(0, 0), (0, 1), (1, 1)]]
    triple = base + [(1, u, i) for _, u, i in base] + [(2, u, i) for _, u, i in base]
    ds1, ds3 = ingest(base), ingest(triple)
    table = _table_for(ds1, np.random.default_rng(9))
    cfg = GRecConfig(num_layers=2, alpha=0.1)
    once = _inter_encode(ds1, table, cfg)
    rows = table.matrix[table.rows(ds3.keys)]
    thrice = _inter_encode(ds3, EmbeddingTable(ds3.keys, rows), cfg)
    for node in nodes_of(once.keys):
        assert row(thrice, node) == pytest.approx(3.0 * row(once, node), rel=1e-15)


def test_inter_encode_two_domain_hand_sum():
    records = [(0, 0, 0), (0, 0, 1), (1, 0, 5)]
    ds = ingest(records)
    rng = np.random.default_rng(10)
    table = _table_for(ds, rng)
    cfg = GRecConfig(num_layers=1, alpha=0.1)
    got = _inter_encode(ds, table, cfg)

    rows = {n: row(table, n) for n in nodes_of(ds.keys)}
    want0 = dense_propagate([(0, 0), (0, 1)], rows, 0.1, 1)
    want1 = dense_propagate([(0, 5)], rows, 0.1, 1)
    assert row(got, U(0)) == pytest.approx(want0[U(0)] + want1[U(0)], rel=1e-12)
    assert row(got, I(0)) == pytest.approx(want0[I(0)], rel=1e-12)
    assert row(got, I(5)) == pytest.approx(want1[I(5)], rel=1e-12)


def test_mf_encode_is_identity():
    ds = ingest([(0, 0, 0)])
    table = _table_for(ds, np.random.default_rng(11))
    assert np.array_equal(_inter_encode(ds, table, GRecConfig(), "mf").matrix, table.matrix)
    zero = EmbeddingTable(ds.keys, np.zeros((len(ds.keys), 4)))
    assert np.array_equal(_inter_encode(ds, zero, GRecConfig(), "mf").matrix, np.zeros((2, 4)))


def test_missing_node_raises():
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    partial = EmbeddingTable(keys(U(0), I(0)), np.zeros((2, 2)))
    with pytest.raises(KeyError, match="missing"):
        _inter_encode(ds, partial, GRecConfig())


def test_table_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        EmbeddingTable(keys(U(0)), np.zeros((2, 3)))


@pytest.mark.parametrize("nodes", [[I(0), U(0)], [U(2), U(1)], [U(0), I(1), I(1)]])
def test_table_rejects_keys_that_are_not_ascending(nodes):
    with pytest.raises(ValueError, match="strictly ascending"):
        EmbeddingTable(keys(*nodes), np.zeros((len(nodes), 2)))


def test_table_rows_find_every_key_and_name_a_missing_one():
    table = EmbeddingTable(keys(U(0), U(MAX_ID), I(3), I(MAX_ID)), np.zeros((4, 1)))
    assert table.rows(keys(I(MAX_ID), U(0), I(3))).tolist() == [3, 0, 2]
    assert table.rows(keys(U(MAX_ID), I(3)).reshape(2, 1)).tolist() == [[1], [2]]
    for absent in (U(1), I(0), I(4)):
        with pytest.raises(KeyError, match=re.escape(f"{absent} missing")):
            table.rows(keys(U(0), absent))
    with pytest.raises(KeyError, match="missing"):
        EmbeddingTable(keys(), np.zeros((0, 1))).rows(keys(U(0)))


def test_grec_config_validation():
    with pytest.raises(ValueError):
        GRecConfig(alpha=1.5)
    with pytest.raises(ValueError):
        GRecConfig(num_layers=-1)


def test_table_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    nodes = [U(0), U(3), U(MAX_ID), I(1), I(2 ** 40), I(MAX_ID)]
    table = EmbeddingTable(keys(*nodes), rng.normal(size=(6, 5)))
    path = tmp_path / "table.bin"
    save_table(path, table)

    raw = path.read_bytes()
    assert raw[:4] == b"EDDA"
    assert len(raw) == 20 + 6 * (1 + 8 + 5 * 8)

    loaded = load_table(path)
    assert nodes_of(loaded.keys) == nodes
    assert np.array_equal(loaded.matrix, table.matrix)


def test_table_versions_store_float64_and_float32(tmp_path):
    rng = np.random.default_rng(13)
    wide = EmbeddingTable(keys(U(0), U(7), I(2)), rng.normal(size=(3, 4)))
    narrow = EmbeddingTable(wide.keys, wide.matrix.astype(np.float32))
    for name, table, version, width in (("f8.bin", wide, 1, 8), ("f4.bin", narrow, 2, 4)):
        save_table(tmp_path / name, table)
        raw = (tmp_path / name).read_bytes()
        assert struct.unpack("<III", raw[4:16]) == (version, 4, 3)
        assert len(raw) == 20 + 3 * (1 + 8 + 4 * width)
        loaded = load_table(tmp_path / name)
        assert loaded.matrix.dtype == table.matrix.dtype
        assert np.array_equal(loaded.keys, table.keys)
        assert loaded.matrix.tobytes() == table.matrix.tobytes()
    raw = (tmp_path / "f4.bin").read_bytes()
    (tmp_path / "v3.bin").write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
    with pytest.raises(ValueError, match="v3.bin: unsupported table version 3"):
        load_table(tmp_path / "v3.bin")


@pytest.mark.parametrize(
    "record, field, value, message",
    [
        (0, "kind", 2, "kind above 1"),
        (1, "kind", 255, "kind above 1"),
        (0, "id", 2**62, "id above"),
        (1, "id", 2**64 - 1, "id above"),
        (1, "id", 0, "strictly ascending"),  # U(0) twice
    ],
)
def test_table_load_rejects_records_no_key_holds(tmp_path, record, field, value, message):
    path = tmp_path / "table.bin"
    save_table(path, EmbeddingTable(keys(U(0), U(5)), np.zeros((2, 1))))
    raw = path.read_bytes()
    data = np.frombuffer(
        raw[20:], dtype=[("kind", "u1"), ("id", "<u8"), ("vec", "<f8", (1,))]
    ).copy()
    data[field][record] = value
    path.write_bytes(raw[:20] + data.tobytes())
    with pytest.raises(ValueError, match=f"table.bin: .*{message}"):
        load_table(path)


def test_table_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not an embedding table"):
        load_table(path)


def test_save_table_failing_midway_keeps_the_earlier_file(tmp_path, monkeypatch, fail_writes):
    table = EmbeddingTable(keys(U(0), I(1)), np.arange(6.0).reshape(2, 3))
    path = tmp_path / "table.bin"
    save_table(path, table)
    earlier = path.read_bytes()

    fail_writes(3)  # magic and header are written, the records are not
    with pytest.raises(OSError, match="no space"):
        save_table(path, EmbeddingTable(keys(U(0), I(1)), np.ones((2, 3))))
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]

    monkeypatch.undo()
    save_table(path, EmbeddingTable(keys(U(0), I(1)), np.ones((2, 3))))
    assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]
    assert np.array_equal(load_table(path).matrix, np.ones((2, 3)))
