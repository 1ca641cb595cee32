import numpy as np
import pytest

from edda.edmodel import EDModel, ModelSpec
from edda.encoders import (
    EmbeddingTable,
    GRecConfig,
    grec_propagate,
    load_table,
    node_keys,
    save_table,
)
from edda.mdgraph import NodeId, NodeKind, ingest

from oracles import dense_propagate, random_bipartite_records

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def _table_for(dataset, rng, dim=3):
    nodes = dataset.all_nodes
    return EmbeddingTable(nodes, rng.normal(size=(len(nodes), dim)))


def _propagate(graph, table, cfg, mask=None):
    """Propagated rows of every graph node, as a table over the graph's nodes."""
    nodes = graph.node_ids()
    x = table.matrix[table.rows(node_keys(nodes))]
    return EmbeddingTable(nodes, grec_propagate(graph.sym_norm_adjacency(mask), x, cfg))


def _inter_encode(dataset, table, cfg, encoder="grec"):
    """The shared-table encoding of an inter-only model holding `table`."""
    spec = ModelSpec(d_inter=table.dim, use_intra=False, encoder=encoder, grec=cfg)
    encoded = EDModel(spec, table, None, None).propagated(dataset).inter
    return EmbeddingTable(table.nodes, encoded)


def test_alpha_one_is_identity_bitwise():
    ds = ingest([(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    rng = np.random.default_rng(1)
    table = _table_for(ds, rng)
    out = _propagate(ds.graph(0), table, GRecConfig(num_layers=3, alpha=1.0))
    assert np.array_equal(out.matrix, table.matrix[table.rows(node_keys(out.nodes))])


def test_zero_layers_is_identity_bitwise():
    ds = ingest([(0, 0, 0), (0, 0, 1)])
    table = _table_for(ds, np.random.default_rng(2))
    out = _propagate(ds.graph(0), table, GRecConfig(num_layers=0, alpha=0.1))
    assert np.array_equal(out.matrix, table.matrix[table.rows(node_keys(out.nodes))])


def test_two_node_graph_hand_value():
    # single edge u0-i0, both degree 1
    ds = ingest([(0, 0, 0)])
    table = EmbeddingTable([U(0), I(0)], np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = _propagate(ds.graph(0), table, GRecConfig(num_layers=1, alpha=0.1))
    assert out.row(U(0)) == pytest.approx([0.1, 0.9])
    assert out.row(I(0)) == pytest.approx([0.9, 0.1])


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
        pairs, {n: table.row(n) for n in ds.all_nodes}, cfg.alpha, cfg.num_layers
    )
    for node in got.nodes:
        assert got.row(node) == pytest.approx(want[node], rel=1e-12, abs=1e-12)


def test_linearity():
    rng = np.random.default_rng(3)
    ds = ingest(random_bipartite_records(rng, 0, 6, 6, 15))
    g = ds.graph(0)
    cfg = GRecConfig(num_layers=2, alpha=0.3)
    xa = _table_for(ds, rng)
    xb = _table_for(ds, rng)
    a, b = 0.7, -2.5
    combo = EmbeddingTable(xa.nodes, a * xa.matrix + b * xb.matrix)
    lhs = _propagate(g, combo, cfg).matrix
    rhs = a * _propagate(g, xa, cfg).matrix + b * _propagate(g, xb, cfg).matrix
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_doubling_is_exact():
    rng = np.random.default_rng(4)
    ds = ingest(random_bipartite_records(rng, 0, 5, 5, 12))
    table = _table_for(ds, rng)
    doubled = EmbeddingTable(table.nodes, 2.0 * table.matrix)
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
    for node in ds1.all_nodes:
        mapped = remap_u if node.kind == NodeKind.USER else remap_i
        rows2[NodeId(node.kind, int(mapped[node.id]))] = table1.row(node)
    table2 = EmbeddingTable(ds2.all_nodes, np.array([rows2[n] for n in ds2.all_nodes]))

    cfg = GRecConfig(num_layers=2, alpha=0.2)
    out1 = _propagate(ds1.graph(0), table1, cfg)
    out2 = _propagate(ds2.graph(0), table2, cfg)
    for node in out1.nodes:
        mapped = remap_u if node.kind == NodeKind.USER else remap_i
        twin = NodeId(node.kind, int(mapped[node.id]))
        assert out1.row(node) == pytest.approx(out2.row(twin), rel=1e-12, abs=1e-12)


def test_masked_out_node_keeps_residual_only():
    ds = ingest([(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    g = ds.graph(0)
    table = _table_for(ds, np.random.default_rng(7))
    # canonical edge order is sorted (user, item): (0,0), (0,1), (1,1)
    mask = np.array([False, False, True])
    out = _propagate(g, table, GRecConfig(num_layers=1, alpha=0.1), mask)
    assert out.row(U(0)) == pytest.approx(0.1 * table.row(U(0)), rel=1e-15)


def test_dropout_keeps_full_graph_degrees():
    ds = ingest([(0, 0, 0), (0, 0, 1)])
    g = ds.graph(0)
    table = EmbeddingTable(
        [U(0), I(0), I(1)], np.array([[1.0], [2.0], [4.0]])
    )
    mask = np.array([True, False])  # keep edge (u0, i0) only
    out = _propagate(g, table, GRecConfig(num_layers=1, alpha=0.1), mask)
    # u0 has full degree 2, i0 degree 1: weight 1/sqrt(2)
    assert out.row(U(0))[0] == pytest.approx(0.1 * 1.0 + 0.9 * 2.0 / np.sqrt(2))


def test_inter_encode_single_domain_matches_propagate():
    rng = np.random.default_rng(8)
    ds = ingest(random_bipartite_records(rng, 0, 5, 6, 14))
    table = _table_for(ds, rng)
    cfg = GRecConfig(num_layers=2, alpha=0.1)
    combined = _inter_encode(ds, table, cfg)
    single = _propagate(ds.graph(0), table, cfg)
    for node in single.nodes:
        assert np.array_equal(combined.row(node), single.row(node))


def test_inter_encode_sums_identical_domains():
    base = [(0, u, i) for u, i in [(0, 0), (0, 1), (1, 1)]]
    triple = base + [(1, u, i) for _, u, i in base] + [(2, u, i) for _, u, i in base]
    ds1, ds3 = ingest(base), ingest(triple)
    table = _table_for(ds1, np.random.default_rng(9))
    cfg = GRecConfig(num_layers=2, alpha=0.1)
    once = _inter_encode(ds1, table, cfg)
    rows = table.matrix[table.rows(node_keys(ds3.all_nodes))]
    thrice = _inter_encode(ds3, EmbeddingTable(ds3.all_nodes, rows), cfg)
    for node in once.nodes:
        assert thrice.row(node) == pytest.approx(3.0 * once.row(node), rel=1e-15)


def test_inter_encode_two_domain_hand_sum():
    records = [(0, 0, 0), (0, 0, 1), (1, 0, 5)]
    ds = ingest(records)
    rng = np.random.default_rng(10)
    table = _table_for(ds, rng)
    cfg = GRecConfig(num_layers=1, alpha=0.1)
    got = _inter_encode(ds, table, cfg)

    rows = {n: table.row(n) for n in ds.all_nodes}
    want0 = dense_propagate([(0, 0), (0, 1)], rows, 0.1, 1)
    want1 = dense_propagate([(0, 5)], rows, 0.1, 1)
    assert got.row(U(0)) == pytest.approx(want0[U(0)] + want1[U(0)], rel=1e-12)
    assert got.row(I(0)) == pytest.approx(want0[I(0)], rel=1e-12)
    assert got.row(I(5)) == pytest.approx(want1[I(5)], rel=1e-12)


def test_mf_encode_is_identity():
    ds = ingest([(0, 0, 0)])
    table = _table_for(ds, np.random.default_rng(11))
    assert np.array_equal(_inter_encode(ds, table, GRecConfig(), "mf").matrix, table.matrix)
    zero = EmbeddingTable.zeros(ds.all_nodes, 4)
    assert np.array_equal(_inter_encode(ds, zero, GRecConfig(), "mf").matrix, np.zeros((2, 4)))


def test_missing_node_raises():
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    partial = EmbeddingTable([U(0), I(0)], np.zeros((2, 2)))
    with pytest.raises(KeyError, match="missing"):
        _inter_encode(ds, partial, GRecConfig())


def test_table_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        EmbeddingTable([U(0)], np.zeros((2, 3)))


def test_grec_config_validation():
    with pytest.raises(ValueError):
        GRecConfig(alpha=1.5)
    with pytest.raises(ValueError):
        GRecConfig(num_layers=-1)


def test_table_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    nodes = [U(0), U(3), I(1), I(2 ** 40)]
    table = EmbeddingTable(nodes, rng.normal(size=(4, 5)))
    path = tmp_path / "table.bin"
    save_table(path, table)

    raw = path.read_bytes()
    assert raw[:4] == b"EDDA"
    assert len(raw) == 20 + 4 * (1 + 8 + 5 * 8)

    loaded = load_table(path)
    assert loaded.nodes == tuple(nodes)
    assert np.array_equal(loaded.matrix, table.matrix)


def test_table_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not an embedding table"):
        load_table(path)


def test_save_table_failing_midway_keeps_the_earlier_file(tmp_path, monkeypatch, fail_writes):
    table = EmbeddingTable([U(0), I(1)], np.arange(6.0).reshape(2, 3))
    path = tmp_path / "table.bin"
    save_table(path, table)
    earlier = path.read_bytes()

    fail_writes(3)  # magic and header are written, the records are not
    with pytest.raises(OSError, match="no space"):
        save_table(path, EmbeddingTable([U(0), I(1)], np.ones((2, 3))))
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]

    monkeypatch.undo()
    save_table(path, EmbeddingTable([U(0), I(1)], np.ones((2, 3))))
    assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]
    assert np.array_equal(load_table(path).matrix, np.ones((2, 3)))
