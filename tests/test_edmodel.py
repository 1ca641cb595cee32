from dataclasses import replace

import numpy as np
import pytest

from edda.edmodel import (
    EDModel,
    ModelSpec,
    init_model,
    load_model,
    save_model,
    variant_spec,
)
from edda.encoders import EmbeddingTable, GRecConfig, node_keys
from edda.mdgraph import NodeId, NodeKind, ingest

from oracles import dense_propagate, random_bipartite_records

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def _hand_model(dataset, spec, inter_rows=None, intra_rows=None, proj=None):
    """Model with explicitly chosen parameter values."""
    inter = None
    if spec.use_inter:
        inter = EmbeddingTable(
            dataset.all_nodes,
            np.array([inter_rows[n] for n in dataset.all_nodes], dtype=np.float64),
        )
    intra = None
    w = None
    if spec.use_intra:
        intra = [
            EmbeddingTable(
                g.node_ids(), np.array([intra_rows[d][n] for n in g.node_ids()])
            )
            for d, g in enumerate(dataset.domains)
        ]
        w = proj if proj is not None else [
            np.zeros((spec.d_intra, spec.align_dim)) for _ in dataset.domains
        ]
    return EDModel(spec, inter, intra, w)


def _represent(model, dataset, node, d):
    return model.propagated(dataset).represent(d, node_keys([node]))[0]


def _score(model, dataset, u, i, d):
    return float(np.dot(_represent(model, dataset, u, d), _represent(model, dataset, i, d)))


def test_mf_representation_is_raw_rows():
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    spec = ModelSpec(d_inter=2, d_intra=2, encoder="mf")
    rng = np.random.default_rng(0)
    inter_rows = {n: rng.normal(size=2) for n in ds.all_nodes}
    intra_rows = [{n: rng.normal(size=2) for n in ds.graph(0).node_ids()}]
    model = _hand_model(ds, spec, inter_rows, intra_rows)
    z = _represent(model, ds, U(0), 0)
    assert z == pytest.approx(np.concatenate([inter_rows[U(0)], intra_rows[0][U(0)]]))


def test_zero_layer_grec_equals_mf():
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    rng = np.random.default_rng(1)
    inter_rows = {n: rng.normal(size=2) for n in ds.all_nodes}
    intra_rows = [{n: rng.normal(size=2) for n in ds.graph(0).node_ids()}]
    grec0 = ModelSpec(d_inter=2, d_intra=2, encoder="grec", grec=GRecConfig(num_layers=0))
    mf = ModelSpec(d_inter=2, d_intra=2, encoder="mf")
    m1 = _hand_model(ds, grec0, inter_rows, intra_rows)
    m2 = _hand_model(ds, mf, inter_rows, intra_rows)
    for node in ds.all_nodes:
        assert np.array_equal(_represent(m1, ds, node, 0), _represent(m2, ds, node, 0))


def test_representation_composes_propagated_parts():
    ds = ingest([(0, 0, 0)])
    rng = np.random.default_rng(2)
    inter_rows = {n: rng.normal(size=2) for n in ds.all_nodes}
    intra_rows = [{n: rng.normal(size=3) for n in ds.graph(0).node_ids()}]
    spec = ModelSpec(d_inter=2, d_intra=3, grec=GRecConfig(num_layers=1, alpha=0.1))
    model = _hand_model(ds, spec, inter_rows, intra_rows)

    want_inter = dense_propagate([(0, 0)], inter_rows, 0.1, 1)
    want_intra = dense_propagate([(0, 0)], intra_rows[0], 0.1, 1)
    z = _represent(model, ds, U(0), 0)
    assert z == pytest.approx(np.concatenate([want_inter[U(0)], want_intra[U(0)]]), rel=1e-12)


def test_score_is_inner_product():
    ds = ingest([(0, 0, 0)])
    spec = ModelSpec(d_inter=1, d_intra=1, encoder="mf")
    inter_rows = {U(0): np.array([1.0]), I(0): np.array([3.0])}
    intra_rows = [{U(0): np.array([2.0]), I(0): np.array([-1.0])}]
    model = _hand_model(ds, spec, inter_rows, intra_rows)
    # Z_u = (1, 2), Z_i = (3, -1): dot = 1
    assert _score(model, ds, U(0), I(0), 0) == pytest.approx(1.0)

    z = model.propagated(ds).represent(0, node_keys([U(0)]))[0]
    assert np.dot(z, z) == pytest.approx(5.0)


def test_orthogonal_representations_score_zero():
    ds = ingest([(0, 0, 0)])
    spec = ModelSpec(d_inter=1, d_intra=1, encoder="mf")
    inter_rows = {U(0): np.array([1.0]), I(0): np.array([0.0])}
    intra_rows = [{U(0): np.array([0.0]), I(0): np.array([1.0])}]
    model = _hand_model(ds, spec, inter_rows, intra_rows)
    assert _score(model, ds, U(0), I(0), 0) == 0.0


def test_init_determinism_and_scale():
    ds = ingest(random_bipartite_records(np.random.default_rng(3), 0, 4, 5, 10)
                + random_bipartite_records(np.random.default_rng(4), 1, 4, 5, 10))
    spec = ModelSpec(d_inter=4, d_intra=3)
    m1 = init_model(spec, ds, seed=7)
    m2 = init_model(spec, ds, seed=7)
    for (_, a), (_, b) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a, b)

    m3 = init_model(spec, ds, seed=8)
    assert not np.array_equal(m1.inter.matrix, m3.inter.matrix)

    bound = 1.0 / np.sqrt(spec.d_inter)
    assert np.all(np.abs(m1.inter.matrix) <= bound)

    zero = init_model(ModelSpec(d_inter=4, d_intra=3, init_scale=0.0), ds, seed=7)
    assert all(np.all(arr == 0.0) for _, arr in zero.parameters())


def test_parameter_partition_counts():
    ds = ingest([(0, 0, 0), (0, 1, 1), (1, 0, 2)])
    spec = ModelSpec(d_inter=4, d_intra=3)
    model = init_model(spec, ds, seed=0)
    n_all = len(ds.all_nodes)
    expect = n_all * 4
    for g in ds.domains:
        expect += g.n_nodes * 3 + 3 * 3
    assert sum(arr.size for _, arr in model.parameters()) == expect
    names = [name for name, _ in model.parameters()]
    assert len(names) == len(set(names)) == 1 + 2 * ds.num_domains


def test_scoring_equivariance_under_relabeling():
    records = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 2)]
    remap_u = {0: 5, 1: 9}
    remap_i = {0: 7, 1: 3, 2: 0}
    relabeled = [(d, remap_u[u], remap_i[i]) for d, u, i in records]
    ds1, ds2 = ingest(records), ingest(relabeled)

    spec = ModelSpec(d_inter=3, d_intra=2, grec=GRecConfig(2, 0.1))
    m1 = init_model(spec, ds1, seed=5)

    def twin(node):
        mapped = remap_u if node.kind == NodeKind.USER else remap_i
        return NodeId(node.kind, mapped[node.id])

    inter2 = EmbeddingTable(
        ds2.all_nodes,
        np.array([m1.inter.row(n) for n in ds1.all_nodes])[
            np.argsort([ds2.all_nodes.index(twin(n)) for n in ds1.all_nodes])
        ],
    )
    intra2 = []
    for d, g in enumerate(ds1.domains):
        nodes1 = g.node_ids()
        perm = np.argsort([ds2.graph(d).local_index(twin(n)) for n in nodes1])
        intra2.append(
            EmbeddingTable(
                ds2.graph(d).node_ids(),
                np.array([m1.intra[d].row(n) for n in nodes1])[perm],
            )
        )
    m2 = EDModel(spec, inter2, intra2, [w.copy() for w in m1.proj])

    assert _score(m1, ds1, U(0), I(1), 0) == pytest.approx(
        _score(m2, ds2, U(remap_u[0]), I(remap_i[1]), 0), rel=1e-12
    )


def test_alpha_one_grec_scores_equal_mf():
    # no cross-domain overlap, so the inter sum has exactly one term per node
    ds = ingest([(0, 0, 0), (0, 1, 1), (1, 2, 2), (1, 3, 3)])
    rng = np.random.default_rng(6)
    inter_rows = {n: rng.normal(size=2) for n in ds.all_nodes}
    intra_rows = [
        {n: rng.normal(size=2) for n in g.node_ids()} for g in ds.domains
    ]
    grec1 = ModelSpec(d_inter=2, d_intra=2, grec=GRecConfig(num_layers=2, alpha=1.0))
    mf = ModelSpec(d_inter=2, d_intra=2, encoder="mf")
    m1 = _hand_model(ds, grec1, inter_rows, intra_rows)
    m2 = _hand_model(ds, mf, inter_rows, intra_rows)
    for d, u, i in [(0, 0, 0), (0, 1, 1), (1, 2, 2)]:
        assert _score(m1, ds, U(u), I(i), d) == pytest.approx(_score(m2, ds, U(u), I(i), d))


def test_represent_rejects_node_outside_domain():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    model = init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=0)
    with pytest.raises(KeyError, match="does not belong"):
        _represent(model, ds, U(1), 0)


def test_checkpoint_roundtrip(tmp_path):
    ds = ingest([(0, 0, 0), (0, 1, 1), (1, 0, 2)])
    model = init_model(ModelSpec(d_inter=4, d_intra=3, grec=GRecConfig(2, 0.1)), ds, seed=3)
    save_model(tmp_path / "ckpt", model)
    loaded = load_model(tmp_path / "ckpt")
    assert loaded.spec.d_inter == 4 and loaded.spec.encoder == "grec"
    for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert np.array_equal(a, b)



def test_save_model_failing_on_the_manifest_keeps_the_earlier_one(tmp_path, monkeypatch, fail_writes):
    ds = ingest([(0, 0, 0), (0, 1, 1), (1, 0, 2)])
    spec = ModelSpec(d_inter=4, d_intra=3, grec=GRecConfig(2, 0.1))
    ckpt = tmp_path / "ckpt"
    save_model(ckpt, init_model(spec, ds, seed=3))
    earlier = (ckpt / "model.manifest").read_bytes()
    files = sorted(p.name for p in ckpt.iterdir())

    fail_writes(1, name="model.manifest")
    with pytest.raises(OSError, match="no space"):
        save_model(ckpt, init_model(replace(spec, d_inter=5), ds, seed=3))
    assert (ckpt / "model.manifest").read_bytes() == earlier
    assert sorted(p.name for p in ckpt.iterdir()) == files

    monkeypatch.undo()
    model = init_model(replace(spec, d_inter=5), ds, seed=3)
    save_model(ckpt, model)
    assert sorted(p.name for p in ckpt.iterdir()) == files
    for (na, a), (nb, b) in zip(model.parameters(), load_model(ckpt).parameters()):
        assert na == nb and np.array_equal(a, b)

def test_variant_specs():
    base = ModelSpec(d_inter=8, d_intra=8)
    assert variant_spec(base, "edda") == base
    assert variant_spec(base, "wo-da") == base
    inter = variant_spec(base, "inter")
    assert not inter.use_intra and inter.d_inter == 16
    intra = variant_spec(base, "intra")
    assert not intra.use_inter and intra.d_intra == 16
    assert variant_spec(base, "ed-mf").encoder == "mf"
    with pytest.raises(ValueError):
        variant_spec(base, "bogus")


def test_cold_node_gets_residual_representation():
    full = ingest([(0, 0, 0), (0, 1, 1), (0, 2, 1)])
    train = ingest([(0, 0, 0), (0, 1, 1)])  # user 2 has no training edges
    spec = ModelSpec(d_inter=2, d_intra=2, grec=GRecConfig(num_layers=2, alpha=0.5))
    model = init_model(spec, full, seed=9)
    z = model.propagated(train).represent(0, node_keys([U(2)]))[0]
    scale = 0.5 ** 2
    assert z == pytest.approx(
        np.concatenate([scale * model.inter.row(U(2)), scale * model.intra[0].row(U(2))])
    )


def test_checkpoint_keeps_float32(tmp_path):
    ds = ingest([(0, 0, 0), (0, 1, 1), (1, 0, 2)])
    spec = ModelSpec(d_inter=4, d_intra=3, dtype="float32")
    model = init_model(spec, ds, seed=3)
    save_model(tmp_path / "ckpt", model)
    loaded = load_model(tmp_path / "ckpt")
    assert loaded.spec.dtype == "float32"
    for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert b.dtype == np.float32, nb
        assert np.array_equal(a, b)
