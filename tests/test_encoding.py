"""The single encode path: `EDModel.propagated` against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from edda.edmodel import EDModel, ModelSpec, init_model
from edda.encoders import EmbeddingTable, GRecConfig
from edda.mdgraph import DomainGraph, ingest
from edda.trainer import (
    AdamState,
    TrainConfig,
    _NegativeSampler,
    adam_step,
    edge_dropout,
    gradients,
)
from edda.walker import WalkConfig, mine_pairs

from oracles import dense_propagate, random_bipartite_records


def _triplets(ds, counts, rng):
    """(3, n) local triplet rows per domain for `counts[d]` uniform training edges."""
    return {
        d: _NegativeSampler(ds.graph(d)).triplets(rng.integers(ds.graph(d).n_edges, size=n), rng)
        for d, n in counts.items()
    }


def _domain_pairs(graph):
    return [(int(u), int(i)) for u, i in graph.user_item_pairs()]


def _expected(table, graphs, masks, spec):
    """Dense-oracle encoding of `table`: per-graph propagation summed per node,
    residual alpha^L rows for nodes on no graph, raw rows for MF."""
    if spec.encoder == "mf":
        return table.matrix
    alpha, layers = spec.grec.alpha, spec.grec.num_layers
    summed = {}
    for d, graph in graphs:
        pairs = _domain_pairs(graph)
        kept = None
        if masks is not None:
            kept = [p for p, keep in zip(pairs, masks[d]) if keep]
        rows = {n: table.row(n) for n in graph.node_ids()}
        for node, vec in dense_propagate(pairs, rows, alpha, layers, kept).items():
            summed[node] = summed.get(node, 0.0) + vec
    return np.array(
        [summed[n] if n in summed else alpha**layers * table.row(n) for n in table.nodes]
    )


@st.composite
def instances(draw):
    """A model on a random full dataset, encoded on a random edge subset of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for d in range(draw(st.integers(1, 3))):
        records += random_bipartite_records(rng, d, 4, 5, draw(st.integers(1, 12)))
    keep = rng.random(len(records)) < 0.7
    for d in {r[0] for r in records}:
        keep[[k for k, r in enumerate(records) if r[0] == d][0]] = True
    full = ingest(records)
    train = ingest([r for r, k in zip(records, keep) if k])
    spec = ModelSpec(
        d_inter=3,
        d_intra=2,
        encoder=draw(st.sampled_from(["grec", "mf"])),
        grec=GRecConfig(draw(st.integers(0, 3)), draw(st.floats(0.0, 1.0))),
    )
    model = init_model(spec, full, seed=draw(st.integers(0, 100)))
    ratio = draw(st.sampled_from([None, 0.0, 0.5]))
    masks = None
    if ratio is not None:
        masks = {d: edge_dropout(g, ratio, rng) for d, g in enumerate(train.domains)}
    return model, train, masks, rng


@settings(max_examples=60, deadline=None)
@given(instances())
def test_encoding_matches_dense_oracle(instance):
    model, train, masks, _ = instance
    enc = model.propagated(train, masks)
    graphs = list(enumerate(train.domains))
    want = _expected(model.inter, graphs, masks, model.spec)
    assert enc.inter == pytest.approx(want, rel=1e-10, abs=1e-12)
    for d, graph in graphs:
        want = _expected(model.intra[d], [(d, graph)], masks, model.spec)
        assert enc.intra(d) == pytest.approx(want, rel=1e-10, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_transpose_is_the_adjoint(instance):
    # <F x, y> == <x, F^T y> over the shared and every per-domain table
    model, train, masks, rng = instance
    enc = model.propagated(train, masks)
    y_inter = rng.normal(size=enc.inter.shape)
    y_intra = {d: rng.normal(size=t.matrix.shape) for d, t in enumerate(model.intra)}
    back = enc.transpose(y_inter, y_intra)
    lhs = np.sum(enc.inter * y_inter) + sum(np.sum(enc.intra(d) * y) for d, y in y_intra.items())
    rhs = np.sum(model.inter.matrix * back["inter"]) + sum(
        np.sum(t.matrix * back[f"intra[{d}]"]) for d, t in enumerate(model.intra)
    )
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    assert all(np.all(back[f"proj[{d}]"] == 0.0) for d in y_intra)


def test_float32_model_stays_float32():
    rng = np.random.default_rng(0)
    records = random_bipartite_records(rng, 0, 5, 6, 14)
    records += random_bipartite_records(rng, 1, 5, 6, 12, user_base=4, item_base=5)
    ds = ingest(records)
    model = init_model(ModelSpec(d_inter=3, d_intra=2, dtype="float32"), ds, seed=1)
    masks = {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)}
    enc = model.propagated(ds, masks)
    assert enc.inter.dtype == np.float32
    assert all(enc.intra(d).dtype == np.float32 for d in range(ds.num_domains))

    triplets = _triplets(ds, {0: 6, 1: 5}, rng)
    cfg = TrainConfig()
    grads = gradients(model, ds, triplets, [], cfg, masks=masks)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
    state = AdamState.for_model(model)
    adam_step(model, grads, state, cfg)
    assert {arr.dtype for _, arr in model.parameters()} == {np.dtype(np.float32)}
    assert {m.dtype for m in [*state.m.values(), *state.v.values()]} == {np.dtype(np.float32)}


def _as_float32(model):
    def table(t):
        return EmbeddingTable(t.nodes, t.matrix.astype(np.float32))

    return EDModel(
        replace(model.spec, dtype="float32"),
        table(model.inter) if model.inter is not None else None,
        [table(t) for t in model.intra] if model.intra is not None else None,
        [w.astype(np.float32) for w in model.proj] if model.proj is not None else None,
    )


@pytest.mark.parametrize("encoder", ["grec", "mf"])
def test_float32_gradients_match_float64(encoder):
    rng = np.random.default_rng(4)
    records = random_bipartite_records(rng, 0, 8, 9, 40)
    records += random_bipartite_records(rng, 1, 8, 9, 35, user_base=5, item_base=6)
    ds = ingest(records)
    model = init_model(ModelSpec(d_inter=4, d_intra=3, encoder=encoder), ds, seed=2)
    masks = {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)}
    triplets = _triplets(ds, {0: 30, 1: 25}, rng)
    walks = WalkConfig(3, 30, 1)
    pairs = [mine_pairs(ds, 0, 1, 2, walks), mine_pairs(ds, 1, 0, 2, walks)]
    assert all(p.pairs for p in pairs)
    cfg = TrainConfig(beta=0.5, reg_lambda=1e-3)
    want = gradients(model, ds, triplets, pairs, cfg, masks=masks)
    got = gradients(_as_float32(model), ds, triplets, pairs, cfg, masks=masks)
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert g.dtype == np.float32, name
        scale = np.abs(want[name]).max()
        np.testing.assert_allclose(g, want[name], rtol=0, atol=1e-6 * scale, err_msg=name)


def test_unmasked_operators_are_built_once_per_row_maps(monkeypatch):
    rng = np.random.default_rng(3)
    records = random_bipartite_records(rng, 0, 5, 6, 14) + random_bipartite_records(rng, 1, 4, 5, 9)
    ds = ingest(records)
    model = init_model(ModelSpec(d_inter=3, d_intra=2), ds, seed=1)
    built = []
    original = DomainGraph.sym_norm_adjacency
    def counted(graph, mask=None):
        built.append(mask is None)
        return original(graph, mask)

    monkeypatch.setattr(DomainGraph, "sym_norm_adjacency", counted)
    first = model.propagated(ds)
    for d in range(ds.num_domains):
        first.intra(d)
    assert built == [True] * ds.num_domains
    second = model.propagated(ds)
    for d in range(ds.num_domains):
        second.intra(d)
    assert np.array_equal(first.inter, second.inter)
    assert built == [True] * ds.num_domains
    masks = {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)}
    model.propagated(ds, masks)
    model.propagated(ds, masks)
    assert built == [True] * ds.num_domains + [False] * (2 * ds.num_domains)
