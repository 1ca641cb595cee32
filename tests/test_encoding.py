"""The single encode path: `EDModel.propagated` against dense oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edda.edmodel import ModelSpec, init_model, variant_spec
from edda.encoders import GRecConfig
from edda.mdgraph import DomainGraph, NodeId, NodeKind, ingest
from edda.trainer import (
    AdamState,
    TrainConfig,
    _NegativeSampler,
    adam_step,
    edge_dropout,
    loss_and_gradients,
)
from edda.walker import WalkConfig, mine_pairs, run_walks

from oracles import (
    as_float32,
    dense_propagate,
    edge_lists,
    keys,
    nodes_of,
    random_bipartite_records,
    row,
    sym_norm_adjacency_by_coo,
)


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
        rows = {n: row(table, n) for n in nodes_of(graph.keys)}
        for node, vec in dense_propagate(pairs, rows, alpha, layers, kept).items():
            summed[node] = summed.get(node, 0.0) + vec
    return np.array(
        [
            summed[n] if n in summed else alpha**layers * row(table, n)
            for n in nodes_of(table.keys)
        ]
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
    back = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    for d, y in y_intra.items():  # one domain per call, the shared gradient with domain 0's
        enc.transpose(d, None if d else y_inter, y, back)
    lhs = np.sum(enc.inter * y_inter) + sum(np.sum(enc.intra(d) * y) for d, y in y_intra.items())
    rhs = np.sum(model.inter.matrix * back["inter"]) + sum(
        np.sum(t.matrix * back[f"intra[{d}]"]) for d, t in enumerate(model.intra)
    )
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    assert all(np.all(back[f"proj[{d}]"] == 0.0) for d in y_intra)


@settings(max_examples=40, deadline=None)
@given(instances(), st.booleans())
def test_encoding_and_transpose_leave_the_tables_and_gradients_unchanged(instance, single):
    # the layers run in place on gathered copies, never on a caller's array
    model, train, masks, rng = instance
    if single:
        model = as_float32(model)
    tables = {name: arr.tobytes() for name, arr in model.parameters()}
    enc = model.propagated(train, masks)
    for d in range(model.num_domains):
        enc.represent(d, model.intra[d].keys)
    y_inter = rng.normal(size=enc.inter.shape).astype(enc.dtype)
    y_intra = {d: rng.normal(size=t.matrix.shape).astype(enc.dtype) for d, t in enumerate(model.intra)}
    given_bytes = [y_inter.tobytes(), *(y.tobytes() for y in y_intra.values())]
    back = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    for d, y in y_intra.items():
        enc.transpose(d, None if d else y_inter, y, back)
    assert [y_inter.tobytes(), *(y.tobytes() for y in y_intra.values())] == given_bytes
    assert {name: arr.tobytes() for name, arr in model.parameters()} == tables


def test_transpose_holds_two_row_blocks_at_a_time():
    # one domain, per-domain table only, one layer: the layer runs on a
    # gathered copy of the rows (one block) and makes its product (a second);
    # copying out[rows] before the layer ran would hold a third
    rng = np.random.default_rng(0)
    ds = ingest(random_bipartite_records(rng, 0, 1500, 500, 20_000))
    spec = ModelSpec(d_intra=64, use_inter=False, grec=GRecConfig(num_layers=1, alpha=0.1))
    model = init_model(spec, ds, seed=1)
    enc = model.propagated(ds)
    enc.intra(0)  # builds the domain's operator
    y = rng.normal(size=model.intra[0].matrix.shape)
    out = {"intra[0]": np.zeros_like(y)}
    tracemalloc.start()
    try:
        enc.transpose(0, None, y, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * y.nbytes


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", ["edda", "wo-da", "inter", "intra", "ed-mf"])
def test_represent_is_the_concatenation_of_the_encoded_parts(variant, dtype):
    rng = np.random.default_rng(6)
    records = random_bipartite_records(rng, 0, 6, 7, 20)
    records += random_bipartite_records(rng, 1, 6, 7, 18, user_base=4, item_base=5)
    ds = ingest(records)
    spec = variant_spec(ModelSpec(d_inter=3, d_intra=2, dtype=dtype), variant)
    model = init_model(spec, ds, seed=2)
    masks = {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)}
    enc = model.propagated(ds, masks)
    width = spec.d_inter * spec.use_inter + spec.d_intra * spec.use_intra
    for d, graph in enumerate(ds.domains):
        queries = (rng.permutation(graph.keys), rng.choice(graph.keys, size=(5, 3)), graph.keys[:0])
        for query in queries:
            parts = []
            if model.inter is not None:
                parts.append(enc.inter[model.inter.rows(query)])
            if model.intra is not None:
                parts.append(enc.intra(d)[model.intra[d].rows(query)])
            want = np.concatenate(parts, axis=-1)
            got = enc.represent(d, query)
            assert got.shape == query.shape + (width,) and got.dtype == np.dtype(dtype)
            assert got.tobytes() == want.tobytes()
    # user 9 is only in domain 1, user 1000 in no domain
    outside, unknown = keys(NodeId(NodeKind.USER, 9)), keys(NodeId(NodeKind.USER, 1000))
    assert outside[0] in ds.graph(1).keys and outside[0] not in ds.graph(0).keys
    if model.intra is not None:
        with pytest.raises(KeyError, match="does not belong to domain 0"):
            enc.represent(0, outside)
    else:
        assert enc.represent(0, outside).tobytes() == enc.inter[model.inter.rows(outside)].tobytes()
    with pytest.raises(KeyError, match="missing from embedding table"):
        enc.represent(0, unknown)


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
    state = AdamState.for_model(model)
    for d, rows in triplets.items():
        grads = loss_and_gradients(model, ds, d, rows, [], cfg, masks=masks)[1]
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        adam_step(model, grads, state, cfg)
    assert {arr.dtype for _, arr in model.parameters()} == {np.dtype(np.float32)}
    assert {m.dtype for m in [*state.m.values(), *state.v.values()]} == {np.dtype(np.float32)}


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
    stops = [run_walks(graph, walks) for graph in ds.domains]
    pairs = [mine_pairs(ds, 0, 1, 2, stops), mine_pairs(ds, 1, 0, 2, stops)]
    assert all(p.pairs for p in pairs)
    cfg = TrainConfig(beta=0.5, reg_lambda=1e-3)
    for d, rows in triplets.items():
        want = loss_and_gradients(model, ds, d, rows, pairs, cfg, masks=masks)[1]
        got = loss_and_gradients(as_float32(model), ds, d, rows, pairs, cfg, masks=masks)[1]
        assert got.keys() == want.keys()
        for name, g in got.items():
            assert g.dtype == np.float32, name
            scale = np.abs(want[name]).max()
            np.testing.assert_allclose(g, want[name], rtol=0, atol=1e-6 * scale, err_msg=f"{d} {name}")


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.data())
def test_sym_norm_adjacency_equals_the_coo_build(edges, data):
    graph = DomainGraph(0, edges)
    n = graph.n_edges
    kept = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(graph.n_nodes, 3))
    for mask in (None, kept):
        got, want = graph.sym_norm_adjacency(mask), sym_norm_adjacency_by_coo(graph, mask)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (got @ x).tobytes() == (want @ x).tobytes()


def test_two_encodings_of_one_model_are_equal():
    rng = np.random.default_rng(3)
    records = random_bipartite_records(rng, 0, 5, 6, 14) + random_bipartite_records(rng, 1, 4, 5, 9)
    ds = ingest(records)
    model = init_model(ModelSpec(d_inter=3, d_intra=2), ds, seed=1)
    first, second = model.propagated(ds), model.propagated(ds)
    assert np.array_equal(first.inter, second.inter)
    for d in range(ds.num_domains):
        assert np.array_equal(first.intra(d), second.intra(d))


@pytest.mark.parametrize("use_intra", [False, True])
def test_an_encoding_after_a_graph_is_replaced_equals_a_fresh_models(use_intra):
    # domain 0 = users 0-3 x items 0-3, domain 1 = users 4-7 x items 4-7
    records = [
        (d, u + 4 * d, i + 4 * d) for d in (0, 1) for u in range(4) for i in range(4) if (u + i) % 3
    ]
    ds = ingest(records)
    model = init_model(ModelSpec(d_inter=3, d_intra=2, use_intra=use_intra), ds, seed=1)
    model.propagated(ds)
    pairs = ds.graph(1 if not use_intra else 0).user_item_pairs()
    # the shared table alone: domain 0 moves onto domain 1's nodes, as many as
    # before; with per-domain tables: domain 0 keeps a subset of its nodes
    ds.domains[0] = DomainGraph(0, pairs[::2] if not use_intra else pairs[pairs[:, 0] != 0])
    got, want = model.propagated(ds), model.copy().propagated(ds)
    assert np.array_equal(got.inter, want.inter)
    for d in range(ds.num_domains if use_intra else 0):
        assert np.array_equal(got.intra(d), want.intra(d))
