import logging
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edda import trainer
from edda.edmodel import EDModel, ModelSpec, init_model, variant_spec
from edda import evalkit
from edda.encoders import GRecConfig
from edda.evalkit import split
from edda.mdgraph import NodeId, NodeKind, ingest
from edda.trainer import (
    BPR_CHUNK,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    _NegativeSampler,
    _bpr_part,
    _epoch_batches,
    _scatter_add,
    _subsample_pairs,
    adam_step,
    edge_dropout,
    loss_and_gradients,
    train,
)
from edda.walker import SimilarPair, SimilarPairSet

from oracles import (
    adam_reference,
    as_float32,
    bpr_part_by_rows,
    bpr_row_gradients,
    bpr_scores,
    dataset_records,
    epoch_batches_by_lists,
    finite_difference_gradient,
    keys,
    negative_triplets_by_scalar_draws,
    nodes_of,
    oracle_total_loss,
    pair_set_of,
    random_bipartite_records,
    row,
    zeroed,
)

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def _val_cases(sp):
    return evalkit.build_all_cases(sp, "validation")


def sample_triplets(ds, counts, rng):
    """Per domain d, triplets for `counts[d]` training edges drawn uniformly
    with replacement, as the (3, n) local index rows `loss_and_gradients` takes."""
    return {
        d: _NegativeSampler(ds.graph(d)).triplets(rng.integers(ds.graph(d).n_edges, size=n), rng)
        for d, n in counts.items()
    }


def _instance(seed=0, overlap=True):
    """Small 2-domain dataset with a shared user and item, model, triplets, pairs."""
    rng = np.random.default_rng(seed)
    records = random_bipartite_records(rng, 0, 5, 6, 14)
    records += random_bipartite_records(rng, 1, 5, 6, 12, user_base=4, item_base=5)
    if overlap:
        records += [(0, 4, 5), (1, 4, 5)]  # user 4 and item 5 overlap
    ds = ingest(records)
    spec = ModelSpec(d_inter=3, d_intra=2, grec=GRecConfig(num_layers=2, alpha=0.1))
    model = init_model(spec, ds, seed=seed + 1)
    trip_rng = np.random.default_rng(seed + 2)
    triplets = sample_triplets(ds, {0: 6, 1: 5}, trip_rng)
    pairs = [
        pair_set_of(
            (0, 1),
            (
                SimilarPair(U(0), U(5), 0.9),
                SimilarPair(I(0), I(6), 0.8),
            ),
        ),
        pair_set_of((1, 0), (SimilarPair(U(5), U(0), 0.9),)),
    ]
    return ds, model, triplets, pairs


def _row(table, node):
    return int(table.rows(keys(node))[0])


def _local(graph, *nodes):
    """Graph-local indices of `nodes`."""
    return np.searchsorted(graph.keys, keys(*nodes))


def _planted_bpr(s_pos, s_neg, n=1):
    """The loss with beta = reg_lambda = 0 of an MF model whose scores are
    planted: n copies of the triplet (user 0, item 0, item 1), with user row 1
    and item rows s_pos and s_neg, so each copy has s+ - s- = s_pos - s_neg."""
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    spec = ModelSpec(d_inter=1, use_intra=False, encoder="mf")
    model = zeroed(init_model(spec, ds, seed=0))
    for node, value in ((U(0), 1.0), (I(0), s_pos), (I(1), s_neg)):
        model.inter.matrix[_row(model.inter, node)] = value
    triplets = np.tile(_local(ds.graph(0), U(0), I(0), I(1))[:, None], n)
    return loss_and_gradients(model, ds, 0, triplets, [], TrainConfig(beta=0.0, reg_lambda=0.0))[0]


def test_total_loss_bpr_hand_values():
    assert _planted_bpr(0.0, 0.0, n=4) == pytest.approx(4 * np.log(2))
    assert _planted_bpr(1.0, 0.0) == pytest.approx(0.31326, abs=1e-5)
    big = _planted_bpr(50.0, 0.0)
    bigger = _planted_bpr(100.0, 0.0)
    assert bigger < big < 1e-20


def test_total_loss_is_stable_for_large_gaps():
    assert np.isfinite(_planted_bpr(-1000.0, 1000.0))


ALIGN_ONLY = TrainConfig(beta=1.0, reg_lambda=0.0, edge_dropout=0.0)
NO_TRIPLETS = np.zeros((3, 0), dtype=np.int64)


def alignment_loss(model, dataset, pair_sets):
    """The alignment term alone: the loss with beta=1, no ranking or regularization."""
    return loss_and_gradients(model, dataset, 0, NO_TRIPLETS, pair_sets, ALIGN_ONLY)[0]


def test_alignment_loss_values():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    spec = ModelSpec(d_inter=2, d_intra=2)
    model = init_model(spec, ds, seed=0)
    assert alignment_loss(model, ds, []) == 0.0

    # make both projections identity and set embeddings by hand
    model.proj[0][:] = np.eye(2)
    model.proj[1][:] = np.eye(2)
    model.intra[0].matrix[_row(model.intra[0], U(0))] = [1.0, 0.0]
    model.intra[1].matrix[_row(model.intra[1], U(1))] = [0.0, 2.0]
    pairs = [pair_set_of((0, 1), (SimilarPair(U(0), U(1), 1.0),))]
    # projected difference (1, -2): squared norm 5
    assert alignment_loss(model, ds, pairs) == pytest.approx(5.0)

    model.intra[1].matrix[_row(model.intra[1], U(1))] = [1.0, 0.0]
    assert alignment_loss(model, ds, pairs) == pytest.approx(0.0)


def test_alignment_loss_missing_node():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    model = init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=0)
    pairs = [pair_set_of((0, 1), (SimilarPair(U(9), U(1), 1.0),))]
    with pytest.raises(KeyError, match="missing"):
        alignment_loss(model, ds, pairs)


def test_alignment_pairs_within_one_domain_are_refused():
    ds = ingest([(0, 0, 0), (0, 1, 1), (1, 1, 1)])
    model = init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=0)
    pairs = [pair_set_of((0, 0), (SimilarPair(U(0), U(1), 1.0),))]
    with pytest.raises(ValueError, match=r"pair domains must differ, got 0 twice"):
        alignment_loss(model, ds, pairs)
    sp = split(ds, seed=0)
    with pytest.raises(ValueError, match="pair domains must differ"):
        train(model, sp, pairs, TrainConfig(epochs=1), _val_cases(sp))


def test_total_loss_decomposition():
    ds, model, triplets, pairs = _instance()
    cfg0 = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4, edge_dropout=0.0)
    enc = model.propagated(ds)
    for d, rows in triplets.items():
        scores = []
        for u, p, n in rows.T:
            z_u, z_p, z_n = enc.represent(d, ds.graph(d).keys[[u, p, n]])
            scores.append((float(np.dot(z_u, z_p)), float(np.dot(z_u, z_n))))
        pos, neg = np.array([s for s, _ in scores]), np.array([s for _, s in scores])
        l_bpr = loss_and_gradients(model, ds, d, rows, [], cfg0)[0]
        assert l_bpr == pytest.approx(float(np.sum(np.log1p(np.exp(-(pos - neg))))), rel=1e-12)

        full = loss_and_gradients(model, ds, d, rows, pairs, cfg)[0]
        recomposed = (
            l_bpr + cfg.beta * alignment_loss(model, ds, pairs) + cfg.reg_lambda * model.squared_norm()
        )
        assert full == pytest.approx(recomposed, rel=1e-12)


def test_total_loss_zero_model_regularizer():
    ds, _, triplets, _ = _instance()
    spec = ModelSpec(d_inter=3, d_intra=2)
    model = zeroed(init_model(spec, ds, seed=0))
    cfg = TrainConfig(beta=0.0, reg_lambda=0.5, edge_dropout=0.0)
    for d, rows in triplets.items():
        assert loss_and_gradients(model, ds, d, rows, [], cfg)[0] == pytest.approx(
            rows.shape[1] * np.log(2)
        )


def test_total_loss_matches_dense_oracle():
    ds, model, triplets, pairs = _instance(seed=3)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4, edge_dropout=0.0)
    for d, rows in triplets.items():
        got = loss_and_gradients(model, ds, d, rows, pairs, cfg)[0]
        want = oracle_total_loss(model, ds, {d: rows}, pairs, cfg)
        assert got == pytest.approx(want, rel=1e-10)


def test_total_loss_matches_dense_oracle_under_masks():
    ds, model, triplets, pairs = _instance(seed=4)
    rng = np.random.default_rng(5)
    masks = {d: edge_dropout(g, 0.4, rng) for d, g in enumerate(ds.domains)}
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4)
    for d, rows in triplets.items():
        got = loss_and_gradients(model, ds, d, rows, pairs, cfg, masks=masks)[0]
        want = oracle_total_loss(model, ds, {d: rows}, pairs, cfg, masks=masks)
        assert got == pytest.approx(want, rel=1e-10)


def test_gradient_isolation_exact():
    ds, model, _, _ = _instance()
    rng = np.random.default_rng(7)
    only0 = sample_triplets(ds, {0: 8}, rng)[0]
    cfg = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    grads = loss_and_gradients(model, ds, 0, only0, [], cfg)[1]
    assert np.all(grads["intra[1]"] == 0.0)
    assert np.any(grads["intra[0]"] != 0.0)
    touched = model.inter.rows(ds.graph(0).keys[only0[0]])
    assert all(np.any(grads["inter"][r] != 0.0) for r in touched)


def test_gradient_zero_model_is_zero():
    # all scores and representations vanish, so the chain rule yields zeros
    ds, _, _, _ = _instance()
    spec = ModelSpec(d_inter=3, d_intra=2)
    model = zeroed(init_model(spec, ds, seed=0))
    cfg = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    triplet = sample_triplets(ds, {0: 1}, np.random.default_rng(0))[0]
    grads = loss_and_gradients(model, ds, 0, triplet, [], cfg)[1]
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_gradient_hand_case_mf():
    # one triplet, MF encoder, dims 1: hand-derivable chain rule
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    spec = ModelSpec(d_inter=1, d_intra=1, encoder="mf")
    model = init_model(spec, ds, seed=0)
    e = {n: float(row(model.inter, n)[0]) for n in nodes_of(ds.keys)}
    f = {n: float(row(model.intra[0], n)[0]) for n in nodes_of(ds.graph(0).keys)}
    cfg = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    t = _local(ds.graph(0), U(0), I(0), I(1))[:, None]
    x = (e[U(0)] * e[I(0)] + f[U(0)] * f[I(0)]) - (e[U(0)] * e[I(1)] + f[U(0)] * f[I(1)])
    g = -1.0 / (1.0 + np.exp(x))
    grads = loss_and_gradients(model, ds, 0, t, [], cfg)[1]
    assert grads["inter"][_row(model.inter, U(0)), 0] == pytest.approx(
        g * (e[I(0)] - e[I(1)])
    )
    assert grads["inter"][_row(model.inter, I(0)), 0] == pytest.approx(g * e[U(0)])
    assert grads["inter"][_row(model.inter, I(1)), 0] == pytest.approx(-g * e[U(0)])
    assert grads["intra[0]"][_row(model.intra[0], U(0)), 0] == pytest.approx(
        g * (f[I(0)] - f[I(1)])
    )


@pytest.mark.parametrize("masked", [False, True])
def test_gradients_match_finite_differences(masked):
    ds, model, triplets, pairs = _instance(seed=11)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4)
    masks = None
    if masked:
        rng = np.random.default_rng(13)
        masks = {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)}
    for d, rows in triplets.items():
        grads = loss_and_gradients(model, ds, d, rows, pairs, cfg, masks=masks)[1]

        rng = np.random.default_rng(17)
        checked = 0
        for name, arr in model.parameters():
            for flat_index in rng.choice(arr.size, size=min(8, arr.size), replace=False):
                fd = finite_difference_gradient(
                    lambda: loss_and_gradients(model, ds, d, rows, pairs, cfg, masks=masks)[0],
                    arr,
                    int(flat_index),
                )
                analytic = grads[name].reshape(-1)[int(flat_index)]
                denom = max(abs(fd), abs(analytic), 1e-10)
                assert abs(fd - analytic) / denom < 1e-4, (d, name, flat_index)
                checked += 1
        assert checked >= 30


def test_float32_gradients_match_finite_differences():
    ds, model, triplets, pairs = _instance(seed=11)
    model = as_float32(model)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4)
    for d, rows in triplets.items():
        grads = loss_and_gradients(model, ds, d, rows, pairs, cfg)[1]
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        # float32 rounding of the loss swamps small gradient entries: floor the denominator
        floor = 1e-3 * max(float(np.abs(g).max()) for g in grads.values())

        rng = np.random.default_rng(17)
        checked = 0
        for name, arr in model.parameters():
            for flat_index in rng.choice(arr.size, size=min(8, arr.size), replace=False):
                fd = finite_difference_gradient(
                    lambda: loss_and_gradients(model, ds, d, rows, pairs, cfg)[0],
                    arr,
                    int(flat_index),
                    h=1e-2,
                )
                analytic = float(grads[name].reshape(-1)[int(flat_index)])
                denom = max(abs(fd), abs(analytic), floor)
                assert abs(fd - analytic) / denom < 1e-2, (d, name, flat_index)
                checked += 1
        assert checked >= 30


def test_gradients_match_finite_differences_variants():
    ds, _, triplets, _ = _instance(seed=19)
    cfg = TrainConfig(beta=0.0, reg_lambda=1e-4, edge_dropout=0.0)
    for variant_spec in (
        ModelSpec(d_inter=4, d_intra=2, use_intra=False),
        ModelSpec(d_inter=2, d_intra=4, use_inter=False),
        ModelSpec(d_inter=3, d_intra=3, encoder="mf"),
    ):
        model = init_model(variant_spec, ds, seed=23)
        for d, rows in triplets.items():
            grads = loss_and_gradients(model, ds, d, rows, [], cfg)[1]
            rng = np.random.default_rng(29)
            for name, arr in model.parameters():
                for flat_index in rng.choice(arr.size, size=min(5, arr.size), replace=False):
                    fd = finite_difference_gradient(
                        lambda: loss_and_gradients(model, ds, d, rows, [], cfg)[0],
                        arr,
                        int(flat_index),
                    )
                    analytic = grads[name].reshape(-1)[int(flat_index)]
                    denom = max(abs(fd), abs(analytic), 1e-10)
                    assert abs(fd - analytic) / denom < 1e-4, (variant_spec.encoder, d, name)


def test_sample_triplets_forced_and_empty():
    ds = ingest([(0, 0, 0), (0, 1, 1)])  # user 0 can only draw negative item 1
    graph = ds.graph(0)
    sampler = _NegativeSampler(graph)
    rng = np.random.default_rng(0)
    edges = np.tile(np.arange(graph.n_edges), 3)
    out = sampler.triplets(edges, rng)
    assert out.shape == (3, len(edges))
    assert np.array_equal(out[:2], [graph.edge_user[edges], graph.edge_item[edges] + graph.n_users])
    assert np.all(out[1] != out[2])
    u0, i0, i1 = _local(graph, U(0), I(0), I(1))
    assert np.all(out[1:, out[0] == u0] == [[i0], [i1]])
    assert sampler.triplets(np.array([], dtype=np.int64), rng).shape == (3, 0)


def test_sample_triplets_negative_uniformity():
    # user 0 interacted with item 0 among items {0,1,2}: negatives split 50/50
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2)])
    graph = ds.graph(0)
    rng = np.random.default_rng(1)
    out = sample_triplets(ds, {0: 100_000}, rng)[0]
    negs = graph.item_ids[out[2, out[0] == _local(graph, U(0))[0]] - graph.n_users]
    freq = np.bincount(negs, minlength=3) / len(negs)
    assert freq[0] == 0.0
    assert freq[1] == pytest.approx(0.5, abs=0.02)
    assert freq[2] == pytest.approx(0.5, abs=0.02)


def test_sample_triplets_skips_saturated_user(caplog):
    ds = ingest([(0, 0, 0), (0, 0, 1), (0, 1, 0)])  # user 0 saw every item
    rng = np.random.default_rng(2)
    with caplog.at_level(logging.WARNING):
        out = sample_triplets(ds, {0: 20}, rng)[0]
    assert 0 < out.shape[1] < 20
    assert np.all(out[0] == _local(ds.graph(0), U(1))[0])
    warnings = [rec.message for rec in caplog.records if "every item" in rec.message]
    assert warnings == ["domain 0: user 0 interacts with every item, skipping"]


@st.composite
def _sampler_cases(draw):
    """A one-domain graph whose users 0 and 5 saw every item and whose user 1
    has one eligible item, plus batches of edge indices (empty ones and
    repeats included) and a seed."""
    n_items = draw(st.integers(2, 7))
    one_left = draw(st.integers(0, n_items - 1))
    records = [(0, u, i) for u in (0, 5) for i in range(n_items)]
    records += [(0, 1, i) for i in range(n_items) if i != one_left]
    cells = st.tuples(st.integers(2, 4), st.integers(0, n_items - 1))
    records += [(0, u, i) for u, i in draw(st.lists(cells, min_size=1, max_size=20))]
    graph = ingest(records).graph(0)
    edge = st.integers(0, graph.n_edges - 1)
    batches = draw(st.lists(st.lists(edge, max_size=30), min_size=1, max_size=4))
    return graph, batches, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_sampler_cases())
def test_sampler_replays_the_scalar_rejection_stream(case):
    graph, batches, seed = case
    sampler, rng = _NegativeSampler(graph), np.random.default_rng(seed)
    warned, oracle_rng = set(), np.random.default_rng(seed)
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logging.getLogger("edda.trainer").addHandler(handler)
    try:
        for batch in batches:
            edges = np.array(batch, dtype=np.int64)
            records.clear()
            got = sampler.triplets(edges, rng)
            want, warnings = negative_triplets_by_scalar_draws(graph, edges, oracle_rng, warned)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert [rec.getMessage() for rec in records] == warnings
    finally:
        logging.getLogger("edda.trainer").removeHandler(handler)


def test_adam_zero_gradient_keeps_parameters():
    ds, model, _, _ = _instance()
    before = {name: arr.copy() for name, arr in model.parameters()}
    state = AdamState.for_model(model)
    zero = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    adam_step(model, zero, state, TrainConfig())
    for name, arr in model.parameters():
        assert np.array_equal(arr, before[name])
    assert state.t == 1


def test_adam_first_step_magnitude():
    ds, model, _, _ = _instance()
    state = AdamState.for_model(model)
    cfg = TrainConfig(learning_rate=0.01)
    before = {name: arr.copy() for name, arr in model.parameters()}
    grads = {
        name: np.full_like(arr, 3.7) if name == "inter" else np.full_like(arr, -0.002)
        for name, arr in model.parameters()
    }
    adam_step(model, grads, state, cfg)
    for name, arr in model.parameters():
        step = arr - before[name]
        sign = 1.0 if name == "inter" else -1.0
        assert np.allclose(step, -sign * cfg.learning_rate, rtol=1e-4)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_adam_step_equals_the_textbook_expression_bit_for_bit(dtype):
    ds = ingest(random_bipartite_records(np.random.default_rng(3), 0, 12, 9, 60))
    ds = ingest(np.concatenate([dataset_records(ds), [(1, 0, 2), (1, 5, 7), (1, 30, 2)]]))
    model = init_model(ModelSpec(d_inter=5, d_intra=3, dtype=dtype), ds, seed=4)
    cfg = TrainConfig(learning_rate=0.01)
    state = AdamState.for_model(model)
    zeros = np.zeros_like
    want = {name: (arr.copy(), zeros(arr), zeros(arr)) for name, arr in model.parameters()}
    rng = np.random.default_rng(5)
    for step in range(1, 6):
        # step 3 is all zeros; on the others proj[1] gets a zero gradient
        grads = {
            name: (rng.normal(size=arr.shape) * (step != 3 and name != "proj[1]")).astype(dtype)
            for name, arr in model.parameters()
        }
        adam_step(model, grads, state, cfg)
        for name, arr in model.parameters():
            param, m, v = want[name]
            want[name] = adam_reference(param, grads[name], m, v, step, cfg.learning_rate)
            param, m, v = want[name]
            assert arr.dtype == param.dtype == np.dtype(dtype), name
            assert arr.tobytes() == param.tobytes(), (step, name)
            assert state.m[name].tobytes() == m.tobytes(), (step, name)
            assert state.v[name].tobytes() == v.tobytes(), (step, name)
    assert state.t == 5


def test_adam_determinism():
    ds, model, triplets, pairs = _instance(seed=31)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4, edge_dropout=0.0)
    runs = []
    for _ in range(2):
        m = model.copy()
        state = AdamState.for_model(m)
        for d in (0, 1, 0):
            grads = loss_and_gradients(m, ds, d, triplets[d], pairs, cfg)[1]
            adam_step(m, grads, state, cfg)
        runs.append({name: arr.copy() for name, arr in m.parameters()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_edge_dropout_properties():
    rng = np.random.default_rng(41)
    ds = ingest(random_bipartite_records(rng, 0, 400, 300, 100_000))
    g = ds.graph(0)
    assert edge_dropout(g, 0.0, np.random.default_rng(0)).all()
    mask = edge_dropout(g, 0.3, np.random.default_rng(1))
    assert mask.mean() == pytest.approx(0.7, abs=0.01)
    again = edge_dropout(g, 0.3, np.random.default_rng(1))
    assert np.array_equal(mask, again)


def _toy_split(seed=0):
    # separable structure: user u likes items with matching parity
    records = []
    for u in range(6):
        for i in range(8):
            if (u + i) % 2 == 0:
                records.append((0, u, i))
    records += [(1, u + 4, i + 6) for u in range(4) for i in range(4) if (u + i) % 2 == 0]
    return split(ingest(records), ratios=(1, 0, 0), seed=seed)


def test_train_zero_epochs_keeps_model():
    sp = _toy_split()
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=1)
    before = {name: arr.copy() for name, arr in model.parameters()}
    trained, logs, _ = train(model, sp, [], TrainConfig(epochs=0), _val_cases(sp))
    assert logs == []
    for name, arr in trained.parameters():
        assert np.array_equal(arr, before[name])


def test_train_loss_decreases_on_separable_toy():
    # one cleanly separable domain: user u likes items of matching parity
    records = [(0, u, i) for u in range(8) for i in range(10) if (u + i) % 2 == 0]
    sp = split(ingest(records), ratios=(1, 0, 0), seed=0)
    model = init_model(ModelSpec(d_inter=8, d_intra=8), sp.full, seed=2)
    cfg = TrainConfig(
        beta=0.0, reg_lambda=1e-4, learning_rate=0.02, epochs=50,
        edge_dropout=0.0, seed=3,
    )
    _, logs, _ = train(model, sp, [], cfg, _val_cases(sp))
    drops = sum(b.bpr < a.bpr for a, b in zip(logs, logs[1:]))
    assert drops / (len(logs) - 1) >= 0.9


def test_train_large_beta_pulls_pair_together():
    sp = _toy_split()
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=4)
    pair = pair_set_of((0, 1), (SimilarPair(U(4), U(5), 1.0),))

    def pair_distance(m):
        return float(
            np.linalg.norm(
                row(m.intra[0], U(4)) @ m.proj[0] - row(m.intra[1], U(5)) @ m.proj[1]
            )
        )

    before = pair_distance(model)
    cfg = TrainConfig(
        beta=1e3, reg_lambda=0.0, learning_rate=0.02, epochs=60,
        edge_dropout=0.0, seed=5,
    )
    trained, _, _ = train(model, sp, [pair], cfg, _val_cases(sp))
    assert pair_distance(trained) <= before / 10.0


def test_train_determinism():
    sp = _toy_split()
    results = []
    for _ in range(2):
        model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=6)
        cfg = TrainConfig(epochs=5, seed=7, edge_dropout=0.3, learning_rate=0.01)
        trained, logs, _ = train(model, sp, [], cfg, _val_cases(sp))
        results.append(
            ({n: a.copy() for n, a in trained.parameters()}, [l.bpr for l in logs])
        )
    assert results[0][1] == results[1][1]
    for name in results[0][0]:
        assert np.array_equal(results[0][0][name], results[1][0][name])


def test_train_aborts_on_divergence():
    sp = _toy_split()
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=8)
    model.inter.matrix[:] = 1e200  # scores overflow to inf
    with pytest.raises(TrainingDiverged, match=r"in epoch 1, domain 0: bpr \S+, align \S+, total"):
        train(model, sp, [], TrainConfig(epochs=1, edge_dropout=0.0), _val_cases(sp))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=4),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
)
def test_epoch_batches_equal_the_list_slicing_round_robin(n_edges, batch_size, seed):
    domains = [SimpleNamespace(n_edges=n) for n in n_edges]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = epoch_batches_by_lists(domains, batch_size, ref_rng)
    batches = _epoch_batches(domains, batch_size, rng)
    first = next(batches, None)
    # every permutation is drawn before the first batch is handed out
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    got = [first, *batches] if first is not None else []
    assert [d for d, _ in got] == [d for d, _ in want]
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=4), st.data())
def test_subsample_pairs_draws_the_sample_size_in_pair_order(sizes, data):
    n_pairs = sum(sizes)
    sample_size = data.draw(st.integers(1, n_pairs))
    seed = data.draw(st.integers(0, 2**32 - 1))
    # group g holds pairs (u, u + 1000) with ascending u, unique over groups
    starts = np.cumsum([0, *sizes])
    prepared = [
        (g, g + 1, np.arange(lo, hi), np.arange(lo, hi) + 1000)
        for g, (lo, hi) in enumerate(zip(starts[:-1], starts[1:]))
    ]
    out, scale = _subsample_pairs(prepared, n_pairs, sample_size, np.random.default_rng(seed))
    assert scale == n_pairs / sample_size
    assert sum(len(idx_u) for _, _, idx_u, _ in out) == sample_size
    groups = [g for g, _, _, _ in out]
    assert groups == sorted(set(groups))
    for g, g_next, idx_u, idx_v in out:
        lo, hi = starts[g], starts[g + 1]
        assert g_next == g + 1 and len(idx_u)
        assert np.all((lo <= idx_u) & (idx_u < hi)) and np.all(np.diff(idx_u) > 0)
        assert np.array_equal(idx_v, idx_u + 1000)
    again, _ = _subsample_pairs(prepared, n_pairs, sample_size, np.random.default_rng(seed))
    assert all(np.array_equal(a[2], b[2]) for a, b in zip(out, again))


def test_train_subsamples_pairs_past_the_threshold_and_reruns_identically(monkeypatch):
    sp = _toy_split()
    # 6 x 4 user pairs and 8 x 4 item pairs: 56 pairs, over 10 batches of 2
    pairs = [SimilarPair(U(a), U(b), 1.0) for a in range(6) for b in range(4, 8)]
    pairs += [SimilarPair(I(a), I(b), 1.0) for a in range(8) for b in range(6, 10)]
    pair_set = pair_set_of((0, 1), tuple(pairs))
    cfg = TrainConfig(beta=1.0, batch_size=2, epochs=2, seed=9, learning_rate=0.01)
    samples = []

    def recorded(prepared, n_pairs, sample_size, rng):
        out, scale = _subsample_pairs(prepared, n_pairs, sample_size, rng)
        samples.append((sum(len(idx_u) for _, _, idx_u, _ in out), scale))
        return out, scale

    monkeypatch.setattr(trainer, "_subsample_pairs", recorded)
    results = []
    for _ in range(2):
        model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=10)
        trained, logs, _ = train(model, sp, [pair_set], cfg, _val_cases(sp))
        results.append(({n: a.copy() for n, a in trained.parameters()}, logs))
    assert samples and set(samples) == {(2, 56 / 2)}
    assert [(l.bpr, l.align) for l in results[0][1]] == [(l.bpr, l.align) for l in results[1][1]]
    for name, arr in results[0][0].items():
        assert np.array_equal(arr, results[1][0][name]), name


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(edge_dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize("patience, epochs_run", [(1, 3), (2, 4)])
def test_early_stopping_stops_after_patience_epochs_and_restores_best(
    monkeypatch, patience, epochs_run
):
    # validation AUC peaks at epoch 2; later epochs do not improve on it
    scripted = iter([0.5, 0.7, 0.6, 0.65, 0.6, 0.6])
    monkeypatch.setattr(
        evalkit, "evaluate_cases_mean", lambda model, split_data, cases: (next(scripted), 0.0, [])
    )
    sp = split(ingest(random_bipartite_records(np.random.default_rng(0), 0, 8, 30, 60)), seed=0)
    assert any(_val_cases(sp))
    snapshots = []
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=1)
    cfg = TrainConfig(epochs=6, patience=patience, learning_rate=0.01, edge_dropout=0.0)
    trained, logs, _ = train(
        model, sp, [], cfg, _val_cases(sp),
        callbacks=[lambda log, m: snapshots.append({n: a.copy() for n, a in m.parameters()})],
    )
    assert [log.epoch for log in logs] == list(range(1, epochs_run + 1))
    assert not np.array_equal(snapshots[1]["inter"], snapshots[-1]["inter"])
    for name, arr in trained.parameters():
        assert np.array_equal(arr, snapshots[1][name]), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scatter_add_is_bit_equal_to_sequential_add_at(dtype):
    rng = np.random.default_rng(11)
    n_rows, dim = 40, 5
    rows = [rng.integers(0, n_rows, size=m) for m in (300, 0, 120, 300)]
    values = [rng.normal(size=(len(r), dim)).astype(dtype) for r in rows]
    want = np.zeros((n_rows, dim), dtype=dtype)
    for r, v in zip(rows, values):
        np.add.at(want, r, v)
    got = _scatter_add(n_rows, rows, values)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def _scatter_inputs(draw):
    """(n_rows, row lists) for `_scatter_add`: up to 70,000 rows, indices
    drawn from a small pool so rows repeat, members possibly empty."""
    n_rows = draw(st.integers(1, 70_000))
    pool = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=6))
    members = st.lists(st.sampled_from(pool), max_size=40)
    rows = draw(st.lists(members, min_size=1, max_size=4))
    return n_rows, [np.array(r, dtype=np.int64) for r in rows]


@settings(max_examples=60, deadline=None)
@given(_scatter_inputs(), st.sampled_from([np.float64, np.float32]), st.integers(1, 3))
@example((70_000, [np.array([69_999, 3, 65_536, 69_999]), np.array([], np.int64)]), np.float32, 2)
def test_scatter_add_equals_sequential_add_at_for_any_rows(inputs, dtype, dim):
    n_rows, rows = inputs
    rng = np.random.default_rng(len(rows) + n_rows)
    scales = [10.0 ** rng.integers(-4, 5, size=(len(r), 1)) for r in rows]
    values = [(rng.normal(size=(len(r), dim)) * s).astype(dtype) for r, s in zip(rows, scales)]
    want = np.zeros((n_rows, dim), dtype=dtype)
    for r, v in zip(rows, values):
        np.add.at(want, r, v)
    got = _scatter_add(n_rows, rows, values)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_scatter_add_refuses_what_its_packed_keys_cannot_hold():
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        _scatter_add(1, [np.array([0, 2**31])], [np.zeros((2, 1))])
    # 2**32 contributions, without the memory: zero-stride views
    rows = np.broadcast_to(np.int64(0), (2**32,))
    values = np.broadcast_to(np.zeros((1, 1)), (2**32, 1))
    with pytest.raises(ValueError, match="fewer than 2\\*\\*32"):
        _scatter_add(1, [rows], [values])


def test_bpr_row_gradients_are_the_explicit_products_bit_for_bit():
    rng = np.random.default_rng(12)
    e_u, e_p, e_n = rng.normal(size=(3, 50, 6))
    dl_dx = -rng.random((50, 1))
    block = np.concatenate([e_u, e_p, e_n])
    scores = bpr_scores(block)
    assert scores.tobytes() == np.sum(e_u * (e_p - e_n), axis=1).tobytes()
    got = bpr_row_gradients(dl_dx, block)
    want = np.concatenate([dl_dx * (e_p - e_n), dl_dx * e_u, -dl_dx * e_u])
    assert got is block
    assert got.tobytes() == want.tobytes()


def _three_domain_dataset():
    """Three overlapping domains: neighbouring domains share users and items,
    so the shared table has rows that several domains' triplets touch."""
    rng = np.random.default_rng(31)
    records = []
    for d in range(3):
        records += random_bipartite_records(rng, d, 30, 20, 200, user_base=20 * d, item_base=12 * d)
    return ingest(records)


BATCH_SIZES = (1, BPR_CHUNK - 1, BPR_CHUNK, BPR_CHUNK + 1, 2 * BPR_CHUNK + 3)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["edda", "inter", "intra"]),
    st.sampled_from([np.float64, np.float32]),
    st.lists(st.sampled_from(BATCH_SIZES), min_size=3, max_size=3),
    st.integers(0, 2**16),
)
@example("edda", np.float32, [BPR_CHUNK, BPR_CHUNK + 1, 2 * BPR_CHUNK + 3], 0)
@example("inter", np.float64, [2 * BPR_CHUNK + 3, BPR_CHUNK - 1, 1], 1)
def test_loss_and_gradients_equal_the_explicit_rows_oracle_bit_for_bit(variant, dtype, sizes, seed):
    ds = _three_domain_dataset()
    model = init_model(variant_spec(ModelSpec(d_inter=3, d_intra=2), variant), ds, seed=seed)
    if dtype == np.float32:
        model = as_float32(model)
    rng = np.random.default_rng(seed)
    # one call per domain, each with its own batch size
    triplets = sample_triplets(ds, dict(enumerate(sizes)), rng)
    masks = {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)}
    cfg = TrainConfig(beta=0.0, reg_lambda=1e-4)
    for d, rows in triplets.items():
        total, grads = loss_and_gradients(model, ds, d, rows, [], cfg, masks)
        with mock.patch.object(trainer, "_bpr_part", bpr_part_by_rows):
            want_total, want = loss_and_gradients(model, ds, d, rows, [], cfg, masks)
        assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
        assert grads.keys() == want.keys()
        for name, grad in grads.items():
            assert grad.dtype == dtype and grad.tobytes() == want[name].tobytes(), (d, name)


def _empty_filled_with(fill):
    """A patch of `np.empty`, which `_bpr_part` allocates its buffers with,
    under which every float array it returns holds `fill`."""
    real = np.empty

    def filled(*args, **kwargs):
        out = real(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(fill)
        return out

    return mock.patch.object(np, "empty", side_effect=filled)


@pytest.mark.parametrize("domain", [0, 1])
@pytest.mark.parametrize("variant", ["edda", "ed-mf", "wo-da", "inter", "intra"])
def test_objective_ignores_what_its_buffers_held(variant, domain):
    # the pairs run (0, 1) and (1, 0): either domain's batch meets both ends aligned
    ds, model, triplets, pairs = _instance()
    model = init_model(variant_spec(model.spec, variant), ds, seed=1)
    prepared = trainer._prepare_pairs(model, pairs if variant in ("edda", "ed-mf") else [])
    assert bool(prepared) == (variant in ("edda", "ed-mf"))
    masks = {d: edge_dropout(g, 0.3, np.random.default_rng(domain)) for d, g in enumerate(ds.domains)}
    cfg = TrainConfig(beta=0.5)
    results = []
    for fill in (0.0, np.nan):
        with _empty_filled_with(fill) as empty:
            *losses, grads = trainer._objective(
                model.propagated(ds, masks), domain, triplets[domain], prepared, cfg, 1.0
            )
        assert empty.called
        assert all(np.isfinite(grad).all() for grad in grads.values())
        results.append((np.array(losses).tobytes(), {name: g.tobytes() for name, g in grads.items()}))
    assert results[0] == results[1]


def _train_dense_dataset(rng):
    """perfbench's train_dense shape: 2 domains of 600 users x 300 items and
    22,500 interactions, overlapping in 30 users and 15 items."""
    records = random_bipartite_records(rng, 0, 600, 300, 22_500)
    records += random_bipartite_records(rng, 1, 600, 300, 22_500, user_base=570, item_base=285)
    return ingest(records)


def test_bpr_part_allocates_less_than_one_batch_block_at_the_train_dense_shape():
    # perfbench's train_dense shape, d = 64, the default batch of 8,092
    rng = np.random.default_rng(0)
    ds = _train_dense_dataset(rng)
    model = init_model(ModelSpec(d_inter=64, d_intra=64), ds, seed=1)
    batch = TrainConfig().batch_size
    block_bytes = batch * 64 * 8
    edges = rng.permutation(ds.graph(0).n_edges)[:batch]
    triplets = _NegativeSampler(ds.graph(0)).triplets(edges, rng)
    enc = model.propagated(ds)
    enc.intra(0)  # the encoding's own table, built on first use
    tracemalloc.start()
    try:
        l_bpr, d_g, d_q = _bpr_part(enc, 0, triplets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two gradients are its only table-sized arrays, both tables share one
    # value block and the chunk rows; the rest is a fraction of one block
    chunk_bytes = 2 * BPR_CHUNK * 64 * 8
    assert peak < d_g.nbytes + d_q.nbytes + block_bytes + chunk_bytes + 0.4 * block_bytes
    want = bpr_part_by_rows(enc, 0, triplets)
    assert l_bpr == want[0] and d_g.tobytes() == want[1].tobytes()
    assert d_q.tobytes() == want[2].tobytes()


def test_objective_frees_the_alignment_part_before_the_ranking_part(monkeypatch):
    # the train_dense shape with one pair per node in each direction, as k = 1
    # mines them; a (pairs, d) block of gathered rows or values is 0.44 MiB
    rng = np.random.default_rng(0)
    ds = _train_dense_dataset(rng)
    model = init_model(ModelSpec(d_inter=64, d_intra=64), ds, seed=1)

    def pair_set(d, d_prime):
        src, dst = ds.graph(d), ds.graph(d_prime)
        kinds = np.repeat([int(NodeKind.USER), int(NodeKind.ITEM)], [src.n_users, src.n_items])
        sources = np.concatenate([src.user_ids, src.item_ids])
        targets = np.concatenate([rng.choice(dst.user_ids, src.n_users), rng.choice(dst.item_ids, src.n_items)])
        return SimilarPairSet((d, d_prime), kinds, sources, targets, np.ones(len(kinds)))

    prepared = trainer._prepare_pairs(model, [pair_set(0, 1), pair_set(1, 0)])
    pair_block = max(len(idx_u) for _, _, idx_u, _ in prepared) * 64 * 8
    batch = TrainConfig().batch_size
    triplets = _NegativeSampler(ds.graph(0)).triplets(rng.permutation(ds.graph(0).n_edges)[:batch], rng)
    grad_bytes = sum(arr.nbytes for _, arr in model.parameters())
    enc = model.propagated(ds)
    enc.intra(0)  # the encoding's own table, built on first use
    held = []

    def recording(*args):  # what `_objective` holds as its ranking part starts
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return _bpr_part(*args)

    monkeypatch.setattr(trainer, "_bpr_part", recording)

    def ranking_peak(pairs):  # from the ranking part's start to the step's end
        tracemalloc.start()
        try:
            trainer._objective(enc, 0, triplets, pairs, TrainConfig(), 1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    without_pairs, with_pairs = ranking_peak([]), ranking_peak(prepared)
    # beside the step's gradients: kept alive, the alignment's rows,
    # differences and values are 7 blocks
    assert held[1] < grad_bytes + pair_block
    assert with_pairs < without_pairs + pair_block


def test_objective_frees_the_ranking_gradients_before_the_l2_term(monkeypatch):
    # the train_dense shape: the squared norm and the L2 term each make one
    # table-sized temporary at a time, which fits in the room of the ranking
    # part's two gradients (the shared table's and domain 0's) once they are freed
    rng = np.random.default_rng(0)
    ds = _train_dense_dataset(rng)
    model = init_model(ModelSpec(d_inter=64, d_intra=64), ds, seed=1)
    batch = TrainConfig().batch_size
    triplets = _NegativeSampler(ds.graph(0)).triplets(rng.permutation(ds.graph(0).n_edges)[:batch], rng)
    enc = model.propagated(ds)
    enc.intra(0)  # the encoding's own table, built on first use
    transpose, held = enc.transpose, []

    def recording(*args):  # what the step holds as the transpose returns
        transpose(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()

    monkeypatch.setattr(enc, "transpose", recording)
    tracemalloc.start()
    try:
        trainer._objective(enc, 0, triplets, [], TrainConfig(), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # kept alive, the two gradients would put the largest temporary on top
    assert peak < held[0] + 0.25 * model.intra[0].matrix.nbytes


def test_train_holds_the_same_memory_as_every_step_starts(monkeypatch):
    # two domains of 40 interactions in batches of 10: every step's triplets,
    # masks and encoding have the same size, so what is traced as a step
    # starts is the same but for small objects numpy and scipy keep (2% of a
    # parameter set); gradients that outlived a step would add a parameter set
    records = [(0, u, i) for u in range(8) for i in range(10) if (u + i) % 2 == 0]
    records += [(1, u + 4, i + 6) for u in range(8) for i in range(10) if (u + i) % 2 == 1]
    sp = split(ingest(records), ratios=(1, 0, 0), seed=0)
    model = init_model(ModelSpec(d_inter=256, d_intra=256), sp.full, seed=1)
    cfg = TrainConfig(batch_size=10, epochs=2, seed=2, learning_rate=0.01)
    objective = trainer._objective
    held = []

    def recording(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return objective(*args)

    monkeypatch.setattr(trainer, "_objective", recording)
    tracemalloc.start()
    try:
        train(model, sp, [], cfg, _val_cases(sp))
    finally:
        tracemalloc.stop()
    assert len(held) == 2 * 8
    assert max(held) - min(held) < 0.1 * sum(arr.nbytes for _, arr in model.parameters())


@pytest.mark.parametrize("dims", [(5, 3), (3, 5)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("users", ["one", "distinct"])
def test_bpr_part_sums_one_shared_user_or_only_distinct_users_bit_for_bit(users, dtype, dims):
    # domain 0 has more users than one chunk holds; domain 1 overlaps it, so
    # the shared table has rows that domain 0's batch does not touch
    rng = np.random.default_rng(7)
    records = random_bipartite_records(rng, 0, BPR_CHUNK + 40, 30, 4 * BPR_CHUNK)
    records += random_bipartite_records(rng, 1, 60, 30, 400, user_base=BPR_CHUNK, item_base=20)
    ds = ingest(records)
    model = init_model(ModelSpec(d_inter=dims[0], d_intra=dims[1]), ds, seed=2)
    if dtype == np.float32:
        model = as_float32(model)
    graph = ds.graph(0)
    if users == "one":  # one user's edges, repeated over three chunks
        edges = np.resize(np.flatnonzero(graph.edge_user == graph.edge_user[0]), 2 * BPR_CHUNK + 3)
    else:  # each user's first edge
        edges = np.unique(graph.edge_user, return_index=True)[1]
    triplets = _NegativeSampler(graph).triplets(edges, rng)
    n_users = len(np.unique(triplets[0]))
    assert (n_users == 1) if users == "one" else (n_users == triplets.shape[1] > BPR_CHUNK)
    enc = model.propagated(ds, {d: edge_dropout(g, 0.3, rng) for d, g in enumerate(ds.domains)})
    with _empty_filled_with(np.nan):
        got = _bpr_part(enc, 0, triplets)
    want = bpr_part_by_rows(enc, 0, triplets)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for grad, expected in zip(got[1:], want[1:]):
        assert grad.dtype == dtype and grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("epochs, patience, restores", [(3, None, False), (4, 1, True), (0, None, False)])
def test_train_returns_the_validation_rows_of_the_parameters_it_returns(
    monkeypatch, epochs, patience, restores
):
    sp = split(ingest(random_bipartite_records(np.random.default_rng(3), 0, 8, 30, 60)), seed=0)
    cases = _val_cases(sp)
    real = evalkit.evaluate_cases_mean
    scripted = iter([0.5, 0.7, 0.6, 0.6])  # under patience 1: epoch 2 is restored after epoch 3
    seen = []

    def evaluated(model, split_data, case_sets):
        _, recall, rows = real(model, split_data, case_sets)
        seen.append(rows)
        return next(scripted), recall, rows

    monkeypatch.setattr(evalkit, "evaluate_cases_mean", evaluated)
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=1)
    cfg = TrainConfig(epochs=epochs, patience=patience, learning_rate=0.01, edge_dropout=0.0)
    trained, logs, val_rows = train(model, sp, [], cfg, cases)
    assert len(logs) == (3 if restores else epochs)
    if epochs == 0:
        assert val_rows == [] and seen == []
        return
    assert val_rows == evalkit.evaluate_all(trained, sp, cases)
    assert val_rows == seen[1 if restores else -1]
    if restores:  # the rows of the last epoch run would be wrong
        assert seen[1] != seen[-1]
