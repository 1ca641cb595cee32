import logging

import numpy as np
import pytest

from edda.edmodel import EDModel, ModelSpec, init_model
from edda import evalkit
from edda.encoders import GRecConfig, node_keys
from edda.evalkit import split
from edda.mdgraph import NodeId, NodeKind, ingest
from edda.trainer import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    _NegativeSampler,
    _bpr_row_gradients,
    _scatter_add,
    adam_step,
    bpr_loss,
    edge_dropout,
    gradients,
    total_loss,
    train,
)
from edda.walker import SimilarPair, SimilarPairSet

from oracles import (
    finite_difference_gradient,
    oracle_total_loss,
    random_bipartite_records,
)

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def sample_triplets(ds, counts, rng):
    """Per domain d, triplets for `counts[d]` training edges drawn uniformly
    with replacement, as the (3, n) local index rows `total_loss` takes."""
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
        SimilarPairSet(
            (0, 1),
            (
                SimilarPair(U(0), U(5), 0.9),
                SimilarPair(I(0), I(6), 0.8),
            ),
        ),
        SimilarPairSet((1, 0), (SimilarPair(U(5), U(0), 0.9),)),
    ]
    return ds, model, triplets, pairs


def _row(table, node):
    return int(table.rows(node_keys([node]))[0])


def test_bpr_loss_values():
    assert bpr_loss(np.zeros(4), np.zeros(4)) == pytest.approx(4 * np.log(2))
    assert bpr_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(0.31326, abs=1e-5)
    big = bpr_loss(np.array([50.0]), np.array([0.0]))
    bigger = bpr_loss(np.array([100.0]), np.array([0.0]))
    assert bigger < big < 1e-20


def test_bpr_loss_is_stable_for_large_gaps():
    assert np.isfinite(bpr_loss(np.array([-1000.0]), np.array([1000.0])))


def test_bpr_loss_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        bpr_loss(np.zeros(2), np.zeros(3))


ALIGN_ONLY = TrainConfig(beta=1.0, reg_lambda=0.0, edge_dropout=0.0)


def alignment_loss(model, dataset, pair_sets):
    """The alignment term alone: total_loss with beta=1, no ranking or regularization."""
    return total_loss(model, dataset, {}, pair_sets, ALIGN_ONLY)


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
    pairs = [SimilarPairSet((0, 1), (SimilarPair(U(0), U(1), 1.0),))]
    # projected difference (1, -2): squared norm 5
    assert alignment_loss(model, ds, pairs) == pytest.approx(5.0)

    model.intra[1].matrix[_row(model.intra[1], U(1))] = [1.0, 0.0]
    assert alignment_loss(model, ds, pairs) == pytest.approx(0.0)


def test_alignment_loss_missing_node():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    model = init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=0)
    pairs = [SimilarPairSet((0, 1), (SimilarPair(U(9), U(1), 1.0),))]
    with pytest.raises(KeyError, match="missing"):
        alignment_loss(model, ds, pairs)


def test_total_loss_decomposition():
    ds, model, triplets, pairs = _instance()
    cfg0 = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    scores = []
    enc = model.propagated(ds)
    for d, rows in triplets.items():
        nodes = ds.graph(d).node_ids()
        for u, p, n in rows.T:
            z_u, z_p, z_n = enc.represent(d, node_keys([nodes[u], nodes[p], nodes[n]]))
            scores.append((float(np.dot(z_u, z_p)), float(np.dot(z_u, z_n))))
    pos, neg = np.array([s for s, _ in scores]), np.array([s for _, s in scores])
    assert total_loss(model, ds, triplets, [], cfg0) == pytest.approx(
        bpr_loss(pos, neg), rel=1e-12
    )

    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4, edge_dropout=0.0)
    full = total_loss(model, ds, triplets, pairs, cfg)
    recomposed = (
        total_loss(model, ds, triplets, [], cfg0)
        + cfg.beta * alignment_loss(model, ds, pairs)
        + cfg.reg_lambda * model.squared_norm()
    )
    assert full == pytest.approx(recomposed, rel=1e-12)


def test_total_loss_zero_model_regularizer():
    ds, _, triplets, _ = _instance()
    spec = ModelSpec(d_inter=3, d_intra=2, init_scale=0.0)
    model = init_model(spec, ds, seed=0)
    cfg = TrainConfig(beta=0.0, reg_lambda=0.5, edge_dropout=0.0)
    assert total_loss(model, ds, triplets, [], cfg) == pytest.approx(
        sum(rows.shape[1] for rows in triplets.values()) * np.log(2)
    )


def test_total_loss_matches_dense_oracle():
    ds, model, triplets, pairs = _instance(seed=3)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4, edge_dropout=0.0)
    got = total_loss(model, ds, triplets, pairs, cfg)
    want = oracle_total_loss(model, ds, triplets, pairs, cfg)
    assert got == pytest.approx(want, rel=1e-10)


def test_total_loss_matches_dense_oracle_under_masks():
    ds, model, triplets, pairs = _instance(seed=4)
    rng = np.random.default_rng(5)
    masks = {d: edge_dropout(g, 0.4, rng) for d, g in enumerate(ds.domains)}
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4)
    got = total_loss(model, ds, triplets, pairs, cfg, masks=masks)
    want = oracle_total_loss(model, ds, triplets, pairs, cfg, masks=masks)
    assert got == pytest.approx(want, rel=1e-10)


def test_gradient_isolation_exact():
    ds, model, _, _ = _instance()
    rng = np.random.default_rng(7)
    only0 = sample_triplets(ds, {0: 8}, rng)
    cfg = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    grads = gradients(model, ds, only0, [], cfg)
    assert np.all(grads["intra[1]"] == 0.0)
    assert np.any(grads["intra[0]"] != 0.0)
    nodes = ds.graph(0).node_ids()
    touched = {_row(model.inter, nodes[u]) for u in only0[0][0]}
    assert all(np.any(grads["inter"][row] != 0.0) for row in touched)


def test_gradient_zero_model_is_zero():
    # all scores and representations vanish, so the chain rule yields zeros
    ds, _, _, _ = _instance()
    spec = ModelSpec(d_inter=3, d_intra=2, init_scale=0.0)
    model = init_model(spec, ds, seed=0)
    cfg = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    triplet = sample_triplets(ds, {0: 1}, np.random.default_rng(0))
    grads = gradients(model, ds, triplet, [], cfg)
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_gradient_hand_case_mf():
    # one triplet, MF encoder, dims 1: hand-derivable chain rule
    ds = ingest([(0, 0, 0), (0, 1, 1)])
    spec = ModelSpec(d_inter=1, d_intra=1, encoder="mf")
    model = init_model(spec, ds, seed=0)
    e = {n: float(model.inter.row(n)[0]) for n in ds.all_nodes}
    f = {n: float(model.intra[0].row(n)[0]) for n in ds.graph(0).node_ids()}
    cfg = TrainConfig(beta=0.0, reg_lambda=0.0, edge_dropout=0.0)
    t = {0: np.array([[ds.graph(0).local_index(n)] for n in (U(0), I(0), I(1))])}
    x = (e[U(0)] * e[I(0)] + f[U(0)] * f[I(0)]) - (e[U(0)] * e[I(1)] + f[U(0)] * f[I(1)])
    g = -1.0 / (1.0 + np.exp(x))
    grads = gradients(model, ds, t, [], cfg)
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
    grads = gradients(model, ds, triplets, pairs, cfg, masks=masks)

    rng = np.random.default_rng(17)
    params = dict(model.parameters())
    checked = 0
    for name, arr in params.items():
        for flat_index in rng.choice(arr.size, size=min(8, arr.size), replace=False):
            fd = finite_difference_gradient(
                lambda: total_loss(model, ds, triplets, pairs, cfg, masks=masks),
                arr,
                int(flat_index),
            )
            analytic = grads[name].reshape(-1)[int(flat_index)]
            denom = max(abs(fd), abs(analytic), 1e-10)
            assert abs(fd - analytic) / denom < 1e-4, (name, flat_index)
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
        grads = gradients(model, ds, triplets, [], cfg)
        rng = np.random.default_rng(29)
        for name, arr in model.parameters():
            for flat_index in rng.choice(arr.size, size=min(5, arr.size), replace=False):
                fd = finite_difference_gradient(
                    lambda: total_loss(model, ds, triplets, [], cfg),
                    arr,
                    int(flat_index),
                )
                analytic = grads[name].reshape(-1)[int(flat_index)]
                denom = max(abs(fd), abs(analytic), 1e-10)
                assert abs(fd - analytic) / denom < 1e-4, (variant_spec.encoder, name)


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
    u0, i0, i1 = (graph.local_index(n) for n in (U(0), I(0), I(1)))
    assert np.all(out[1:, out[0] == u0] == [[i0], [i1]])
    assert sampler.triplets(np.array([], dtype=np.int64), rng).shape == (3, 0)


def test_sample_triplets_negative_uniformity():
    # user 0 interacted with item 0 among items {0,1,2}: negatives split 50/50
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2)])
    graph = ds.graph(0)
    rng = np.random.default_rng(1)
    out = sample_triplets(ds, {0: 100_000}, rng)[0]
    negs = graph.item_ids[out[2, out[0] == graph.local_index(U(0))] - graph.n_users]
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
    assert np.all(out[0] == ds.graph(0).local_index(U(1)))
    warnings = [rec.message for rec in caplog.records if "every item" in rec.message]
    assert warnings == ["domain 0: user 0 interacts with every item, skipping"]


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


def test_adam_determinism():
    ds, model, triplets, pairs = _instance(seed=31)
    cfg = TrainConfig(beta=0.03, reg_lambda=1e-4, edge_dropout=0.0)
    runs = []
    for _ in range(2):
        m = model.copy()
        state = AdamState.for_model(m)
        for _ in range(3):
            grads = gradients(m, ds, triplets, pairs, cfg)
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
    trained, logs = train(model, sp, [], TrainConfig(epochs=0))
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
    _, logs = train(model, sp, [], cfg)
    drops = sum(b.bpr < a.bpr for a, b in zip(logs, logs[1:]))
    assert drops / (len(logs) - 1) >= 0.9


def test_train_large_beta_pulls_pair_together():
    sp = _toy_split()
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=4)
    pair = SimilarPairSet((0, 1), (SimilarPair(U(4), U(5), 1.0),))

    def pair_distance(m):
        return float(
            np.linalg.norm(
                m.intra[0].row(U(4)) @ m.proj[0] - m.intra[1].row(U(5)) @ m.proj[1]
            )
        )

    before = pair_distance(model)
    cfg = TrainConfig(
        beta=1e3, reg_lambda=0.0, learning_rate=0.02, epochs=60,
        edge_dropout=0.0, seed=5,
    )
    trained, _ = train(model, sp, [pair], cfg)
    assert pair_distance(trained) <= before / 10.0


def test_train_determinism():
    sp = _toy_split()
    results = []
    for _ in range(2):
        model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=6)
        cfg = TrainConfig(epochs=5, seed=7, edge_dropout=0.3, learning_rate=0.01)
        trained, logs = train(model, sp, [], cfg)
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
    with pytest.raises(TrainingDiverged):
        train(model, sp, [], TrainConfig(epochs=1, edge_dropout=0.0))


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
        evalkit, "evaluate_cases_mean", lambda model, split_data, cases: (next(scripted), 0.0, 1)
    )
    sp = split(ingest(random_bipartite_records(np.random.default_rng(0), 0, 8, 30, 60)), seed=0)
    assert any(evalkit.build_all_cases(sp, which="validation"))
    snapshots = []
    model = init_model(ModelSpec(d_inter=4, d_intra=4), sp.full, seed=1)
    cfg = TrainConfig(epochs=6, patience=patience, learning_rate=0.01, edge_dropout=0.0)
    trained, logs = train(
        model, sp, [], cfg,
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


def test_bpr_row_gradients_are_the_explicit_products_bit_for_bit():
    rng = np.random.default_rng(12)
    e_u, e_p, e_n = rng.normal(size=(3, 50, 6))
    dl_dx = -rng.random((50, 1))
    block = np.concatenate([e_u, e_p, e_n])
    got = _bpr_row_gradients(dl_dx, block)
    want = np.concatenate([dl_dx * (e_p - e_n), dl_dx * e_u, -dl_dx * e_u])
    assert got is block
    assert got.tobytes() == want.tobytes()
