import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edda import evalkit
from edda.edmodel import EDModel, ModelSpec, init_model
from edda.encoders import EmbeddingTable
from edda.evalkit import (
    auc_from_scores,
    build_all_cases,
    build_cases,
    domain_size,
    evaluate_all,
    format_report,
    out_of_domain_interaction,
    recall_at_1_from_scores,
    split,
)
from edda.mdgraph import NodeId, NodeKind, ingest

from oracles import (
    auc_by_user_blocks,
    auc_from_scored_cases,
    dataset_records,
    eval_cases,
    nodes_of,
    pairwise_auc,
    random_bipartite_records,
    recall_at_1_from_scored_cases,
    split_records,
    zeroed,
)

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def test_split_ten_interactions_is_7_1_2():
    records = [(0, 0, i) for i in range(10)]
    sp = split(ingest(records), seed=0)
    assert sp.train.graph(0).n_edges == 7
    assert len(sp.validation[0]) == 1
    assert len(sp.test[0]) == 2


def test_split_single_interaction_goes_to_train():
    sp = split(ingest([(0, 0, 0), (0, 1, 1), (0, 1, 2)]), seed=0)
    assert [0, 0, 0] in dataset_records(sp.train).tolist()


def test_split_partitions_each_domain():
    rng = np.random.default_rng(0)
    records = random_bipartite_records(rng, 0, 12, 20, 150)
    records += random_bipartite_records(rng, 1, 8, 10, 60)
    ds = ingest(records)
    sp = split(ds, seed=1)
    for d, graph in enumerate(ds.domains):
        train_pairs = {(u, i) for dd, u, i in dataset_records(sp.train).tolist() if dd == d}
        val_pairs = {tuple(row) for row in sp.validation[d]}
        test_pairs = {tuple(row) for row in sp.test[d]}
        full_pairs = {(int(u), int(i)) for u, i in graph.user_item_pairs()}
        assert train_pairs | val_pairs | test_pairs == full_pairs
        assert not (train_pairs & val_pairs)
        assert not (train_pairs & test_pairs)
        assert not (val_pairs & test_pairs)
        # every user keeps a training interaction
        assert set(sp.train.graph(d).user_ids) == set(graph.user_ids)


def test_split_determinism():
    records = [(0, u, i) for u in range(5) for i in range(6)]
    ds = ingest(records)
    a, b = split(ds, seed=3), split(ds, seed=3)
    assert np.array_equal(dataset_records(a.train), dataset_records(b.train))
    assert all(np.array_equal(x, y) for x, y in zip(a.validation, b.validation))
    c = split(ds, seed=4)
    assert not np.array_equal(dataset_records(a.train), dataset_records(c.train))


def _eval_fixture():
    # user 0 is the only evaluated user; users 1..14 hold one training
    # interaction each, so items 12..25 are clean negatives for user 0
    records = [(0, 0, i) for i in range(12)]
    records += [(0, u, 11 + u) for u in range(1, 15)]
    ds = ingest(records)
    sp = split(ds, seed=0)
    return ds, sp


def _mf_model_with_item_scores(ds, item_value):
    """MF model with user rows = 1, intra zeroed, item rows set per id."""
    spec = ModelSpec(d_inter=1, d_intra=1, encoder="mf")
    model = zeroed(init_model(spec, ds, seed=0))
    rows = np.array(
        [[item_value(n.id)] if n.kind == NodeKind.ITEM else [1.0] for n in nodes_of(ds.keys)]
    )
    model.inter = EmbeddingTable(ds.keys, rows)
    return model


def test_auc_and_recall_extremes():
    ds, sp = _eval_fixture()
    test_items = {int(i) for _, i in sp.test[0]}

    best = _mf_model_with_item_scores(ds, lambda i: 1.0 if i in test_items else -1.0)
    assert evaluate_all(best, sp, build_all_cases(sp))[0][1:3] == (1.0, 1.0)

    worst = _mf_model_with_item_scores(ds, lambda i: -1.0 if i in test_items else 1.0)
    assert evaluate_all(worst, sp, build_all_cases(sp))[0][1:3] == (0.0, 0.0)


def test_auc_all_ties_is_half():
    ds, sp = _eval_fixture()
    zero = zeroed(init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=0))
    assert evaluate_all(zero, sp, build_all_cases(sp))[0][1] == 0.5


def test_tied_top_score_with_lower_id_negative_is_a_miss():
    tied = np.zeros((1, 10))
    ids_above = np.arange(1, 11)[None]
    # positive id 0 wins every tie; positive id 5 loses to negative id 2
    assert recall_at_1_from_scores(np.zeros(1), tied, np.array([0]), ids_above) == 1.0
    ids_mixed = np.array([[2, 7, 8, 9, 10, 11, 12, 13, 14, 15]])
    assert recall_at_1_from_scores(np.zeros(1), tied, np.array([5]), ids_mixed) == 0.0

    # model level: all-zero scores tie everywhere; in this fixture the
    # positive always carries the smallest id, so every tie is a hit
    ds, sp = _eval_fixture()
    zero = zeroed(init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=0))
    cases = build_cases(sp, 0, "test")
    assert len(cases) and np.all(cases.positives < cases.negatives.min(axis=1))
    assert evaluate_all(zero, sp, build_all_cases(sp))[0][2] == 1.0


def test_auc_matches_pairwise_oracle_with_one_inversion():
    pos = np.array([3.0, 2.0, 4.0])
    neg = np.array([[0.5], [2.5], [1.0]])  # the second case is the inversion
    got = auc_from_scores(np.zeros(3, dtype=np.int64), pos, neg)
    want = pairwise_auc([3.0, 2.0, 4.0], [0.5, 2.5, 1.0])
    assert got == want == pytest.approx(8 / 9)


@pytest.mark.parametrize("seed", range(8))
def test_metrics_match_bruteforce_oracles_exactly(seed):
    rng = np.random.default_rng(seed)
    n_cases = int(rng.integers(1, 50))
    scored_auc = []
    scored_recall = []
    for _ in range(n_cases):
        user = int(rng.integers(6))
        # integer scores force ties with positive probability
        pos = float(rng.integers(0, 6))
        negs = rng.integers(0, 6, size=10).astype(float)
        pos_id = int(rng.integers(100))
        neg_ids = rng.choice(np.setdiff1d(np.arange(100), [pos_id]), 10, replace=False)
        scored_auc.append((user, pos, negs))
        scored_recall.append((pos, pos_id, negs, neg_ids))

    by_user = {}
    for user, pos, negs in scored_auc:
        by_user.setdefault(user, ([], []))
        by_user[user][0].append(pos)
        by_user[user][1].extend(negs.tolist())
    expected_auc = np.mean(
        [pairwise_auc(p, n) for _, (p, n) in sorted(by_user.items())]
    )
    users = np.array([u for u, _, _ in scored_auc])
    pos_scores = np.array([p for _, p, _ in scored_auc])
    neg_scores = np.stack([n for _, _, n in scored_auc])
    assert auc_from_scores(users, pos_scores, neg_scores) == expected_auc
    assert auc_from_scored_cases(scored_auc) == expected_auc

    hits = 0
    for pos, pos_id, negs, neg_ids in scored_recall:
        top = sorted(
            [(pos, pos_id)] + list(zip(negs, neg_ids)), key=lambda t: (-t[0], t[1])
        )[0]
        hits += top[1] == pos_id
    pos_ids = np.array([i for _, i, _, _ in scored_recall])
    neg_ids = np.stack([ids for _, _, _, ids in scored_recall])
    got = recall_at_1_from_scores(pos_scores, neg_scores, pos_ids, neg_ids)
    assert got == hits / n_cases
    assert recall_at_1_from_scored_cases(scored_recall) == hits / n_cases


_FEW_SCORES = [0.0, -0.0, 1.0, 1.5, -2.0, 1e30, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(1, 12),
    st.sampled_from([np.float64, np.float32]),
    st.booleans(),
)
def test_auc_equals_the_per_user_loop_bit_for_bit(seed, n_cases, width, dtype, few_values):
    rng = np.random.default_rng(seed)
    users = rng.choice([0, 3, 7, 2**62 - 1, 11, 5], size=n_cases)  # unsorted, repeated
    if few_values:  # exact ties, signed zeros, infinities and NaN
        values = np.array(_FEW_SCORES, dtype=dtype)
        pos = rng.choice(values, size=n_cases)
        neg = rng.choice(values, size=(n_cases, width))
    else:
        pos = rng.normal(size=n_cases).astype(dtype)
        neg = rng.normal(size=(n_cases, width)).astype(dtype)
    assert auc_from_scores(users, pos, neg) == auc_by_user_blocks(users, pos, neg)


def test_random_scores_recall_near_one_eleventh():
    rng = np.random.default_rng(9)
    n = 20_000
    neg_ids = np.tile(np.arange(1, 11), (n, 1))
    got = recall_at_1_from_scores(rng.random(n), rng.random((n, 10)), np.zeros(n), neg_ids)
    assert got == pytest.approx(1 / 11, abs=0.01)


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(10)
    users = rng.integers(4, size=40)
    pos, neg = rng.normal(size=40), rng.normal(size=(40, 10))
    def transform(x):
        return np.exp(2.0 * np.asarray(x)) + 1.0
    assert auc_from_scores(users, pos, neg) == pytest.approx(
        auc_from_scores(users, transform(pos), transform(neg))
    )


def test_eval_cases_invariants_and_freezing():
    ds, sp = _eval_fixture()
    cases = build_cases(sp, 0, "test", eval_seed=5)
    positives = {}
    for u, i in ds.graph(0).user_item_pairs():
        positives.setdefault(u, set()).add(i)
    assert len(cases) and cases.negatives.shape == (len(cases), 10)
    for user, positive, negatives in zip(cases.users, cases.positives, cases.negatives):
        assert len(set(negatives)) == 10
        assert positive not in negatives
        for neg in negatives:
            assert neg not in positives[user]
    again = build_cases(sp, 0, "test", eval_seed=5)
    assert np.array_equal(cases.negatives, again.negatives)
    different = build_cases(sp, 0, "test", eval_seed=6)
    assert not np.array_equal(cases.negatives, different.negatives)


def test_eval_cases_skip_user_without_negatives(caplog):
    # domain has 11 items; user 0 interacted with 2, leaving only 9 eligible
    records = [(0, 0, 0), (0, 0, 1)] + [(0, 1, i) for i in range(2, 11)]
    ds = ingest(records)
    sp = split(ds, seed=0)
    sp.test[0] = np.array([[0, 1]])
    with caplog.at_level(logging.WARNING):
        cases = build_cases(sp, 0, "test")
    assert len(cases) == 0
    assert any("eligible negatives" in rec.message for rec in caplog.records)


def test_skipped_cases_warn_once_per_case_in_held_out_order(caplog):
    # 11 items: user 0 has 9 eligible, user 1 exactly 10, user 2 has 8
    records = [(0, 0, 0), (0, 0, 1), (0, 1, 2), (0, 2, 0), (0, 2, 1), (0, 2, 2)]
    records += [(0, 3, i) for i in range(3, 11)]
    ds = ingest(records)
    sp = split(ds, seed=0)
    sp.test[0] = np.array([[0, 0], [1, 2], [2, 1], [0, 1], [2, 0]])
    with caplog.at_level(logging.WARNING, logger="edda.evalkit"):
        cases = build_cases(sp, 0, "test", eval_seed=4)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"domain 0: user {user} has only {n} eligible negatives, case skipped"
        for user, n in [(0, 9), (2, 8), (0, 9), (2, 8)]
    ]
    assert [rec.args[0] for rec in caplog.records] == [0] * 4
    negatives = map(tuple, cases.negatives.tolist())
    got = list(zip(cases.users.tolist(), cases.positives.tolist(), negatives))
    assert got == eval_cases(ds.graph(0), sp.test[0], 0, 4)
    assert [case[:2] for case in got] == [(1, 2)]


def _numpy_choice(entropy, pop):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy))
    return rng.choice(pop, size=10, replace=False)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**70),
    st.integers(0, 5),
    st.lists(
        st.tuples(
            st.integers(0, 2**62 - 1), st.integers(0, 2**62 - 1), st.integers(2**31, 2**32 - 1)
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_choice_replay_equals_numpy_where_lemire_rejects_half_the_draws(seed, d, rows):
    users, items, pops = (np.array(col, dtype=np.int64) for col in zip(*rows))
    got = evalkit._choice_ranks([seed, d, users, items], pops)
    want = [_numpy_choice((seed, d, u, i), pop) for u, i, pop in rows]
    assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))


@pytest.mark.parametrize("pop", [10, 11, 12, 1000, 2**32 - 1, 2**32])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_choice_replay_equals_numpy_at_the_population_edges(pop, seed):
    users = np.array([0, 1, 2**32 - 1, 2**32, 2**62 - 1])
    items = np.array([0, 2**40, 7, 2**32, 3])
    got = evalkit._choice_ranks([seed, 1, users, items], np.full(len(users), pop))
    want = [_numpy_choice((seed, 1, int(u), int(i)), pop) for u, i in zip(users, items)]
    assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))


def test_domain_size():
    ds = ingest([(0, 0, 0)] * 1 + [(0, 0, i) for i in range(3)] + [(1, 0, i) for i in range(7)])
    assert domain_size(ds, 0) == pytest.approx(0.3)
    assert domain_size(ds, 1) == pytest.approx(0.7)
    assert domain_size(ingest([(0, 0, 0)]), 0) == 1.0
    assert sum(domain_size(ds, d) for d in range(2)) == 1.0


def test_out_of_domain_interaction():
    # user 0: 2 interactions in domain 0, 4 elsewhere -> 4 / 2 = 2.0
    records = [(0, 0, 0), (0, 0, 1)] + [(1, 0, i) for i in range(4)]
    ds = ingest(records)
    assert out_of_domain_interaction(ds, 0) == pytest.approx(2.0)
    assert out_of_domain_interaction(ds, 1) == pytest.approx(0.5)

    lonely = ingest([(0, 0, 0), (1, 1, 1)])
    assert out_of_domain_interaction(lonely, 0) == 0.0
    assert out_of_domain_interaction(ingest([(0, 0, 0)]), 0) == 0.0

    # three domains over overlapping user ranges, against a per-record count
    rng = np.random.default_rng(3)
    records = [
        rec
        for d in range(3)
        for rec in random_bipartite_records(rng, d, 8, 6, 20, user_base=3 * d)
    ]
    ds = ingest(records)
    for d in range(3):
        users = {u for dd, u, _ in records if dd == d}
        outside = sum(1 for dd, u, _ in records if dd != d and u in users)
        assert out_of_domain_interaction(ds, d) == outside / ds.graph(d).n_edges


def test_report_format():
    rows = [(0, 0.9, 0.5, 10), (1, 0.7, 0.3, 20)]
    text = format_report(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + 2 domains + AVG
    assert lines[-1].startswith("AVG\t0.800000\t0.400000\t30")


def test_evaluate_all_row_count():
    ds, sp = _eval_fixture()
    model = init_model(ModelSpec(d_inter=2, d_intra=2), ds, seed=1)
    rows = evaluate_all(model, sp, build_all_cases(sp))
    assert len(rows) == ds.num_domains
    text = format_report(rows)
    assert len(text.strip().split("\n")) == ds.num_domains + 2


def test_evaluation_holds_one_domains_joined_matrix_at_a_time():
    # 3 domains of 1,500 users x 750 items, d = 64 + 64: a domain's
    # [inter | intra(d)] matrix is 2.1 MiB, one block of negatives 2.5 MiB
    rng = np.random.default_rng(0)
    records = []
    for d in range(3):
        records += random_bipartite_records(rng, d, 1500, 750, 5000, 1500 * d, 750 * d)
    ds = ingest(records)
    sp = split(ds, seed=0)
    cases = build_all_cases(sp, "test")
    model = init_model(ModelSpec(d_inter=64, d_intra=64), ds, seed=1)
    tracemalloc.start()
    try:
        rows = evaluate_all(model, sp, cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [n for *_, n in rows] == [len(c) for c in cases]
    row_bytes = 128 * 8
    joined = max(len(table) for table in model.intra) * row_bytes
    negatives = evalkit.SCORE_CHUNK * evalkit.NUM_EVAL_NEGATIVES * row_bytes
    # the inter encoding, one block of negatives, one domain's intra encoding
    # and joined matrix, and as much again as the joined matrix for building
    # it; a second domain's joined matrix and intra encoding exceed this
    assert peak < model.inter.matrix.nbytes + negatives + joined // 2 + 2 * joined


def test_an_unknown_split_name_raises_instead_of_evaluating_the_test_split():
    ds, sp = _eval_fixture()
    for evaluate in (
        lambda: build_cases(sp, 0, which="valid"),
        lambda: evalkit.build_all_cases(sp, which="valid"),
    ):
        with pytest.raises(ValueError, match="'valid'"):
            evaluate()


# -- properties over random datasets ---------------------------------------------


@st.composite
def split_cases(draw):
    """A random 1-3 domain dataset with a split seed; small item counts leave
    some users fewer than 10 eligible negatives. Ids may take two 32-bit
    words (or straddle 2**32), and a domain may get one more user with
    exactly 10 eligible items, whose first Floyd step draws nothing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for d in range(draw(st.integers(1, 3))):
        n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(1, 25))
        n_edges = draw(st.integers(1, min(n_users * n_items, 80)))
        base = draw(st.sampled_from([0, 5, 100 * (d + 1), 2**32 - 3, 2**62 - 40]))
        domain = random_bipartite_records(rng, d, n_users, n_items, n_edges, base, base)
        items = sorted({i for _, _, i in domain})
        if len(items) >= 12 and draw(st.booleans()):
            taken = rng.choice(items, size=len(items) - 10, replace=False)
            domain += [(d, base + n_users, int(i)) for i in taken]
        records += domain
    return ingest(records), draw(st.integers(0, 2**16))


def _graph_arrays(graph):
    return [
        graph.user_ids, graph.item_ids, graph.edge_user, graph.edge_item,
        graph.user_degree, graph.item_degree, graph.adj_indptr, graph.adj_indices,
    ]


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_split_equals_reference_split(case):
    ds, seed = case
    sp = split(ds, seed=seed)
    train, validation, test = split_records(ds, seed=seed)
    assert dataset_records(sp.train).tolist() == [list(rec) for rec in sorted(train)]
    reference = ingest(train)
    for d in range(ds.num_domains):
        got, want = _graph_arrays(sp.train.graph(d)), _graph_arrays(reference.graph(d))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert sp.validation[d].tolist() == [list(row) for row in validation[d]]
        assert sp.test[d].tolist() == [list(row) for row in test[d]]
        assert not sp.validation[d].flags.writeable and not sp.test[d].flags.writeable


@settings(max_examples=60, deadline=None)
@given(split_cases(), st.sampled_from([(7, 1, 2), (1, 1, 1), (2, 3, 5)]))
def test_split_quotas_hold_per_user(case, ratios):
    ds, seed = case
    sp = split(ds, ratios=ratios, seed=seed)
    for d, graph in enumerate(ds.domains):
        parts = [sp.train.graph(d).user_item_pairs(), sp.validation[d], sp.test[d]]
        for user, n in zip(graph.user_ids, graph.user_degree):
            counts = [int(np.sum(part[:, 0] == user)) for part in parts]
            assert sum(counts) == n
            assert counts[0] >= 1
            for count, r in zip(counts, ratios):
                assert abs(count - n * r / sum(ratios)) < 1


@settings(max_examples=60, deadline=None)
@given(
    split_cases(),
    st.sampled_from(["validation", "test"]),
    st.one_of(st.integers(0, 99), st.integers(2**32 - 1, 2**70)),
)
def test_case_sets_equal_reference_cases(case, which, eval_seed):
    ds, seed = case
    sp = split(ds, seed=seed)
    for d, cases in enumerate(evalkit.build_all_cases(sp, which, eval_seed)):
        held_out = sp.validation[d] if which == "validation" else sp.test[d]
        want = eval_cases(ds.graph(d), held_out, d, eval_seed)
        negatives = map(tuple, cases.negatives.tolist())
        got = list(zip(cases.users.tolist(), cases.positives.tolist(), negatives))
        assert got == want
        assert cases.domain == d and len(cases) == len(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([np.float64, np.float32]))
def test_array_metrics_equal_list_oracles(seed, n_cases, dtype):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 6, size=n_cases)
    # integer scores force ties with positive probability
    pos = rng.integers(0, 6, size=n_cases).astype(dtype)
    neg = rng.integers(0, 6, size=(n_cases, 10)).astype(dtype)
    pos_ids = rng.integers(0, 30, size=n_cases)
    neg_ids = np.sort(
        [rng.choice(np.setdiff1d(np.arange(30), [p]), 10, replace=False) for p in pos_ids], axis=1
    )
    scored_auc = [(int(u), float(p), n) for u, p, n in zip(users, pos, neg)]
    scored_recall = [(float(p), int(i), n, ids) for p, i, n, ids in zip(pos, pos_ids, neg, neg_ids)]
    assert auc_from_scores(users, pos, neg) == auc_from_scored_cases(scored_auc)
    assert recall_at_1_from_scores(pos, neg, pos_ids, neg_ids) == recall_at_1_from_scored_cases(
        scored_recall
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_chunked_scoring_is_bit_equal_to_one_block(monkeypatch, dtype):
    rng = np.random.default_rng(6)
    ds = ingest(random_bipartite_records(rng, 0, 40, 30, 500))
    sp = split(ds, seed=2)
    model = init_model(ModelSpec(d_inter=8, d_intra=8, dtype=dtype), ds, seed=3)
    enc = model.propagated(sp.train)
    cases = build_cases(sp, 0, "test")
    monkeypatch.setattr(evalkit, "SCORE_CHUNK", len(cases))
    whole = evalkit._case_scores(enc, cases)
    for chunk in (1, 7, len(cases) - 1):
        monkeypatch.setattr(evalkit, "SCORE_CHUNK", chunk)
        got = evalkit._case_scores(enc, cases)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in whole]
