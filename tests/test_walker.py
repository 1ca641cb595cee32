from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edda import walker
from edda.mdgraph import AnchorSet, NodeId, NodeKind, anchors, ingest
from edda.walker import (
    SimilarPairSet,
    WalkConfig,
    load_pairs,
    mine_pairs,
    run_walks,
    write_pairs,
)

from oracles import cosine, random_bipartite_records, walk_stop_distribution

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def test_unreachable_anchor_gives_zero_vector():
    # u0's component never reaches the anchor u5
    ds = ingest([(0, 0, 0), (0, 5, 9), (1, 5, 20)])
    a = anchors(ds, 0, 1)
    assert a.nodes == (U(5),)
    counts = run_walks(ds.graph(0), U(0), a, WalkConfig(walk_length=4, num_walks=200, rng_seed=1))
    assert np.all(counts == 0)


def test_single_edge_parity_forces_source_stop():
    ds = ingest([(0, 0, 0), (1, 0, 1)])
    a = anchors(ds, 0, 1)  # just user 0
    cfg = WalkConfig(walk_length=4, num_walks=321, rng_seed=2)
    assert run_walks(ds.graph(0), U(0), a, cfg).tolist() == [321]


def test_stop_frequencies_match_transition_matrix_power():
    # path graph u0-i0-u1-i1, duplicated as domain 1 so every node is an anchor
    pairs = [(0, 0), (1, 0), (1, 1)]
    records = [(0, u, i) for u, i in pairs] + [(1, u, i) for u, i in pairs]
    ds = ingest(records)
    a = anchors(ds, 0, 1)
    cfg = WalkConfig(walk_length=4, num_walks=100_000, rng_seed=3)
    counts = run_walks(ds.graph(0), U(0), a, cfg)

    exact = walk_stop_distribution(pairs, U(0), steps=4)
    empirical = counts / cfg.num_walks
    tv = 0.5 * sum(
        abs(empirical[pos] - exact[node]) for pos, node in enumerate(a.nodes)
    )
    assert tv < 0.02


def test_walks_are_deterministic_per_source_seed():
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 5), (1, 1, 5)])
    a = anchors(ds, 0, 1)
    cfg = WalkConfig(walk_length=4, num_walks=100, rng_seed=9)
    s1 = run_walks(ds.graph(0), U(1), a, cfg)
    s2 = run_walks(ds.graph(0), U(1), a, cfg)
    assert np.array_equal(s1, s2)
    s3 = run_walks(ds.graph(0), U(1), a, WalkConfig(4, 100, rng_seed=10))
    assert not np.array_equal(s1, s3)


# the cosine of stop-count vectors, as the mining oracles below compute it


def test_similarity_identical_vectors():
    assert cosine(np.array([3, 1, 0]), np.array([3, 1, 0])) == pytest.approx(1.0)


def test_similarity_zero_vector_rule():
    assert cosine(np.array([0, 0, 0]), np.array([1, 2, 3])) == 0.0
    assert cosine(np.array([1, 2, 3]), np.array([0, 0, 0])) == 0.0
    assert cosine(np.array([0, 0, 0]), np.array([0, 0, 0])) == 0.0


def test_similarity_hand_cosine():
    got = cosine(np.array([3, 1, 0]), np.array([1, 1, 1]))
    assert got == pytest.approx(4 / (np.sqrt(10) * np.sqrt(3)))
    assert got == pytest.approx(0.73030, abs=1e-5)


def test_similarity_symmetry_and_range():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.integers(0, 20, size=5)
        b = rng.integers(0, 20, size=5)
        s = cosine(a, b)
        assert 0.0 <= s <= 1.0
        assert s == cosine(b, a)


def test_similarity_scale_invariance():
    rng = np.random.default_rng(5)
    for m in (2, 5, 10):
        a = rng.integers(0, 30, size=6)
        b = rng.integers(1, 30, size=6)
        assert cosine(a, b * m) == pytest.approx(cosine(a, b), abs=1e-12)


def test_mine_pairs_no_anchors_is_empty():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    got = mine_pairs(ds, 0, 1, k=1, cfg=WalkConfig(rng_seed=0))
    assert got == SimilarPairSet((0, 1), ())


def test_mine_pairs_identical_profile_is_top_one():
    # u0 (domain 0) and u5 (domain 1) both sit one edge from the shared hub u9
    ds = ingest([(0, 9, 0), (0, 0, 0), (1, 9, 1), (1, 5, 1)])
    got = mine_pairs(ds, 0, 1, k=1, cfg=WalkConfig(walk_length=4, num_walks=200, rng_seed=6))
    by_source = {p.source: p for p in got.pairs}
    assert by_source[U(0)].target == U(5)  # tie with u9 broken by ascending id
    assert by_source[U(0)].similarity == pytest.approx(1.0)


def test_mine_pairs_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    records = []
    for d, (users, items) in enumerate([(range(4), range(4)), (range(2, 6), range(2, 6))]):
        for u in users:
            for i in items:
                if rng.random() < 0.5:
                    records.append((d, u, i))
        records.append((d, list(users)[0], list(items)[0]))  # keep domains non-empty
    ds = ingest(records)
    cfg = WalkConfig(walk_length=4, num_walks=300, rng_seed=8)
    k = 2
    got = mine_pairs(ds, 0, 1, k, cfg)

    a = anchors(ds, 0, 1)
    expected = []
    for src in ds.graph(0).node_ids():
        cands = [n for n in ds.graph(1).node_ids() if n.kind == src.kind]
        c_src = run_walks(ds.graph(0), src, a, cfg)
        sims = []
        for cand in cands:
            c_dst = run_walks(ds.graph(1), cand, a, cfg)
            sims.append((cand, cosine(c_src, c_dst)))
        sims.sort(key=lambda t: (-t[1], t[0].id))
        for cand, s in sims[:k]:
            if s > 0:
                expected.append((src, cand, pytest.approx(s)))
    assert [(p.source, p.target, p.similarity) for p in got.pairs] == expected


def test_mine_pairs_determinism():
    ds = ingest([(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 1), (1, 0, 1), (0, 2, 0)])
    cfg = WalkConfig(walk_length=2, num_walks=150, rng_seed=11)
    assert mine_pairs(ds, 0, 1, 1, cfg) == mine_pairs(ds, 0, 1, 1, cfg)


def test_mine_pairs_validation():
    ds = ingest([(0, 0, 0), (1, 0, 1)])
    with pytest.raises(ValueError):
        mine_pairs(ds, 0, 0, 1, WalkConfig())
    with pytest.raises(ValueError):
        mine_pairs(ds, 0, 1, 0, WalkConfig())


def test_pair_file_roundtrip(tmp_path):
    ds = ingest([(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 3, 1)])
    cfg = WalkConfig(walk_length=4, num_walks=200, rng_seed=12)
    sets = [mine_pairs(ds, 0, 1, 1, cfg), mine_pairs(ds, 1, 0, 1, cfg)]
    path = tmp_path / "pairs.tsv"
    write_pairs(path, sets)
    loaded = load_pairs(path)
    flat = lambda sets_: [
        (s.domain_pair, p.source, p.target, round(p.similarity, 9))
        for s in sets_
        for p in s.pairs
    ]
    assert flat(loaded) == flat([s for s in sets if s.pairs])


# -- the stop table, the anchor map and the pair file, against oracles --------


@st.composite
def mining_cases(draw):
    """2-3 random domains; each domain's user and item ids either overlap the
    other domains' (bases 0 and 3) or are private to it (base 100 * (d + 1))."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for d in range(draw(st.integers(2, 3))):
        user_base = draw(st.sampled_from([0, 3, 100 * (d + 1)]))
        item_base = draw(st.sampled_from([0, 3, 100 * (d + 1)]))
        records += random_bipartite_records(
            rng, d, 5, 5, draw(st.integers(1, 12)), user_base, item_base
        )
    cfg = WalkConfig(draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(0, 99)))
    return records, cfg, draw(st.integers(1, 3))


# domains 0 and 1 share users only; domain 2 shares no item with any domain,
# so its items have all-zero stop counts and there are no item candidates
ANCHOR_EDGE_CASES = (
    [(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 1), (1, 0, 10), (1, 1, 11), (1, 2, 10),
     (2, 1, 20), (2, 5, 21), (2, 2, 20)],
    WalkConfig(walk_length=4, num_walks=30, rng_seed=5),
    2,
)


def _oracle_pairs(ds, d, d_prime, k, cfg):
    """Per source: the exact squared cosine of each same-kind candidate with
    a positive one, by brute force over `run_walks` counts, and the oracle's
    top-k (target, cosine), ties broken toward the smaller id."""
    a = anchors(ds, d, d_prime)
    src_graph, dst_graph = ds.graph(d), ds.graph(d_prime)
    dst_counts = {n: run_walks(dst_graph, n, a, cfg) for n in dst_graph.node_ids()}
    out = {}
    for src in src_graph.node_ids():
        c_src = run_walks(src_graph, src, a, cfg)
        exact = {}
        for cand, c_dst in dst_counts.items():
            dot = sum(int(x) * int(y) for x, y in zip(c_src, c_dst))
            if cand.kind == src.kind and dot > 0:
                norms = sum(int(x) ** 2 for x in c_src) * sum(int(y) ** 2 for y in c_dst)
                exact[cand] = Fraction(dot * dot, norms)
        ranked = sorted(exact, key=lambda n: (-exact[n], n.id))[:k]
        out[src] = (exact, [(n, cosine(c_src, dst_counts[n])) for n in ranked])
    return out


@settings(max_examples=40, deadline=None)
@given(mining_cases())
@example(ANCHOR_EDGE_CASES)
def test_mine_pairs_matches_per_source_oracle(case):
    records, cfg, k = case
    ds = ingest(records)
    for d, d_prime in [(a, b) for a in range(ds.num_domains) for b in range(ds.num_domains) if a != b]:
        got = mine_pairs(ds, d, d_prime, k, cfg)
        assert got.domain_pair == (d, d_prime)
        mined = {}
        for p in got.pairs:
            mined.setdefault(p.source, []).append((p.target, p.similarity))
        expected = _oracle_pairs(ds, d, d_prime, k, cfg)
        assert set(mined) <= set(expected)
        for src, (exact, want) in expected.items():
            got_src = mined.get(src, [])
            assert [s for _, s in got_src] == pytest.approx([s for _, s in want], abs=1e-12)
            # proportional count vectors tie exactly, but their rounded cosines
            # can differ in the last bit, so a tie may go to either candidate
            assert [exact.get(t) for t, _ in got_src] == [exact[t] for t, _ in want]
            assert len({t for t, _ in got_src}) == len(got_src)


@settings(max_examples=40, deadline=None)
@given(mining_cases())
@example(ANCHOR_EDGE_CASES)
def test_mining_order_does_not_matter(case):
    # every ordered pair mined cold on its own dataset, then all pairs on one
    # dataset in reverse order, so (d', d) warms the memo before (d, d')
    records, cfg, k = case
    n = ingest(records).num_domains
    ordered = [(a, b) for a in range(n) for b in range(n) if a != b]
    cold = {p: mine_pairs(ingest(records), *p, k, cfg) for p in ordered}
    warm_ds = ingest(records)
    warm = {p: mine_pairs(warm_ds, *p, k, cfg) for p in reversed(ordered)}
    assert warm == cold


@settings(max_examples=40, deadline=None)
@given(mining_cases())
@example(ANCHOR_EDGE_CASES)
def test_stop_table_rows_give_run_walks_counts(case):
    records, cfg, _ = case
    ds = ingest(records)
    for d in range(ds.num_domains):
        graph = ds.graph(d)
        table = walker._stop_table(graph, cfg)
        assert table.shape == (graph.n_nodes, cfg.num_walks)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
        assert walker._stop_table(graph, cfg) is table
        for d_prime in range(ds.num_domains):
            if d_prime == d:
                continue
            a = anchors(ds, d, d_prime)
            local = [graph.local_index(node) for node in a.nodes]
            for row, node in enumerate(graph.node_ids()):
                want = [int(np.sum(table[row] == ix)) for ix in local]
                assert run_walks(graph, node, a, cfg).tolist() == want


def test_mine_pairs_refuses_a_stop_table_of_a_changed_graph():
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 5), (1, 1, 5)])
    cfg = WalkConfig(walk_length=2, num_walks=100, rng_seed=5)
    before = mine_pairs(ds, 0, 1, 1, cfg)
    assert before.pairs
    ds.graph(0).adj_indices[:] = 1  # every step now lands on user 1
    with pytest.raises(RuntimeError, match="stale stop table for domain 0"):
        mine_pairs(ds, 0, 1, 1, cfg)


def test_run_walks_ignores_anchors_outside_the_graph():
    # domain 0 lacks U(1) (between its user ids 0 and 2), U(7) (past them) and I(5)
    ds = ingest([(0, 0, 0), (0, 2, 0), (1, 0, 5), (1, 1, 5)])
    cfg = WalkConfig(walk_length=2, num_walks=50, rng_seed=4)
    a = AnchorSet((0, 1), (U(0), U(1), U(7), I(5)))
    counts = run_walks(ds.graph(0), U(0), a, cfg)
    assert counts[1:].tolist() == [0, 0, 0] and 0 < counts[0] < 50
    counts = run_walks(ds.graph(1), U(0), a, cfg)
    assert counts[2:].tolist() == [0, 0] and counts[0] + counts[1] == 50


PAIR_LINE = "0\t1\tuser\t3\t4\t0.5"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0\t1\tuser\t3\t4", "expected 6 tab-separated fields, got 5"),
        (PAIR_LINE + "\textra", "expected 6 tab-separated fields, got 7"),
        ("0\t1\tusr\t3\t4\t0.5", "kind"),
        ("0\t1\tItem\t3\t4\t0.5", "kind"),
        ("0\t1\tuser\tx\t4\t0.5", "non-integer"),
        ("0\t1\tuser\t3\t4.0\t0.5", "non-integer"),
        ("0\tone\titem\t3\t4\t0.5", "non-integer"),
        ("0\t1\tuser\t3\t4\tsimilar", "not a number"),
        ("0\t1\tuser\t3\t4\t0", "outside"),
        ("0\t1\tuser\t3\t4\t1.5", "outside"),
        ("0\t1\tuser\t3\t4\t-0.2", "outside"),
        ("0\t1\tuser\t3\t4\tnan", "outside"),
    ],
)
def test_load_pairs_rejects_malformed_lines(tmp_path, bad, message):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"# comment\n{PAIR_LINE}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"pairs.tsv line 3: .*{message}"):
        load_pairs(path)


def test_write_pairs_failing_midway_keeps_the_earlier_file(tmp_path, monkeypatch, fail_writes):
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 1, 0)])
    cfg = WalkConfig(walk_length=2, num_walks=50, rng_seed=1)
    sets = [mine_pairs(ds, 0, 1, 2, cfg), mine_pairs(ds, 1, 0, 2, cfg)]
    assert sum(len(s.pairs) for s in sets) >= 3
    path = tmp_path / "pairs_0_1.tsv"
    path.write_text("earlier contents\n", encoding="utf-8")

    fail_writes(3)
    with pytest.raises(OSError, match="no space"):
        write_pairs(path, sets)
    assert path.read_text(encoding="utf-8") == "earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pairs_0_1.tsv"]

    monkeypatch.undo()
    write_pairs(path, sets)
    assert [p.name for p in tmp_path.iterdir()] == ["pairs_0_1.tsv"]
    assert sum(len(s.pairs) for s in load_pairs(path)) == sum(len(s.pairs) for s in sets)
