from dataclasses import replace
from fractions import Fraction
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edda import walker
from edda.mdgraph import NodeId, NodeKind, anchors, ingest
from edda.walker import (
    WalkConfig,
    load_pairs,
    mine_pairs,
    run_walks,
    write_pairs,
)

from oracles import (
    cosine,
    keys,
    mined_pairs_by_sources,
    nodes_of,
    pair_set_of,
    pair_texts,
    random_bipartite_records,
    top_k_by_rows,
    walk_endpoints,
    walk_stop_counts,
    walk_stop_distribution,
)

U = lambda i: NodeId(NodeKind.USER, i)


def _tables(ds, cfg):
    """The `run_walks` table of every graph of `ds`, indexed by domain."""
    return [run_walks(graph, cfg) for graph in ds.domains]


def _endpoints(graph, node, cfg):
    """The nodes where the `run_walks` walks from `node` stop."""
    row = int(np.searchsorted(graph.keys, keys(node)[0]))
    return nodes_of(graph.keys[run_walks(graph, cfg)[row]])


def test_unreachable_anchor_gives_zero_vector():
    # u0's component never reaches the anchor u5
    ds = ingest([(0, 0, 0), (0, 5, 9), (1, 5, 20)])
    a = anchors(ds, 0, 1)
    assert np.array_equal(a, keys(U(5)))
    cfg = WalkConfig(walk_length=4, num_walks=200, rng_seed=1)
    assert U(5) not in _endpoints(ds.graph(0), U(0), cfg)


def test_single_edge_parity_forces_source_stop():
    ds = ingest([(0, 0, 0), (1, 0, 1)])
    cfg = WalkConfig(walk_length=4, num_walks=321, rng_seed=2)
    assert _endpoints(ds.graph(0), U(0), cfg) == [U(0)] * 321


def test_stop_frequencies_match_transition_matrix_power():
    # path graph u0-i0-u1-i1
    pairs = [(0, 0), (1, 0), (1, 1)]
    ds = ingest([(0, u, i) for u, i in pairs])
    cfg = WalkConfig(walk_length=4, num_walks=100_000, rng_seed=3)
    stops = _endpoints(ds.graph(0), U(0), cfg)

    exact = walk_stop_distribution(pairs, U(0), steps=4)
    tv = 0.5 * sum(abs(stops.count(node) / cfg.num_walks - p) for node, p in exact.items())
    assert tv < 0.02


def test_walks_are_deterministic_per_source_seed():
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 5), (1, 1, 5)])
    cfg = WalkConfig(walk_length=4, num_walks=100, rng_seed=9)
    s1 = run_walks(ds.graph(0), cfg)
    s2 = run_walks(ds.graph(0), cfg)
    assert np.array_equal(s1, s2) and s1 is not s2
    s3 = run_walks(ds.graph(0), WalkConfig(4, 100, rng_seed=10))
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
    got = mine_pairs(ds, 0, 1, 1, _tables(ds, WalkConfig(rng_seed=0)))
    assert got == pair_set_of((0, 1), ())


def test_mine_pairs_identical_profile_is_top_one():
    # u0 (domain 0) and u5 (domain 1) both sit one edge from the shared hub u9
    ds = ingest([(0, 9, 0), (0, 0, 0), (1, 9, 1), (1, 5, 1)])
    got = mine_pairs(ds, 0, 1, 1, _tables(ds, WalkConfig(walk_length=4, num_walks=200, rng_seed=6)))
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
    got = mine_pairs(ds, 0, 1, k, _tables(ds, cfg))

    a = nodes_of(anchors(ds, 0, 1))
    pairs = [ds.graph(d).user_item_pairs().tolist() for d in (0, 1)]
    expected = []
    for src in nodes_of(ds.graph(0).keys):
        cands = [n for n in nodes_of(ds.graph(1).keys) if n.kind == src.kind]
        c_src = walk_stop_counts(pairs[0], src, a, cfg)
        sims = []
        for cand in cands:
            c_dst = walk_stop_counts(pairs[1], cand, a, cfg)
            sims.append((cand, cosine(c_src, c_dst)))
        sims.sort(key=lambda t: (-t[1], t[0].id))
        for cand, s in sims[:k]:
            if s > 0:
                expected.append((src, cand, pytest.approx(s)))
    assert [(p.source, p.target, p.similarity) for p in got.pairs] == expected


def test_mine_pairs_determinism():
    ds = ingest([(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 1), (1, 0, 1), (0, 2, 0)])
    cfg = WalkConfig(walk_length=2, num_walks=150, rng_seed=11)
    assert mine_pairs(ds, 0, 1, 1, _tables(ds, cfg)) == mine_pairs(ds, 0, 1, 1, _tables(ds, cfg))


def test_mine_pairs_validation():
    ds = ingest([(0, 0, 0), (1, 0, 1)])
    stops = _tables(ds, WalkConfig())
    with pytest.raises(ValueError):
        mine_pairs(ds, 0, 0, 1, stops)
    with pytest.raises(ValueError):
        mine_pairs(ds, 0, 1, 0, stops)


def test_mine_pairs_refuses_a_stop_table_not_shaped_like_its_graph():
    # domain 0 has 3 nodes and domain 1 has 4, so their tables cannot swap
    ds = ingest([(0, 0, 0), (0, 1, 0), (1, 0, 5), (1, 1, 5), (1, 1, 6)])
    cfg = WalkConfig(walk_length=2, num_walks=10, rng_seed=3)
    stops = _tables(ds, cfg)
    assert mine_pairs(ds, 0, 1, 1, stops).pairs
    for bad in ([stops[1], stops[1]], [stops[0], stops[0]], [stops[0][:-1], stops[1]],
                [stops[0][:, 0], stops[1]]):
        with pytest.raises(ValueError, match="stop table of shape"):
            mine_pairs(ds, 0, 1, 1, bad)


def test_pair_file_roundtrip(tmp_path):
    ds = ingest([(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 3, 1)])
    cfg = WalkConfig(walk_length=4, num_walks=200, rng_seed=12)
    stops = _tables(ds, cfg)
    sets = [mine_pairs(ds, 0, 1, 1, stops), mine_pairs(ds, 1, 0, 1, stops)]
    path = tmp_path / "pairs.tsv"
    write_pairs(path, sets)
    loaded = load_pairs(path)
    flat = lambda sets_: [
        (s.domain_pair, p.source, p.target, round(p.similarity, 9))
        for s in sets_
        for p in s.pairs
    ]
    assert flat(loaded) == flat([s for s in sets if s.pairs])


# -- the walk table, the anchor map and the pair file, against oracles --------


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
    a positive one, by brute force over the oracle's per-source walk counts,
    and the oracle's top-k (target, cosine), ties broken toward the smaller id."""
    a = nodes_of(anchors(ds, d, d_prime))
    src_graph, dst_graph = ds.graph(d), ds.graph(d_prime)
    src_pairs, dst_pairs = src_graph.user_item_pairs().tolist(), dst_graph.user_item_pairs().tolist()
    dst_counts = {n: walk_stop_counts(dst_pairs, n, a, cfg) for n in nodes_of(dst_graph.keys)}
    out = {}
    for src in nodes_of(src_graph.keys):
        c_src = walk_stop_counts(src_pairs, src, a, cfg)
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
    stops = _tables(ds, cfg)
    for d, d_prime in [(a, b) for a in range(ds.num_domains) for b in range(ds.num_domains) if a != b]:
        got = mine_pairs(ds, d, d_prime, k, stops)
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
    # every ordered pair mined on its own dataset and its own tables, then all
    # pairs from one dataset and one list of tables in reverse order, so each
    # table serves (d', d) before (d, d') and every partner domain
    records, cfg, k = case
    n = ingest(records).num_domains
    ordered = [(a, b) for a in range(n) for b in range(n) if a != b]
    alone = {}
    for p in ordered:
        ds = ingest(records)
        alone[p] = mine_pairs(ds, *p, k, _tables(ds, cfg))
    shared_ds = ingest(records)
    stops = _tables(shared_ds, cfg)
    shared = {p: mine_pairs(shared_ds, *p, k, stops) for p in reversed(ordered)}
    assert shared == alone


def _assert_oracle_endpoints(graph, cfg):
    table = run_walks(graph, cfg)
    assert table.shape == (graph.n_nodes, cfg.num_walks)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    pairs = graph.user_item_pairs().tolist()
    for row, node in enumerate(nodes_of(graph.keys)):
        assert nodes_of(graph.keys[table[row]]) == walk_endpoints(pairs, node, cfg)


@settings(max_examples=40, deadline=None)
@given(mining_cases(), st.integers(1, 6), st.one_of(st.integers(0, 99), st.integers(2**32 - 2, 2**70)))
@example(ANCHOR_EDGE_CASES, walker.WALK_BLOCK, 5)
def test_run_walks_rows_are_the_oracle_endpoints(case, block, rng_seed):
    # node blocks of 1-6 nodes straddle these graphs' 2-10 nodes, and seeds
    # above 2**32 take two or three entropy words
    records, cfg, _ = case
    cfg = replace(cfg, rng_seed=rng_seed)
    ds = ingest(records)
    saved, walker.WALK_BLOCK = walker.WALK_BLOCK, block
    try:
        for graph in ds.domains:
            _assert_oracle_endpoints(graph, cfg)
    finally:
        walker.WALK_BLOCK = saved


@pytest.mark.parametrize("rng_seed", [1, 7, 2**40 + 3])
def test_run_walks_on_a_graph_of_several_node_blocks(rng_seed):
    records = random_bipartite_records(np.random.default_rng(rng_seed % 97), 0, 100, 70, 500)
    graph = ingest(records).graph(0)
    assert graph.n_nodes > 2 * walker.WALK_BLOCK and graph.n_nodes % walker.WALK_BLOCK
    _assert_oracle_endpoints(graph, WalkConfig(walk_length=3, num_walks=5, rng_seed=rng_seed))


@settings(max_examples=40, deadline=None)
@given(mining_cases())
@example(ANCHOR_EDGE_CASES)
def test_mine_pairs_equals_the_per_source_lexsort(case):
    records, cfg, k = case
    ds = ingest(records)
    stops = _tables(ds, cfg)
    flat = lambda s: list(zip(*(a.tolist() for a in (s.kinds, s.sources, s.targets, s.similarities))))
    for d in range(ds.num_domains):
        for d_prime in range(ds.num_domains):
            if d != d_prime:
                want = mined_pairs_by_sources(ds, d, d_prime, k, stops)
                assert flat(mine_pairs(ds, d, d_prime, k, stops)) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 8), st.data())
def test_top_k_equals_a_lexsort_per_row(n_rows, n_cols, k, data):
    # few distinct values, so rows hold exact ties; row 0 is all zero, and k
    # may exceed the number of columns
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    sims = np.array(data.draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols)))
    sims = sims.reshape(n_rows, n_cols)
    sims[0] = 0.0
    rows, cols, best = walker._top_k(sims, k)
    assert list(zip(rows.tolist(), cols.tolist(), best.tolist())) == top_k_by_rows(sims, k)


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
        (f"0\t1\tuser\t{2**62}\t4\t0.5", "outside \\[0, 4611686018427387903\\]"),
        (f"0\t1\titem\t3\t{10**20}\t0.5", "outside \\[0"),
        ("0\t1\tuser\t-3\t4\t0.5", "outside \\[0"),
        ("-1\t1\tuser\t3\t4\t0.5", "outside \\[0"),
        ("1\t1\tuser\t3\t4\t0.5", "pair domains must differ"),
    ],
)
def test_load_pairs_rejects_malformed_lines(tmp_path, bad, message):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"# comment\n{PAIR_LINE}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"pairs.tsv line 3: .*{message}"):
        load_pairs(path)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1\t1\tuser\t3\t4\t0.5", "pair domains must differ"),
        (f"{2**62}\t1\tuser\t3\t4\t0.5", "outside \\[0"),
        (f"0\t1\tuser\t{2**62}\t4\t0.5", "outside \\[0"),
        (f"0\t1\titem\t3\t{10**20 - 1}\t0.5", "outside \\[0"),
        (f"0\t{10**20 - 1}\tuser\t3\t4\t0.5", "outside \\[0"),
        ("0\t1\tuser\t3\t4\t0.0", "outside"),
        ("0\t1\tuser\t3\t4\t1e-400", "outside"),
    ],
)
def test_canonical_pair_reader_leaves_refused_values_to_the_line_loop(tmp_path, bad, message):
    # a newline-terminated file of export-shaped lines, so only the numpy
    # reader's value checks stand between the line and the arrays
    text = f"{PAIR_LINE}\n{bad}\n"
    assert walker._CANONICAL_PAIRS.fullmatch(text)
    assert walker._parse_canonical(text) is None
    path = tmp_path / "pairs.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"pairs.tsv line 2: .*{message}"):
        load_pairs(path)


@pytest.mark.parametrize("warns", [True, False])
@pytest.mark.parametrize(
    "bad", [f"0\t1\titem\t3\t{10**20 - 1}\t0.5", f"0\t{10**20 - 1}\tuser\t3\t4\t0.5"]
)
def test_canonical_pair_reader_refuses_an_id_numpy_casts_via_a_float(monkeypatch, bad, warns):
    # numpy 1.23-1.26's loadtxt reads an int64 field that overflows as a
    # float, warns once, and casts it (to INT64_MIN on x86-64); newer numpy
    # raises instead. Replay the old behaviour on whatever numpy is installed.
    real_loadtxt = np.loadtxt
    int64 = np.iinfo(np.int64)

    def old_loadtxt(fname, dtype, **kwargs):
        rows = [line.split("\t") for line in fname.read().splitlines()]
        if warns and any(int(row[c]) > int64.max for row in rows for c in (0, 1, 3, 4)):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        cast = [
            [str(int64.min) if c in (0, 1, 3, 4) and int(f) > int64.max else f for c, f in enumerate(row)]
            for row in rows
        ]
        return real_loadtxt(io.StringIO("".join("\t".join(row) + "\n" for row in cast)), dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert walker._parse_canonical(f"{PAIR_LINE}\n{bad}\n") is None
        ints, _ = walker._parse_canonical(f"{PAIR_LINE}\n")
    assert shown == []
    assert ints.tolist() == [[0, 1, 0, 3, 4]]


@settings(max_examples=200, deadline=None)
@given(pair_texts())
def test_load_pairs_returns_valid_pairs_or_raises_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pairs") / "pairs.tsv"
    path.write_text(text, encoding="utf-8")
    try:
        pair_sets = load_pairs(path)
    except ValueError as err:
        assert str(err).startswith(f"{path} line ")
        return
    for pair_set in pair_sets:
        assert min(pair_set.domain_pair) >= 0
        assert pair_set.domain_pair[0] != pair_set.domain_pair[1]
        for p in pair_set.pairs:
            assert p.source.kind == p.target.kind
            assert 0 <= min(p.source.id, p.target.id) <= max(p.source.id, p.target.id) <= 2**62 - 1
            assert 0.0 < p.similarity <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.one_of(pair_texts(), mining_cases()))
def test_canonical_pair_reader_agrees_with_the_line_loop(tmp_path_factory, case):
    if isinstance(case, str):
        text = case
    else:  # a file as `edda align` writes it
        records, cfg, k = case
        ds = ingest(records)
        stops = _tables(ds, cfg)
        path = tmp_path_factory.mktemp("pairs") / "pairs.tsv"
        write_pairs(path, [mine_pairs(ds, 0, 1, k, stops), mine_pairs(ds, 1, 0, k, stops)])
        text = path.read_text(encoding="utf-8")
        assert walker._parse_canonical(text) is not None
    fast = walker._parse_canonical(text)
    try:
        slow = walker._parse_lines("pairs.tsv", text)
    except ValueError:
        assert fast is None
        return
    if fast is not None:
        assert fast[0].dtype == np.int64 and np.array_equal(fast[0], slow[0])
        assert fast[1].tobytes() == slow[1].tobytes()


def test_write_pairs_failing_midway_keeps_the_earlier_file(tmp_path, monkeypatch, fail_writes):
    ds = ingest([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 1, 0)])
    cfg = WalkConfig(walk_length=2, num_walks=50, rng_seed=1)
    stops = _tables(ds, cfg)
    sets = [mine_pairs(ds, 0, 1, 2, stops), mine_pairs(ds, 1, 0, 2, stops)]
    assert sum(len(s.pairs) for s in sets) >= 3
    path = tmp_path / "pairs_0_1.tsv"
    path.write_text("earlier contents\n", encoding="utf-8")

    fail_writes(2)  # one write a pair set: the second set's write fails
    with pytest.raises(OSError, match="no space"):
        write_pairs(path, sets)
    assert path.read_text(encoding="utf-8") == "earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pairs_0_1.tsv"]

    monkeypatch.undo()
    write_pairs(path, sets)
    assert [p.name for p in tmp_path.iterdir()] == ["pairs_0_1.tsv"]
    assert sum(len(s.pairs) for s in load_pairs(path)) == sum(len(s.pairs) for s in sets)
