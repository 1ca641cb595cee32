import numpy as np
import pytest

from edda.mdgraph import (
    AnchorSet,
    IngestError,
    NodeId,
    NodeKind,
    anchors,
    ingest,
    ingest_file,
    load_interactions,
    overlap_ratio,
    write_interactions,
)

U = lambda i: NodeId(NodeKind.USER, i)
I = lambda i: NodeId(NodeKind.ITEM, i)


def test_minimal_dataset():
    ds = ingest([(0, 0, 0)])
    g = ds.graph(0)
    assert ds.num_domains == 1
    assert g.n_users == 1 and g.n_items == 1 and g.n_edges == 1


def test_dedup_is_idempotent():
    ds = ingest([(0, 0, 0), (0, 0, 0)])
    assert ds.graph(0).n_edges == 1


def test_shared_id_defines_overlap():
    ds = ingest([(0, 0, 0), (1, 0, 1)])
    a = anchors(ds, 0, 1)
    assert a.nodes == (U(0),)


def test_anchors_disjoint_and_identical():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    assert len(anchors(ds, 0, 1)) == 0

    same = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
    ds2 = ingest(same)
    assert set(anchors(ds2, 0, 1).nodes) == set(ds2.graph(0).node_ids())


def test_anchors_match_set_intersection_oracle():
    # domains share user 0 and item 3
    ds = ingest([(0, 0, 3), (0, 1, 4), (1, 0, 3), (1, 2, 5)])
    got = anchors(ds, 0, 1)
    users = set(map(int, ds.graph(0).user_ids)) & set(map(int, ds.graph(1).user_ids))
    items = set(map(int, ds.graph(0).item_ids)) & set(map(int, ds.graph(1).item_ids))
    expected = sorted([U(u) for u in users] + [I(i) for i in items])
    assert list(got.nodes) == expected == [U(0), I(3)]


def test_anchors_symmetric():
    ds = ingest([(0, 0, 3), (0, 1, 4), (1, 0, 3), (1, 2, 5)])
    assert anchors(ds, 0, 1) == anchors(ds, 1, 0)


def test_overlap_ratio_extremes():
    same = [(0, 0, 0), (1, 0, 0)]
    assert overlap_ratio(ingest(same), 0, 1) == 1.0
    disjoint = [(0, 0, 0), (1, 1, 1)]
    assert overlap_ratio(ingest(disjoint), 0, 1) == 0.0


def test_overlap_ratio_hand_value():
    # U^0={a,b}=  {0,1}, U^1={b,c}={1,2}; I^0={x}={0}, I^1={y}={1}
    ds = ingest([(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 1)])
    assert overlap_ratio(ds, 0, 1) == pytest.approx((1 + 0) / (3 + 2))
    assert overlap_ratio(ds, 0, 1, kind=NodeKind.USER) == pytest.approx(1 / 3)
    assert overlap_ratio(ds, 0, 1, kind=NodeKind.ITEM) == 0.0


def test_degree_sums_equal_edge_count():
    rng = np.random.default_rng(0)
    records = [(0, int(rng.integers(5)), int(rng.integers(7))) for _ in range(40)]
    g = ingest(records).graph(0)
    assert g.user_degree.sum() == g.item_degree.sum() == g.n_edges


def test_relabeling_preserves_structure():
    records = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 2)]
    ds = ingest(records)
    remap_u = {0: 10, 1: 4, 2: 7}
    remap_i = {0: 3, 1: 0, 2: 9}
    ds2 = ingest([(d, remap_u[u], remap_i[i]) for d, u, i in records])
    for d in range(2):
        assert sorted(ds.graph(d).user_degree) == sorted(ds2.graph(d).user_degree)
        assert sorted(ds.graph(d).item_degree) == sorted(ds2.graph(d).item_degree)
    assert len(anchors(ds, 0, 1)) == len(anchors(ds2, 0, 1))


def test_sym_norm_adjacency_values():
    # u0-i0, u0-i1, u1-i1: check one entry against 1/sqrt(|N_u||N_i|)
    g = ingest([(0, 0, 0), (0, 0, 1), (0, 1, 1)]).graph(0)
    a = g.sym_norm_adjacency().toarray()
    u0, i1 = g.local_index(U(0)), g.local_index(I(1))
    assert a[u0, i1] == pytest.approx(1 / np.sqrt(2 * 2))
    assert np.allclose(a, a.T)


def test_empty_domain_rejected():
    with pytest.raises(IngestError, match="domain 0"):
        ingest([(1, 0, 0)])


def test_malformed_record_carries_line_number():
    with pytest.raises(IngestError, match="line 2"):
        ingest([(0, 0, 0), (0, "x", 1)])


def test_negative_id_rejected():
    with pytest.raises(IngestError):
        ingest([(0, -1, 0)])


def test_file_roundtrip_with_comments(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("# a comment\n0\t0\t0\textra\tfields\n\n0\t1\t2\n1\t1\t2\n")
    ds = ingest_file(path)
    assert ds.num_domains == 2
    assert ds.graph(0).n_edges == 2

    out = tmp_path / "copy.tsv"
    write_interactions(out, ds.records())
    assert load_interactions(out) == ds.records()


def test_file_malformed_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0\t0\nnot\tan\tinteger row\n")
    with pytest.raises(IngestError, match="line 2"):
        ingest_file(path)


def test_anchor_set_requires_ordered_pair():
    with pytest.raises(ValueError):
        AnchorSet(domain_pair=(1, 0), nodes=())


def test_write_interactions_sorts_tuples_and_arrays_alike(tmp_path):
    records = [(1, 0, 2), (0, 5, 1), (0, 2, 9), (0, 2, 3), (1, 0, 2)]
    write_interactions(tmp_path / "a.tsv", records)
    write_interactions(tmp_path / "b.tsv", np.array(records))
    text = (tmp_path / "a.tsv").read_text()
    assert text == "0\t2\t3\n0\t2\t9\n0\t5\t1\n1\t0\t2\n1\t0\t2\n"
    assert (tmp_path / "b.tsv").read_text() == text


def test_write_interactions_failing_midway_keeps_the_earlier_file(tmp_path, monkeypatch, fail_writes):
    path = tmp_path / "interactions.tsv"
    path.write_text("earlier contents\n", encoding="utf-8")
    fail_writes(1)
    with pytest.raises(OSError, match="no space"):
        write_interactions(path, [(0, 1, 2), (0, 3, 4)])
    assert path.read_text(encoding="utf-8") == "earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["interactions.tsv"]

    monkeypatch.undo()
    write_interactions(path, [(0, 1, 2), (0, 3, 4)])
    assert [p.name for p in tmp_path.iterdir()] == ["interactions.tsv"]
    assert load_interactions(path) == [(0, 1, 2), (0, 3, 4)]
