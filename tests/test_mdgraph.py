import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edda.mdgraph

from edda.edmodel import ModelSpec, init_model
from edda.mdgraph import (
    MAX_ID,
    CsrMatrix,
    DomainGraph,
    IngestError,
    NodeId,
    NodeKind,
    anchors,
    ingest,
    ingest_file,
    load_interactions,
    node_keys,
    read_key_values,
    sorted_unique,
    split_keys,
    write_interactions,
)

from oracles import (
    INT64S,
    dataset_records,
    domain_graph_by_unique_rows,
    edge_lists,
    interaction_files,
    interaction_text_by_rows,
    key_value_texts,
    keys,
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
    assert np.array_equal(a, keys(U(0)))


def test_anchors_disjoint_and_identical():
    ds = ingest([(0, 0, 0), (1, 1, 1)])
    assert len(anchors(ds, 0, 1)) == 0

    same = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
    ds2 = ingest(same)
    assert np.array_equal(anchors(ds2, 0, 1), ds2.graph(0).keys)


def test_anchors_match_set_intersection_oracle():
    # domains share user 0 and item 3
    ds = ingest([(0, 0, 3), (0, 1, 4), (1, 0, 3), (1, 2, 5)])
    got = anchors(ds, 0, 1)
    users = set(map(int, ds.graph(0).user_ids)) & set(map(int, ds.graph(1).user_ids))
    items = set(map(int, ds.graph(0).item_ids)) & set(map(int, ds.graph(1).item_ids))
    expected = sorted([U(u) for u in users] + [I(i) for i in items])
    assert np.array_equal(got, keys(*expected))
    assert expected == [U(0), I(3)]


def test_anchors_symmetric():
    ds = ingest([(0, 0, 3), (0, 1, 4), (1, 0, 3), (1, 2, 5)])
    assert np.array_equal(anchors(ds, 0, 1), anchors(ds, 1, 0))


def test_node_keys_round_trip_at_the_id_bounds():
    for kind in NodeKind:
        for node_id in (0, 1, MAX_ID - 1, MAX_ID):
            key = node_keys(kind, node_id)
            assert key.dtype == np.int64 and key == keys(NodeId(kind, node_id))[0]
            assert [int(x) for x in split_keys(key)] == [kind, node_id]
    # users sort before items, ids ascend within a kind
    ordered = keys(NodeId(0, 0), NodeId(0, MAX_ID), NodeId(1, 0), NodeId(1, MAX_ID))
    assert np.all(np.diff(ordered) > 0)


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_graph_keys_are_sorted_and_give_local_indices(edges):
    g = DomainGraph(0, edges)
    assert g.keys.dtype == np.int64 and len(g.keys) == g.n_nodes
    assert np.all(np.diff(g.keys) > 0)
    nodes = [U(int(u)) for u in g.user_ids] + [I(int(i)) for i in g.item_ids]
    assert np.array_equal(np.searchsorted(g.keys, keys(*nodes)), np.arange(g.n_nodes))


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_domain_graph_arrays_match_the_row_unique_build(edges):
    g = DomainGraph(0, np.array(edges, dtype=np.int64))
    want = domain_graph_by_unique_rows(edges)
    for name, arr in want.items():
        got = getattr(g, name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name


def test_dataset_keys_are_the_sorted_union_of_graph_keys():
    ds = ingest([(0, 5, 3), (0, 1, 4), (1, 0, 3), (1, 5, 9)])
    assert np.array_equal(
        ds.keys, keys(U(0), U(1), U(5), I(3), I(4), I(9))
    )


def test_dataset_keys_follow_a_replaced_graph():
    # domain 0 = users 0-3 x items 0-3, domain 1 = users 4-7 x items 4-7
    records = [
        (d, u + 4 * d, i + 4 * d) for d in (0, 1) for u in range(4) for i in range(4) if (u + i) % 3
    ]
    ds = ingest(records)
    assert len(ds.keys) == 16
    ds.domains[0] = DomainGraph(0, ds.graph(1).user_item_pairs()[::2])
    union = np.union1d(ds.graph(0).keys, ds.graph(1).keys)
    assert len(union) == 8
    assert np.array_equal(ds.keys, union)
    model = init_model(ModelSpec(d_inter=3, d_intra=2), ds, seed=1)
    assert np.array_equal(model.inter.keys, union)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(INT64S, max_size=40),
    st.builds(lambda v, n: [v] * n, INT64S, st.integers(0, 5)),  # constant, maybe empty
))
def test_sorted_unique_equals_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    for shaped in (arr, arr.reshape(-1, 1)):
        got = sorted_unique(shaped)
        want = np.unique(shaped)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(arr, np.array(values, dtype=np.int64))  # input left as it was


@settings(max_examples=50, deadline=None)
@given(st.lists(edge_lists(), min_size=1, max_size=3))
def test_dataset_keys_equal_np_unique_of_the_graph_keys(domains):
    ds = ingest([(d, u, i) for d, edges in enumerate(domains) for u, i in edges])
    want = np.unique(np.concatenate([graph.keys for graph in ds.domains]))
    assert ds.keys.dtype == want.dtype and np.array_equal(ds.keys, want)


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
    op = g.sym_norm_adjacency()
    a = np.zeros(op.shape)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    a[rows, op.indices] = op.data
    u0, i1 = np.searchsorted(g.keys, keys(U(0), I(1)))
    assert a[u0, i1] == pytest.approx(1 / np.sqrt(2 * 2))
    assert np.allclose(a, a.T)


FLOATS = st.sampled_from([np.float64, np.float32])


@settings(max_examples=200, deadline=None)
@given(
    row_lengths=st.lists(st.integers(0, 4), max_size=8),
    n_cols=st.integers(1, 6),
    n_vecs=st.sampled_from([1, 2, 5, 64]),
    data_dtype=FLOATS,
    x_dtype=FLOATS,
    seed=st.integers(0, 2**32 - 1),
)
@example(row_lengths=[], n_cols=3, n_vecs=64, data_dtype=np.float64, x_dtype=np.float32, seed=0)
@example(row_lengths=[0, 3, 0, 0, 2], n_cols=4, n_vecs=1, data_dtype=np.float64, x_dtype=np.float32, seed=1)
@example(row_lengths=[2, 0, 4], n_cols=5, n_vecs=64, data_dtype=np.float64, x_dtype=np.float64, seed=2)
def test_csr_product_equals_scipys_bit_for_bit(row_lengths, n_cols, n_vecs, data_dtype, x_dtype, seed):
    # edda loaded the kernel at import; scipy.sparse comes in only now, beside it
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(row_lengths, dtype=np.int64)])
    indices = rng.integers(n_cols, size=indptr[-1])  # unsorted, repeats allowed
    data = rng.normal(size=indptr[-1]).astype(data_dtype)
    x = rng.normal(size=(n_cols, n_vecs)).astype(x_dtype)
    shape = (len(row_lengths), n_cols)
    got = CsrMatrix(data, indices, indptr, shape) @ x
    want = sp.csr_matrix((data, indices, indptr), shape) @ x
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_csr_matrix_refuses_mismatched_shapes():
    data, indices, indptr = np.ones(3), np.array([0, 2, 1]), np.array([0, 2, 3])
    op = CsrMatrix(data, indices, indptr, (2, 3))
    for x in (np.ones((2, 4)), np.ones((4, 4)), np.ones(3)):
        with pytest.raises(ValueError, match="cannot multiply"):
            op @ x
    with pytest.raises(ValueError, match="one equal length"):
        CsrMatrix(data[:2], indices, indptr, (2, 3))
    with pytest.raises(ValueError, match="3 rows need 4 entries"):
        CsrMatrix(data, indices, indptr, (3, 3))
    with pytest.raises(ValueError, match="from 0 to the 3 entries"):
        CsrMatrix(data, indices, np.array([0, 2, 4]), (2, 3))


def test_empty_domain_rejected():
    with pytest.raises(IngestError, match="domain 0"):
        ingest([(1, 0, 0)])


def test_malformed_record_carries_line_number():
    with pytest.raises(IngestError, match="line 2"):
        ingest([(0, 0, 0), (0, "x", 1)])


def test_negative_id_rejected():
    with pytest.raises(IngestError, match=r"line 1: negative id in record \(0, -1, 0\)"):
        ingest([(0, -1, 0)])
    with pytest.raises(IngestError, match="line 3: negative id"):
        ingest(np.array([(0, 0, 0), (0, 1, 1), (0, 2, -2)]))


@pytest.mark.parametrize("big", [2**62, 2**63 - 1, 2**63, 10**20])
def test_id_above_max_id_rejected(big):
    with pytest.raises(IngestError, match=rf"line 2: id above {MAX_ID} in record \(0, {big}, 1\)"):
        ingest([(0, 0, 0), (0, big, 1)])
    with pytest.raises(IngestError, match="line 2: id above"):
        ingest([(0, 0, 0), (0, 1, big)])
    assert ingest([(0, MAX_ID, MAX_ID)]).graph(0).user_ids.tolist() == [MAX_ID]


def test_negative_id_in_file_names_its_physical_line(tmp_path):
    path = tmp_path / "inter.tsv"
    where = re.escape(str(path))
    path.write_text("# header\n0\t0\t0\n\n0\t-1\t2\n0\tx\t2\n")
    with pytest.raises(IngestError, match=rf"^{where} line 4: negative id in record \(0, -1, 2\)$"):
        load_interactions(path)
    path.write_text(f"0\t{MAX_ID}\t0\n\n0\t0\t{10**20}\n")
    with pytest.raises(IngestError, match=rf"^{where} line 3: id above {MAX_ID} in record \(0, 0, {10**20}\)$"):
        load_interactions(path)


def test_file_roundtrip_with_comments(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("# a comment\n0\t0\t0\textra\tfields\n\n0\t1\t2\n1\t1\t2\n")
    ds = ingest_file(path)
    assert ds.num_domains == 2
    assert ds.graph(0).n_edges == 2

    out = tmp_path / "copy.tsv"
    write_interactions(out, dataset_records(ds))
    loaded = load_interactions(out)
    assert loaded.dtype == np.int64
    assert loaded.tolist() == dataset_records(ds).tolist() == [[0, 0, 0], [0, 1, 2], [1, 1, 2]]


def test_file_malformed_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0\t0\nnot\tan\tinteger row\n")
    with pytest.raises(IngestError, match="line 2"):
        ingest_file(path)


def test_write_interactions_writes_tuples_and_arrays_alike_in_the_given_order(tmp_path):
    records = [(1, 0, 2), (0, 5, 1), (0, 2, 9), (0, 2, 3), (1, 0, 2)]
    write_interactions(tmp_path / "a.tsv", records)
    write_interactions(tmp_path / "b.tsv", np.array(records))
    text = (tmp_path / "a.tsv").read_text()
    assert text == "1\t0\t2\n0\t5\t1\n0\t2\t9\n0\t2\t3\n1\t0\t2\n"
    assert (tmp_path / "b.tsv").read_text() == text


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(INT64S, INT64S, INT64S), max_size=30), st.integers(1, 4))
@example(records=[], block=1)
@example(records=[(1, MAX_ID, 0), (0, -1, 2**63 - 1), (0, -(2**63), 5), (1, MAX_ID, 0)], block=3)
def test_write_interactions_writes_the_f_string_lines_in_order(tmp_path_factory, records, block):
    """Unsorted, sorted and duplicate rows, any int64, one row to many blocks."""
    path = tmp_path_factory.mktemp("writer") / "inter.tsv"
    for rows in (records, sorted(records), records + records):
        want = interaction_text_by_rows(rows)
        arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
        for size in (block, edda.mdgraph.WRITE_BLOCK):
            with mock.patch.object(edda.mdgraph, "WRITE_BLOCK", size):
                write_interactions(path, arr)
            assert path.read_text(encoding="utf-8") == want


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
    assert load_interactions(path).tolist() == [[0, 1, 2], [0, 3, 4]]


# -- the loader against the grammar it documents -------------------------------

@settings(max_examples=150, deadline=None)
@given(interaction_files())
def test_load_interactions_keeps_valid_rows_or_names_the_first_bad_line(tmp_path_factory, case):
    text, labels = case
    path = tmp_path_factory.mktemp("loader") / "inter.tsv"
    path.write_text(text, encoding="utf-8")
    bad = [k for k, (kind, _) in enumerate(labels, start=1) if kind == "bad"]
    if bad:
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))} line {bad[0]}: "):
            load_interactions(path)
        return
    got = load_interactions(path)
    assert got.dtype == np.int64 and got.shape == (len(got), 3)
    assert got.tolist() == [list(rec) for kind, rec in labels if kind == "row"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(interaction_files(), interaction_files(bad=True)))
def test_canonical_reader_agrees_with_the_line_loop(tmp_path_factory, case):
    text, labels = case
    path = tmp_path_factory.mktemp("loader") / "inter.tsv"
    path.write_text(text, encoding="utf-8")
    fast = edda.mdgraph._canonical_rows(path.read_bytes())
    try:
        slow = edda.mdgraph._rows_by_lines(path)
    except IngestError:
        assert fast is None
        return
    # every line a bare row of ids below 10**18: the canonical form
    plain = bool(labels) and all(
        kind == "row" and line.count("\t") == 2
        for line, (kind, _) in zip(text.split("\n"), labels)
    ) and all(len(field) <= 18 for field in text.split())
    assert fast is not None or not plain
    if fast is not None:
        assert fast.dtype == np.int64 and np.array_equal(fast, slow)


def test_canonical_reader_reads_what_write_interactions_writes(tmp_path):
    path = tmp_path / "inter.tsv"
    records = [(0, 10**17 + 3, 5), (1, 0, 999_999_999_999_999_999), (0, 7, 0)]
    write_interactions(path, records)
    got = edda.mdgraph._canonical_rows(path.read_bytes())
    assert got.tolist() == [list(rec) for rec in records]
    # no final newline, empty file, leading zeros, an 18-digit id
    for text in ("0\t1\t2", "", "0\t1\t2\n3\t4\t5\n", "007\t0\t10\n", f"1\t{10**18 - 1}\t{10**17}\n"):
        path.write_text(text, encoding="utf-8")
        want = edda.mdgraph._rows_by_lines(path).tolist()
        assert edda.mdgraph._canonical_rows(text.encode()).tolist() == want
    for text in ("0\t1\t2\t3\n", "0\t1\n", "0\t\t2\n", "\n", f"0\t1\t{10**18}\n", "0 \t1\t2\n"):
        assert edda.mdgraph._canonical_rows(text.encode()) is None


@settings(max_examples=200, deadline=None)
@given(key_value_texts(["a", "b c", "seed"]))
def test_read_key_values_returns_stripped_pairs_or_raises_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("kv") / "values.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        values = read_key_values(path)
    except ValueError as err:
        assert str(err).startswith(f"{path} line ")
        return
    for key, value in values.items():
        assert key == key.strip() and value == value.strip() and "=" not in key
