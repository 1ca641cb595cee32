"""Multi-domain interaction data: per-domain bipartite graphs and cross-domain anchors.

Users and items are identified by integer ids in [0, MAX_ID] that are globally
unique within their kind; the same (kind, id) appearing in two domains denotes
the same entity, which is what defines overlap between domains.

Inside `edda` a node is one int64 key, `(kind << 62) | id` with MAX_ID =
2^62 - 1 (`node_keys`, `split_keys`). Users (kind 0) sort before items
(kind 1) and ids ascend within each kind, so ascending key order is a graph's
local node order, and graph, dataset and anchor key arrays are sorted.
"""

from __future__ import annotations

import enum
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp


MAX_ID = 2**62 - 1


class NodeKind(enum.IntEnum):
    USER = 0
    ITEM = 1


class NodeId(NamedTuple):
    kind: NodeKind
    id: int


def node_keys(kind, ids) -> np.ndarray:
    """Int64 keys `(kind << 62) | id`; `kind` and `ids` broadcast, ids <= MAX_ID."""
    return (np.asarray(kind, dtype=np.int64) << 62) | np.asarray(ids, dtype=np.int64)


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `node_keys`: the (kinds, ids) of int64 `keys`."""
    return keys >> 62, keys & MAX_ID


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The ascending distinct values of an integer array, flattened: what a
    flagless `np.unique` returns. It sorts and keeps the first of each run of
    equal values, because numpy >= 2.3 answers a flagless integer `np.unique`
    from a hash table, which takes over ten times as long from 20k keys up."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


class IngestError(ValueError):
    """Raised for malformed or inconsistent interaction records."""


class DomainGraph:
    """Immutable bipartite graph of one domain.

    Nodes are indexed locally: users first (sorted by id), then items
    (sorted by id), so local order is ascending key order: `keys` is strictly
    ascending and `np.searchsorted(graph.keys, k)` is node k's local index.
    Only nodes with at least one interaction are part of the graph.
    """

    def __init__(self, domain: int, edges: Sequence[tuple[int, int]] | np.ndarray):
        """`edges` holds raw (user_id, item_id) pairs: tuples or an (n, 2) array."""
        if len(edges) == 0:
            raise IngestError(f"domain {domain} has no interactions")
        self.domain = domain
        edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.user_ids, users = np.unique(edge_arr[:, 0], return_inverse=True)
        self.item_ids, items = np.unique(edge_arr[:, 1], return_inverse=True)
        n_u, n_i = len(self.user_ids), len(self.item_ids)
        # local edge endpoints, deduplicated, canonical order: sorted by (user, item)
        self.edge_user, self.edge_item = np.divmod(sorted_unique(users * n_i + items), n_i)
        self.keys = np.concatenate(
            [node_keys(NodeKind.USER, self.user_ids), node_keys(NodeKind.ITEM, self.item_ids)]
        )

        self.user_degree = np.bincount(self.edge_user, minlength=n_u)
        self.item_degree = np.bincount(self.edge_item, minlength=n_i)

        # node-level CSR over [users | items], the one adjacency structure of
        # walks, splits and propagation; edges are in user-row order
        order_i = np.lexsort((self.edge_user, self.edge_item))
        self.adj_indptr = np.concatenate(
            [[0], np.cumsum(np.concatenate([self.user_degree, self.item_degree]))]
        )
        self.adj_indices = np.concatenate([self.edge_item + n_u, self.edge_user[order_i]])
        # canonical edge of each CSR entry, and the entry's weight 1/sqrt(d_u d_i)
        self._entry_edge = np.concatenate([np.arange(self.n_edges), order_i])
        weight = 1.0 / np.sqrt(
            self.user_degree[self.edge_user].astype(np.float64) * self.item_degree[self.edge_item]
        )
        self._entry_weight = weight[self._entry_edge]
        self._entry_weight.flags.writeable = False  # the data of every unmasked operator

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    @property
    def n_edges(self) -> int:
        return len(self.edge_user)

    def user_item_pairs(self) -> np.ndarray:
        """(n_edges, 2) array of raw (user_id, item_id) pairs, canonical order."""
        return np.column_stack(
            [self.user_ids[self.edge_user], self.item_ids[self.edge_item]]
        )

    def sym_norm_adjacency(self, mask: np.ndarray | None = None) -> sp.csr_matrix:
        """Symmetric degree-normalized adjacency D^{-1/2} A D^{-1/2}.

        Degrees are always the full-graph degrees; `mask` (boolean, one entry
        per edge in canonical order) only removes edges from A, so the
        per-edge normalization is unchanged under edge dropout. The matrix
        is the graph's own CSR with its entry weights, the masked entries left
        out.
        """
        shape = (self.n_nodes, self.n_nodes)
        if mask is None:
            return sp.csr_matrix((self._entry_weight, self.adj_indices, self.adj_indptr), shape)
        if mask.shape != (self.n_edges,):
            raise ValueError("edge mask must have one entry per edge")
        keep = mask[self._entry_edge]
        indptr = np.concatenate([[0], np.cumsum(keep)])[self.adj_indptr]
        return sp.csr_matrix((self._entry_weight[keep], self.adj_indices[keep], indptr), shape)


class MultiDomainDataset:
    """An ordered collection of domain graphs with a shared node identity space."""

    def __init__(self, domains: Sequence[DomainGraph]):
        if not domains:
            raise IngestError("dataset must contain at least one domain")
        for want, graph in enumerate(domains):
            if graph.domain != want:
                raise IngestError(f"domain ids must be dense from 0, got {graph.domain}")
        self.domains = list(domains)

    @property
    def keys(self) -> np.ndarray:
        """Sorted union of the current graphs' node keys."""
        return sorted_unique(np.concatenate([graph.keys for graph in self.domains]))

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def graph(self, d: int) -> DomainGraph:
        return self.domains[d]


def ingest(records: Iterable[tuple[int, int, int]] | np.ndarray) -> MultiDomainDataset:
    """Build a dataset from (domain, user_id, item_id) records: an (n, 3)
    integer array or an iterable of triples.

    Duplicate records within a domain are deduplicated. Domain ids must be
    dense from 0 and every domain must have at least one interaction. A
    malformed record, or one with an id below 0 or above MAX_ID, raises
    IngestError naming its 1-based position.
    """
    if not isinstance(records, np.ndarray):
        records = list(records)
    if len(records) == 0:
        raise IngestError("no interaction records")
    try:
        rows = np.asarray(records, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    malformed = rows is None or rows.shape != (len(records), 3)
    if malformed or (rows < 0).any() or (rows > MAX_ID).any():
        # error path only: name the first malformed or out-of-range record
        for k, rec in enumerate(records, start=1):
            try:
                d, u, i = (int(x) for x in rec)
            except (TypeError, ValueError):
                raise IngestError(f"line {k}: malformed record {rec!r}") from None
            if min(d, u, i) < 0 or max(d, u, i) > MAX_ID:
                problem = "negative id" if min(d, u, i) < 0 else f"id above {MAX_ID}"
                raise IngestError(f"line {k}: {problem} in record {(d, u, i)!r}")
        raise IngestError("records must be (domain, user_id, item_id) integer triples")
    domains, counts = np.unique(rows[:, 0], return_counts=True)
    missing = np.flatnonzero(domains != np.arange(len(domains)))
    if len(missing):
        raise IngestError(f"domain {missing[0]} has no interactions")
    by_domain = rows[np.argsort(rows[:, 0], kind="stable"), 1:]
    return MultiDomainDataset(
        [
            DomainGraph(d, edges)
            for d, edges in enumerate(np.split(by_domain, np.cumsum(counts)[:-1]))
        ]
    )


def load_interactions(path: str | Path) -> np.ndarray:
    """Read interaction records from a text file into an (n, 3) int64 array.

    The grammar, line by line:

    - a line that is empty, holds only whitespace, or whose first
      non-whitespace character is `#` is skipped;
    - any other line is `domain<TAB>user<TAB>item`, optionally followed by
      more tab-separated fields, which are ignored;
    - each of the first three fields is a base-10 integer as Python's `int`
      reads it (surrounding whitespace allowed), at least 0 and at most
      MAX_ID = 2^62 - 1.

    The first line that breaks a rule raises IngestError naming the file and
    the line's 1-based number in it. Rows keep file order. A canonical file,
    as `write_interactions` writes it, is parsed in one numpy pass
    (`_canonical_rows`); any other goes through the line loop.
    """
    with open(path, "rb") as handle:
        rows = _canonical_rows(handle.read())
    return rows if rows is not None else _rows_by_lines(path)


def _canonical_rows(raw: bytes) -> np.ndarray | None:
    """The (n, 3) int64 rows of a canonical file: only digits, tabs and
    newlines, exactly three fields a line and 1 to 18 digits a field (so
    every id is below MAX_ID); None for any other file. A checked file is
    read by `np.fromstring`, whose whitespace separator matches tabs and
    newlines alike."""
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    text = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero(text < ord("0"))
    lengths = np.diff(seps, prepend=-1)
    lengths -= 1  # digits before each separator
    if not (
        (text <= ord("9")).all()
        and len(seps) % 3 == 0
        and (text[seps].reshape(-1, 3) == (ord("\t"), ord("\t"), ord("\n"))).all()
        and lengths.min(initial=1) >= 1
        and lengths.max(initial=0) <= 18
    ):
        return None
    return np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 3)


def _rows_by_lines(path: str | Path) -> np.ndarray:
    """`load_interactions` one line at a time, for any file."""
    flat: list[int] = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        fields = line.split("\t", 3)
        try:
            d, u, i = int(fields[0]), int(fields[1]), int(fields[2])
        except (IndexError, ValueError):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                message = f"expected at least 3 tab-separated fields, got {len(fields)}"
            else:
                message = f"non-integer field in {fields[:3]!r}"
            raise IngestError(f"{path} line {line_no}: {message}") from None
        if not (0 <= d <= MAX_ID and 0 <= u <= MAX_ID and 0 <= i <= MAX_ID):
            problem = "negative id" if min(d, u, i) < 0 else f"id above {MAX_ID}"
            raise IngestError(f"{path} line {line_no}: {problem} in record {(d, u, i)!r}")
        flat += (d, u, i)
    return np.array(flat, dtype=np.int64).reshape(-1, 3)


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text as `open` reads it; other bytes raise ValueError naming `path`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def read_key_values(path: str | Path, error: type[Exception] = ValueError) -> dict[str, str]:
    """Read `key = value` lines; blank lines and `#` comments are skipped.

    A line without `=` raises `error` naming the file and the line number.
    """
    values: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise error(f"{path} line {line_no}: expected key = value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside `path`; a clean exit fsyncs it and renames
    it over `path`, so an interrupted write never leaves a partial file.

    If the block raises, the temporary file is removed and an earlier file at
    `path` is left as it was. Text modes write UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


WRITE_BLOCK = 1 << 16  # rows a `write_interactions` format call takes


def write_interactions(
    path: str | Path, records: Sequence[tuple[int, int, int]] | np.ndarray
) -> None:
    """Write records as tab-separated lines, one a record, in the order given.

    `records` holds (domain, user, item) triples: a sequence of tuples or an
    (n, 3) integer array. Each line is `d<TAB>u<TAB>i`, each id as `str`
    writes it. Nothing is sorted or deduplicated: `synthgen.generate` returns
    its rows sorted by domain, then user, then item, which is the order its
    files keep. Lines are formatted `WRITE_BLOCK` rows at a time, one `%` call
    a block, so the Python ints and strings alive at once are bounded by the
    block, not the file. The file is written atomically.
    """
    rows = np.asarray(records, dtype=np.int64).reshape(-1, 3)
    with atomic_write(path) as handle:
        for start in range(0, len(rows), WRITE_BLOCK):
            block = rows[start : start + WRITE_BLOCK]
            handle.write(("%d\t%d\t%d\n" * len(block)) % tuple(block.ravel().tolist()))


def ingest_file(path: str | Path) -> MultiDomainDataset:
    return ingest(load_interactions(path))


def anchors(dataset: MultiDomainDataset, d: int, d_prime: int) -> np.ndarray:
    """Ascending keys of the overlapping nodes of two domains:
    (U^d ∩ U^d') ∪ (I^d ∩ I^d'), the same in either order."""
    if d == d_prime:
        raise ValueError("anchor set requires two distinct domains")
    return np.intersect1d(dataset.graph(d).keys, dataset.graph(d_prime).keys, assume_unique=True)

