"""Multi-domain interaction data: per-domain bipartite graphs and cross-domain anchors.

Users and items are identified by integer ids that are globally unique within
their kind; the same (kind, id) appearing in two domains denotes the same
entity, which is what defines overlap between domains.
"""

from __future__ import annotations

import enum
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp


class NodeKind(enum.IntEnum):
    USER = 0
    ITEM = 1


class NodeId(NamedTuple):
    kind: NodeKind
    id: int


class Interaction(NamedTuple):
    domain: int
    user: NodeId
    item: NodeId


class IngestError(ValueError):
    """Raised for malformed or inconsistent interaction records."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainGraph:
    """Immutable bipartite graph of one domain.

    Nodes are indexed locally: users first (sorted by id), then items
    (sorted by id), so local order coincides with (kind, id) order.
    Only nodes with at least one interaction are part of the graph.
    """

    def __init__(self, domain: int, edges: Sequence[tuple[int, int]] | np.ndarray):
        """`edges` holds raw (user_id, item_id) pairs: tuples or an (n, 2) array."""
        if len(edges) == 0:
            raise IngestError(f"domain {domain} has no interactions")
        self.domain = domain
        edge_arr = np.unique(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=0)
        self.user_ids = np.unique(edge_arr[:, 0])
        self.item_ids = np.unique(edge_arr[:, 1])
        # local edge endpoints, canonical order: sorted by (user, item)
        self.edge_user = np.searchsorted(self.user_ids, edge_arr[:, 0])
        self.edge_item = np.searchsorted(self.item_ids, edge_arr[:, 1])

        n_u, n_i = len(self.user_ids), len(self.item_ids)
        self.user_degree = np.bincount(self.edge_user, minlength=n_u)
        self.item_degree = np.bincount(self.edge_item, minlength=n_i)

        # combined node-level CSR over [users | items], used by walks
        order_u = np.lexsort((self.edge_item, self.edge_user))
        order_i = np.lexsort((self.edge_user, self.edge_item))
        self.adj_indptr = np.concatenate(
            [[0], np.cumsum(np.concatenate([self.user_degree, self.item_degree]))]
        )
        self.adj_indices = np.concatenate(
            [self.edge_item[order_u] + n_u, self.edge_user[order_i]]
        )

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

    def node_ids(self) -> list[NodeId]:
        """All nodes in local order (users sorted by id, then items)."""
        return [NodeId(NodeKind.USER, int(u)) for u in self.user_ids] + [
            NodeId(NodeKind.ITEM, int(i)) for i in self.item_ids
        ]

    def local_index(self, node: NodeId) -> int:
        """Local node index; users occupy [0, n_users), items follow."""
        ids = self.user_ids if node.kind == NodeKind.USER else self.item_ids
        pos = int(np.searchsorted(ids, node.id))
        if pos >= len(ids) or ids[pos] != node.id:
            raise KeyError(f"{node} not in domain {self.domain}")
        return pos if node.kind == NodeKind.USER else self.n_users + pos

    def user_item_pairs(self) -> np.ndarray:
        """(n_edges, 2) array of raw (user_id, item_id) pairs, canonical order."""
        return np.column_stack(
            [self.user_ids[self.edge_user], self.item_ids[self.edge_item]]
        )

    def sym_norm_adjacency(self, mask: np.ndarray | None = None) -> sp.csr_matrix:
        """Symmetric degree-normalized adjacency D^{-1/2} A D^{-1/2}.

        Degrees are always the full-graph degrees; `mask` (boolean, one entry
        per edge in canonical order) only removes edges from A, so the
        per-edge normalization is unchanged under edge dropout.
        """
        e_u, e_i = self.edge_user, self.edge_item
        if mask is not None:
            if mask.shape != (self.n_edges,):
                raise ValueError("edge mask must have one entry per edge")
            e_u, e_i = e_u[mask], e_i[mask]
        w = 1.0 / np.sqrt(
            self.user_degree[e_u].astype(np.float64) * self.item_degree[e_i]
        )
        rows = np.concatenate([e_u, e_i + self.n_users])
        cols = np.concatenate([e_i + self.n_users, e_u])
        a = sp.coo_matrix(
            (np.concatenate([w, w]), (rows, cols)),
            shape=(self.n_nodes, self.n_nodes),
        )
        return a.tocsr()


@dataclass(frozen=True)
class AnchorSet:
    """Nodes present in both domains of a pair, in (kind, id) order."""

    domain_pair: tuple[int, int]
    nodes: tuple[NodeId, ...]

    def __post_init__(self):
        d, d_prime = self.domain_pair
        if d >= d_prime:
            raise ValueError("domain_pair must be ordered (first < second)")

    def __len__(self) -> int:
        return len(self.nodes)


class MultiDomainDataset:
    """An ordered collection of domain graphs with a shared node identity space."""

    def __init__(self, domains: Sequence[DomainGraph]):
        if not domains:
            raise IngestError("dataset must contain at least one domain")
        for want, graph in enumerate(domains):
            if graph.domain != want:
                raise IngestError(f"domain ids must be dense from 0, got {graph.domain}")
        self.domains = list(domains)
        nodes: set[NodeId] = set()
        for graph in self.domains:
            nodes.update(graph.node_ids())
        self.all_nodes: tuple[NodeId, ...] = tuple(sorted(nodes))

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def n_nodes(self) -> int:
        return len(self.all_nodes)

    def graph(self, d: int) -> DomainGraph:
        return self.domains[d]

    def interactions(self, d: int) -> Iterator[Interaction]:
        for u, i in self.domains[d].user_item_pairs():
            yield Interaction(d, NodeId(NodeKind.USER, int(u)), NodeId(NodeKind.ITEM, int(i)))

    def records(self) -> list[tuple[int, int, int]]:
        """All (domain, user_id, item_id) records in canonical order."""
        out = []
        for d, graph in enumerate(self.domains):
            for u, i in graph.user_item_pairs():
                out.append((d, int(u), int(i)))
        return out


def ingest(records: Iterable[tuple[int, int, int]]) -> MultiDomainDataset:
    """Build a dataset from (domain, user_id, item_id) records.

    Duplicate records within a domain are deduplicated. Domain ids must be
    dense from 0 and every domain must have at least one interaction.
    """
    per_domain: dict[int, set[tuple[int, int]]] = {}
    for line_no, rec in enumerate(records, start=1):
        try:
            d, u, i = (int(x) for x in rec)
        except (TypeError, ValueError):
            raise IngestError(f"malformed record {rec!r}", line=line_no) from None
        if d < 0 or u < 0 or i < 0:
            raise IngestError(f"negative id in record {rec!r}", line=line_no)
        per_domain.setdefault(d, set()).add((u, i))
    if not per_domain:
        raise IngestError("no interaction records")
    n_domains = max(per_domain) + 1
    for d in range(n_domains):
        if d not in per_domain:
            raise IngestError(f"domain {d} has no interactions")
    return MultiDomainDataset(
        [DomainGraph(d, sorted(per_domain[d])) for d in range(n_domains)]
    )


def parse_interaction_line(line: str, line_no: int) -> tuple[int, int, int] | None:
    """Parse one `domain<TAB>user<TAB>item` line; None for comments/blank lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 3:
        raise IngestError(f"expected at least 3 tab-separated fields, got {len(fields)}", line=line_no)
    try:
        return int(fields[0]), int(fields[1]), int(fields[2])
    except ValueError:
        raise IngestError(f"non-integer field in {fields[:3]!r}", line=line_no) from None


def load_interactions(path: str | Path) -> list[tuple[int, int, int]]:
    """Read interaction records from a tab-separated text file."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            rec = parse_interaction_line(line, line_no)
            if rec is not None:
                records.append(rec)
    return records


def read_key_values(path: str | Path, error: type[Exception] = ValueError) -> dict[str, str]:
    """Read `key = value` lines; blank lines and `#` comments are skipped.

    A line without `=` raises `error` naming the file and the line number.
    """
    values: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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


def write_interactions(
    path: str | Path, records: Iterable[tuple[int, int, int]] | np.ndarray
) -> None:
    """Write records as tab-separated lines in sorted order (deterministic bytes).

    `records` holds (domain, user, item) triples: tuples or an (n, 3) integer
    array. The file is written atomically.
    """
    if not isinstance(records, np.ndarray):
        records = list(records)
    rows = np.asarray(records, dtype=np.int64).reshape(-1, 3)
    rows = rows[np.lexsort(rows.T[::-1])]
    with atomic_write(path) as handle:
        handle.write("".join(f"{d}\t{u}\t{i}\n" for d, u, i in rows.tolist()))


def ingest_file(path: str | Path) -> MultiDomainDataset:
    return ingest(load_interactions(path))


def anchors(dataset: MultiDomainDataset, d: int, d_prime: int) -> AnchorSet:
    """Overlapping nodes of two domains: (U^d ∩ U^d') ∪ (I^d ∩ I^d')."""
    if d == d_prime:
        raise ValueError("anchor set requires two distinct domains")
    lo, hi = min(d, d_prime), max(d, d_prime)
    ga, gb = dataset.graph(lo), dataset.graph(hi)
    common_users = np.intersect1d(ga.user_ids, gb.user_ids)
    common_items = np.intersect1d(ga.item_ids, gb.item_ids)
    nodes = tuple(
        [NodeId(NodeKind.USER, int(u)) for u in common_users]
        + [NodeId(NodeKind.ITEM, int(i)) for i in common_items]
    )
    return AnchorSet(domain_pair=(lo, hi), nodes=nodes)


def overlap_ratio(
    dataset: MultiDomainDataset, d: int, d_prime: int, kind: NodeKind | None = None
) -> float:
    """Jaccard-style overlap between two domains.

    Pooled by default: (|U∩| + |I∩|) / (|U∪| + |I∪|). Pass `kind` to get the
    per-kind ratio instead. A ratio over an empty union is defined as 0.
    """
    if d == d_prime:
        raise ValueError("overlap ratio requires two distinct domains")
    ga, gb = dataset.graph(d), dataset.graph(d_prime)
    inter = 0
    union = 0
    if kind in (None, NodeKind.USER):
        inter += len(np.intersect1d(ga.user_ids, gb.user_ids))
        union += len(np.union1d(ga.user_ids, gb.user_ids))
    if kind in (None, NodeKind.ITEM):
        inter += len(np.intersect1d(ga.item_ids, gb.item_ids))
        union += len(np.union1d(ga.item_ids, gb.item_ids))
    return inter / union if union else 0.0
