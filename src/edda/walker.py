"""Random-walk node similarity across domain pairs.

For a pair of domains, the overlapping nodes act as anchors. From every node
we run fixed-length uniform random walks and count which anchor each walk
terminates on; the cosine of two nodes' stop-count vectors measures how
similarly they relate to the shared anchors, even when the nodes live in
different domains. Per source node, the top-k most similar same-kind nodes of
the other domain become alignment pairs.

Walk streams are seeded per source node from `(rng_seed, kind, id)`, so
results do not depend on scheduling or iteration order. A node's walk
endpoints therefore depend only on its graph and that stream: each domain
graph is walked once per `WalkConfig` into a stop table, which every partner
domain and both directions of a pair read through their own anchor map.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .mdgraph import (
    AnchorSet,
    DomainGraph,
    MultiDomainDataset,
    NodeId,
    NodeKind,
    anchors,
    atomic_write,
)


@dataclass(frozen=True)
class WalkConfig:
    walk_length: int = 4
    num_walks: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        if self.walk_length < 1:
            raise ValueError("walk_length must be at least 1")
        if self.num_walks < 1:
            raise ValueError("num_walks must be at least 1")


@dataclass(frozen=True)
class SimilarPair:
    source: NodeId  # node in the first domain of the pair
    target: NodeId  # node in the second domain of the pair
    similarity: float


@dataclass(frozen=True)
class SimilarPairSet:
    """Top-k similar target nodes per source node, for one ordered domain pair."""

    domain_pair: tuple[int, int]  # (source domain, target domain)
    pairs: tuple[SimilarPair, ...]


def _source_rng(cfg: WalkConfig, node: NodeId) -> np.random.Generator:
    # independent stream per source node, derived from the root seed
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.rng_seed, int(node.kind), int(node.id)))
    )


def _simulate_stops(graph: DomainGraph, start: int, cfg: WalkConfig, rng) -> np.ndarray:
    """Local indices of the final nodes of `num_walks` walks from `start`."""
    current = np.full(cfg.num_walks, start, dtype=np.int64)
    indptr, indices = graph.adj_indptr, graph.adj_indices
    for _ in range(cfg.walk_length):
        start_ix = indptr[current]
        degree = indptr[current + 1] - start_ix
        step = (rng.random(cfg.num_walks) * degree).astype(np.int64)
        current = indices[start_ix + step]
    return current


# graph -> WalkConfig -> stop table; keyed by identity, so entries die with the graph
_STOP_TABLES: weakref.WeakKeyDictionary[DomainGraph, dict[WalkConfig, np.ndarray]] = (
    weakref.WeakKeyDictionary()
)


def _stop_table(graph: DomainGraph, cfg: WalkConfig) -> np.ndarray:
    """Read-only `(n_nodes, num_walks)` walk endpoints; row r starts at local node r."""
    tables = _STOP_TABLES.setdefault(graph, {})
    table = tables.get(cfg)
    if table is None:
        table = np.empty((graph.n_nodes, cfg.num_walks), dtype=np.int64)
        for row, node in enumerate(graph.node_ids()):
            table[row] = _simulate_stops(graph, row, cfg, _source_rng(cfg, node))
        table.flags.writeable = False
        tables[cfg] = table
    return table


def _anchor_positions(graph: DomainGraph, anchor_set: AnchorSet) -> np.ndarray:
    """Position in `anchor_set` of each local node of `graph`; -1 for non-anchors."""
    positions = np.full(graph.n_nodes, -1, dtype=np.int64)
    kinds = np.array([node.kind for node in anchor_set.nodes], dtype=np.int64)
    ids = np.array([node.id for node in anchor_set.nodes], dtype=np.int64)
    for kind, graph_ids, offset in (
        (NodeKind.USER, graph.user_ids, 0),
        (NodeKind.ITEM, graph.item_ids, graph.n_users),
    ):
        pos = np.flatnonzero(kinds == kind)
        local = np.searchsorted(graph_ids, ids[pos])
        found = local < len(graph_ids)
        found[found] = graph_ids[local[found]] == ids[pos[found]]
        positions[local[found] + offset] = pos[found]
    return positions


def _stop_counts(stops: np.ndarray, positions: np.ndarray, n_anchors: int) -> np.ndarray:
    """`(len(stops), n_anchors)` counts of each row's walk endpoints per anchor."""
    hit = positions[stops]
    row, col = np.nonzero(hit >= 0)
    flat = np.bincount(row * n_anchors + hit[row, col], minlength=len(stops) * n_anchors)
    return flat.reshape(len(stops), n_anchors)


def _normalized_rows(counts: np.ndarray) -> np.ndarray:
    # the sums of squares are exact integers, so each norm equals np.linalg.norm's
    norms = np.sqrt((counts.astype(np.float64) ** 2).sum(axis=1))
    norms[norms == 0.0] = 1.0  # all-zero rows stay zero
    return counts / norms[:, None]


def run_walks(
    graph: DomainGraph, source: NodeId, anchor_set: AnchorSet, cfg: WalkConfig
) -> np.ndarray:
    """How many fixed-length walks from `source` stop on each anchor of the
    pair, indexed like `anchor_set.nodes`.

    Each walk takes exactly `walk_length` uniform steps; only the final node
    counts, and only if it is an anchor.
    """
    rng = _source_rng(cfg, source)
    stops = _simulate_stops(graph, graph.local_index(source), cfg, rng)
    positions = _anchor_positions(graph, anchor_set)
    return _stop_counts(stops[None, :], positions, len(anchor_set))[0]


def mine_pairs(
    dataset: MultiDomainDataset, d: int, d_prime: int, k: int, cfg: WalkConfig
) -> SimilarPairSet:
    """Top-k similar nodes in `d_prime` for every node of `d`.

    Candidates are restricted to the source node's kind: on a bipartite graph
    a walk of even length terminates on the source's own side, so cross-kind
    stop profiles cannot match. Pairs with zero similarity are omitted; equal
    similarities break toward the smaller node id. Proportional stop-count
    vectors tie in exact arithmetic, but each is normalised before the
    product, so their floating-point cosines can differ in the last bit and
    such ties are decided by rounding. Exact brute force over all candidates.

    The stop tables are memoised by graph identity, so each call re-walks the
    first source of each kind through `run_walks` and requires its table row
    to give the same counts; a graph changed in place after its table was
    built raises RuntimeError instead of mining stale walks.
    """
    if d == d_prime:
        raise ValueError("pair mining requires two distinct domains")
    if k < 1:
        raise ValueError("k must be at least 1")
    anchor_set = anchors(dataset, d, d_prime)
    if len(anchor_set) == 0:
        return SimilarPairSet((d, d_prime), ())

    src_graph, dst_graph = dataset.graph(d), dataset.graph(d_prime)
    src_stops, dst_stops = _stop_table(src_graph, cfg), _stop_table(dst_graph, cfg)
    src_pos = _anchor_positions(src_graph, anchor_set)
    dst_pos = _anchor_positions(dst_graph, anchor_set)
    src_nodes, dst_nodes = src_graph.node_ids(), dst_graph.node_ids()
    n_src_users, n_dst_users = src_graph.n_users, dst_graph.n_users
    out: list[SimilarPair] = []
    # local order puts users before items, so each kind is one block of rows
    for src_rows, dst_rows, dst_ids in (
        (slice(0, n_src_users), slice(0, n_dst_users), dst_graph.user_ids),
        (slice(n_src_users, None), slice(n_dst_users, None), dst_graph.item_ids),
    ):
        src_counts = _stop_counts(src_stops[src_rows], src_pos, len(anchor_set))
        sources = src_nodes[src_rows]
        if len(sources) and not np.array_equal(
            run_walks(src_graph, sources[0], anchor_set, cfg), src_counts[0]
        ):
            raise RuntimeError(
                f"stale stop table for domain {d}: its graph changed after the walks"
            )
        src_mat = _normalized_rows(src_counts)
        dst_mat = _normalized_rows(_stop_counts(dst_stops[dst_rows], dst_pos, len(anchor_set)))
        sims = np.clip(src_mat @ dst_mat.T, 0.0, 1.0)
        targets = dst_nodes[dst_rows]
        for row, src in enumerate(sources):
            order = np.lexsort((dst_ids, -sims[row]))
            for col in order[:k]:
                s = float(sims[row, col])
                if s > 0.0:
                    out.append(SimilarPair(src, targets[col], s))
    return SimilarPairSet((d, d_prime), tuple(out))


def write_pairs(path: str | Path, pair_sets: Sequence[SimilarPairSet]) -> None:
    """Tab-separated export: d, d', kind, source id, target id, similarity.

    The file is written under a temporary name in the same directory and
    renamed into place, so an interrupted write never leaves a partial file.
    """
    with atomic_write(path) as handle:
        for pair_set in pair_sets:
            d, d_prime = pair_set.domain_pair
            for p in pair_set.pairs:
                kind = "user" if p.source.kind == NodeKind.USER else "item"
                handle.write(
                    f"{d}\t{d_prime}\t{kind}\t{p.source.id}\t{p.target.id}\t{p.similarity:.12g}\n"
                )


_PAIR_KINDS = {"user": NodeKind.USER, "item": NodeKind.ITEM}


def _parse_pair_line(fields: list[str]) -> tuple[tuple[int, int], SimilarPair]:
    """One export line's (d, d') and pair; raises ValueError saying what is wrong."""
    if len(fields) != 6:
        raise ValueError(f"expected 6 tab-separated fields, got {len(fields)}")
    d, d_prime, kind_name, source, target, similarity = fields
    kind = _PAIR_KINDS.get(kind_name)
    if kind is None:
        raise ValueError(f"kind must be user or item, got {kind_name!r}")
    try:
        d, d_prime, source, target = int(d), int(d_prime), int(source), int(target)
    except ValueError:
        raise ValueError(f"non-integer domain or node id in {fields[:5]!r}") from None
    try:
        sim = float(similarity)
    except ValueError:
        raise ValueError(f"similarity {similarity!r} is not a number") from None
    if not 0.0 < sim <= 1.0:
        raise ValueError(f"similarity {sim} outside (0, 1]")
    return (d, d_prime), SimilarPair(NodeId(kind, source), NodeId(kind, target), sim)


def load_pairs(path: str | Path) -> list[SimilarPairSet]:
    """Read a pair export back into one SimilarPairSet per ordered domain pair.

    A malformed line raises ValueError naming the file and the line number.
    """
    grouped: dict[tuple[int, int], list[SimilarPair]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                domain_pair, pair = _parse_pair_line(line.rstrip("\n").split("\t"))
            except ValueError as err:
                raise ValueError(f"{path} line {line_no}: {err}") from None
            grouped.setdefault(domain_pair, []).append(pair)
    return [
        SimilarPairSet(pair, tuple(pairs)) for pair, pairs in sorted(grouped.items())
    ]
