"""Random-walk node similarity across domain pairs.

For a pair of domains, the overlapping nodes act as anchors. From every node
we run fixed-length uniform random walks and count which anchor each walk
terminates on; the cosine of two nodes' stop-count vectors measures how
similarly they relate to the shared anchors, even when the nodes live in
different domains. Per source node, the top-k most similar same-kind nodes of
the other domain become alignment pairs.

Walk streams are seeded per source node from `(rng_seed, kind, id)`, so
results do not depend on scheduling or iteration order. A node's walk
endpoints therefore depend only on its graph and that stream: `run_walks`
walks each domain graph once into a stop table, which every partner domain
and both directions of a pair read through their own anchor map.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .mdgraph import (
    MAX_ID,
    DomainGraph,
    MultiDomainDataset,
    NodeId,
    NodeKind,
    anchors,
    atomic_write,
    split_keys,
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


def run_walks(graph: DomainGraph, cfg: WalkConfig) -> np.ndarray:
    """Read-only `(n_nodes, num_walks)` walk endpoints; row r holds the local
    indices of the final nodes of the walks from local node r.

    Each walk takes exactly `walk_length` uniform steps. The walks of a node
    draw from its own stream, seeded by `(rng_seed, kind, id)`.
    """
    table = np.empty((graph.n_nodes, cfg.num_walks), dtype=np.int64)
    indptr, indices = graph.adj_indptr, graph.adj_indices
    kinds, ids = split_keys(graph.keys)
    for row, (kind, node_id) in enumerate(zip(kinds.tolist(), ids.tolist())):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.rng_seed, kind, node_id)))
        current = np.full(cfg.num_walks, row, dtype=np.int64)
        for _ in range(cfg.walk_length):
            start = indptr[current]
            step = (rng.random(cfg.num_walks) * (indptr[current + 1] - start)).astype(np.int64)
            current = indices[start + step]
        table[row] = current
    table.flags.writeable = False
    return table


def _anchor_positions(graph: DomainGraph, anchor_keys: np.ndarray) -> np.ndarray:
    """Position in `anchor_keys` of each local node of `graph`; -1 for non-anchors."""
    positions = np.full(graph.n_nodes, -1, dtype=np.int64)
    in_graph = np.isin(anchor_keys, graph.keys)
    positions[np.searchsorted(graph.keys, anchor_keys[in_graph])] = np.flatnonzero(in_graph)
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


def mine_pairs(
    dataset: MultiDomainDataset, d: int, d_prime: int, k: int, stops: Sequence[np.ndarray]
) -> SimilarPairSet:
    """Top-k similar nodes in `d_prime` for every node of `d`, from the
    `run_walks` tables of the dataset's graphs (`stops[d]` walks graph d).

    Candidates are restricted to the source node's kind: on a bipartite graph
    a walk of even length terminates on the source's own side, so cross-kind
    stop profiles cannot match. Pairs with zero similarity are omitted; equal
    similarities break toward the smaller node id. Proportional stop-count
    vectors tie in exact arithmetic, but each is normalised before the
    product, so their floating-point cosines can differ in the last bit and
    such ties are decided by rounding. Exact brute force over all candidates.
    A table whose shape does not match its graph raises ValueError.
    """
    if d == d_prime:
        raise ValueError("pair mining requires two distinct domains")
    if k < 1:
        raise ValueError("k must be at least 1")
    src_graph, dst_graph = dataset.graph(d), dataset.graph(d_prime)
    src_stops, dst_stops = stops[d], stops[d_prime]
    for graph, table in ((src_graph, src_stops), (dst_graph, dst_stops)):
        if table.shape[:-1] != (graph.n_nodes,):
            raise ValueError(f"stop table of shape {table.shape} for {graph.n_nodes} nodes")
    anchor_keys = anchors(dataset, d, d_prime)
    if len(anchor_keys) == 0:
        return SimilarPairSet((d, d_prime), ())

    src_pos = _anchor_positions(src_graph, anchor_keys)
    dst_pos = _anchor_positions(dst_graph, anchor_keys)
    n_src_users, n_dst_users = src_graph.n_users, dst_graph.n_users
    out: list[SimilarPair] = []
    # local order puts users before items, so each kind is one block of rows
    for kind, src_rows, dst_rows, src_ids, dst_ids in (
        (NodeKind.USER, slice(0, n_src_users), slice(0, n_dst_users),
         src_graph.user_ids, dst_graph.user_ids),
        (NodeKind.ITEM, slice(n_src_users, None), slice(n_dst_users, None),
         src_graph.item_ids, dst_graph.item_ids),
    ):
        src_mat = _normalized_rows(_stop_counts(src_stops[src_rows], src_pos, len(anchor_keys)))
        dst_mat = _normalized_rows(_stop_counts(dst_stops[dst_rows], dst_pos, len(anchor_keys)))
        sims = np.clip(src_mat @ dst_mat.T, 0.0, 1.0)
        for row, src_id in enumerate(src_ids.tolist()):
            order = np.lexsort((dst_ids, -sims[row]))
            for col in order[:k]:
                s = float(sims[row, col])
                if s > 0.0:
                    target = NodeId(kind, int(dst_ids[col]))
                    out.append(SimilarPair(NodeId(kind, src_id), target, s))
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
    if min(d, d_prime, source, target) < 0 or max(source, target) > MAX_ID:
        raise ValueError(f"domain or node id outside [0, {MAX_ID}] in {fields[:5]!r}")
    if d == d_prime:
        raise ValueError(f"pair domains must differ, got {d} twice")
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
