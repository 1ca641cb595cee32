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

A node's stream is numpy's `default_rng(SeedSequence((rng_seed, kind,
id)))`, but no generator is seeded per node: `seeding.pcg64_states` replays
the seeding for every node of a graph at once, and `run_walks` loads each
state into one shared `PCG64` and fills the node's `(walk_length,
num_walks)` draws. The steps then run on arrays, `WALK_BLOCK` nodes at a
time. Mining is array code too: stop counts are one `bincount`, and
top-k is k rounds of a row-wise `argmax`. A `SimilarPairSet` holds its pairs
as arrays; `write_pairs` formats them in one pass and `load_pairs` reads a
canonical file with `np.loadtxt`.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from itertools import chain
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
    read_text,
    split_keys,
)
from .seeding import pcg64_states

WALK_BLOCK = 64  # nodes whose walks step together; bounds the draw buffer


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


@dataclass(frozen=True, eq=False)
class SimilarPairSet:
    """Top-k similar target nodes per source node, for one ordered domain pair.

    Pair j joins node `(kinds[j], sources[j])` of the source domain to node
    `(kinds[j], targets[j])` of the target domain at `similarities[j]`; ids
    are raw ids, and both nodes are of one kind.
    """

    domain_pair: tuple[int, int]  # (source domain, target domain)
    kinds: np.ndarray  # int64 NodeKind values
    sources: np.ndarray  # int64 ids
    targets: np.ndarray  # int64 ids
    similarities: np.ndarray  # float64, in (0, 1]

    def __post_init__(self):
        """ValueError unless the four arrays have one length and the two
        domains differ: pairs match sources with targets by position."""
        lengths = [len(self.kinds), len(self.sources), len(self.targets), len(self.similarities)]
        if len(set(lengths)) > 1:
            raise ValueError(f"kinds, sources, targets and similarities must have one length, got {lengths}")
        if self.domain_pair[0] == self.domain_pair[1]:
            raise ValueError(f"pair domains must differ, got {self.domain_pair[0]} twice")

    @property
    def pairs(self) -> tuple[SimilarPair, ...]:
        """The pairs as records, in array order."""
        return tuple(
            SimilarPair(NodeId(NodeKind(kind), source), NodeId(NodeKind(kind), target), sim)
            for kind, source, target, sim in zip(
                self.kinds.tolist(), self.sources.tolist(), self.targets.tolist(),
                self.similarities.tolist(),
            )
        )

    def __len__(self) -> int:
        return len(self.sources)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarPairSet):
            return NotImplemented
        return self.domain_pair == other.domain_pair and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("kinds", "sources", "targets", "similarities")
        )


def run_walks(graph: DomainGraph, cfg: WalkConfig) -> np.ndarray:
    """Read-only `(n_nodes, num_walks)` walk endpoints; row r holds the local
    indices of the final nodes of the walks from local node r.

    Each walk takes exactly `walk_length` uniform steps. The walks of a node
    draw from its own stream, seeded by `(rng_seed, kind, id)`: step t of
    walk w scales draw `t * num_walks + w` of the stream by the current
    node's degree.
    """
    n, n_walks, n_steps = graph.n_nodes, cfg.num_walks, cfg.walk_length
    table = np.empty((n, n_walks), dtype=np.int64)
    indptr, indices = graph.adj_indptr, graph.adj_indices
    degree = np.diff(indptr).astype(np.float64)  # exact; a float factor multiplies faster
    kinds, ids = split_keys(graph.keys)
    hi, lo, inc_hi, inc_lo = (a.tolist() for a in pcg64_states([cfg.rng_seed, kinds, ids], n))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    draws = np.empty((min(n, WALK_BLOCK), n_steps, n_walks))
    for first in range(0, n, WALK_BLOCK):
        rows = range(first, min(first + WALK_BLOCK, n))
        for slot, row in enumerate(rows):
            state["state"] = {"state": hi[row] << 64 | lo[row], "inc": inc_hi[row] << 64 | inc_lo[row]}
            bitgen.state = state
            gen.random(out=draws[slot])
        current = np.arange(rows.start, rows.stop)[:, None]  # broadcasts over the walks
        for t in range(n_steps):
            step = (draws[: len(rows), t] * degree[current]).astype(np.int64)
            current = indices[indptr[current] + step]
        table[rows.start : rows.stop] = current
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
    # non-anchors count in one extra column, which is dropped
    width = n_anchors + 1
    column = np.where(positions < 0, n_anchors, positions)
    flat = column[stops]
    flat += (np.arange(len(stops)) * width)[:, None]
    counts = np.bincount(flat.ravel(), minlength=len(stops) * width)
    return counts.reshape(len(stops), width)[:, :n_anchors]


def _normalized_rows(counts: np.ndarray) -> np.ndarray:
    # the sums of squares are exact integers, so each norm equals np.linalg.norm's
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts).astype(np.float64))
    norms[norms == 0.0] = 1.0  # all-zero rows stay zero
    return counts / norms[:, None]


def _top_k(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, similarity) of each row's k best positive entries under
    the order (-similarity, column), rows ascending, best first in a row.

    Each round takes every row's `argmax`, the first maximum and so the
    smallest column among ties, and overwrites it in `sims` with -1, below
    every clipped similarity; the caller's `sims` is spent.
    """
    n_rows, n_cols = sims.shape
    rows, rounds = np.arange(n_rows), min(k, n_cols)
    cols = np.empty((n_rows, rounds), dtype=np.int64)
    best = np.empty((n_rows, rounds))
    for r in range(rounds):
        col = np.argmax(sims, axis=1)
        cols[:, r], best[:, r] = col, sims[rows, col]
        sims[rows, col] = -1.0
    cols, best = cols.ravel(), best.ravel()
    keep = best > 0.0
    return np.repeat(rows, rounds)[keep], cols[keep], best[keep]


def mine_pairs(
    dataset: MultiDomainDataset,
    d: int,
    d_prime: int,
    k: int,
    stops: Sequence[np.ndarray],
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
    empty = np.empty(0, dtype=np.int64)
    if len(anchor_keys) == 0:
        return SimilarPairSet((d, d_prime), empty, empty, empty, np.empty(0))

    src_mat, dst_mat = (
        _normalized_rows(_stop_counts(table, _anchor_positions(graph, anchor_keys), len(anchor_keys)))
        for graph, table in ((src_graph, src_stops), (dst_graph, dst_stops))
    )
    n_src_users, n_dst_users = src_graph.n_users, dst_graph.n_users
    parts = []
    # local order puts users before items, so each kind is one block of rows
    for kind, src_rows, dst_rows, src_ids, dst_ids in (
        (NodeKind.USER, slice(0, n_src_users), slice(0, n_dst_users),
         src_graph.user_ids, dst_graph.user_ids),
        (NodeKind.ITEM, slice(n_src_users, None), slice(n_dst_users, None),
         src_graph.item_ids, dst_graph.item_ids),
    ):
        # each direction takes its own product: the transpose of the other's
        # need not be bit-equal
        sims = src_mat[src_rows] @ dst_mat[dst_rows].T
        np.clip(sims, 0.0, 1.0, out=sims)
        rows, cols, best = _top_k(sims, k)
        parts.append((np.full(len(rows), kind, dtype=np.int64), src_ids[rows], dst_ids[cols], best))
    return SimilarPairSet((d, d_prime), *(np.concatenate(column) for column in zip(*parts)))


_KIND_NAMES = ("user", "item")


def write_pairs(path: str | Path, pair_sets: Sequence[SimilarPairSet]) -> None:
    """Tab-separated export: d, d', kind, source id, target id, similarity.

    The file is written under a temporary name in the same directory and
    renamed into place, so an interrupted write never leaves a partial file.
    """
    with atomic_write(path) as handle:
        for pair_set in pair_sets:
            d, d_prime = pair_set.domain_pair
            fields = zip(
                map(_KIND_NAMES.__getitem__, pair_set.kinds.tolist()),
                pair_set.sources.tolist(),
                pair_set.targets.tolist(),
                pair_set.similarities.tolist(),
            )
            values = tuple(chain.from_iterable(fields))
            # one `%` call a pair set; "%.12g" % x is format(x, ".12g")
            line = f"{d}\t{d_prime}\t%s\t%d\t%d\t%.12g\n"
            handle.write((line * (len(values) // 4)) % values)


_PAIR_KINDS = {"user": NodeKind.USER, "item": NodeKind.ITEM}
_PAIR_ROW = np.dtype([
    ("d", "<i8"), ("d_prime", "<i8"), ("kind", "U4"), ("source", "<i8"), ("target", "<i8"),
    ("sim", "<f8"),
])
# what `write_pairs` writes, each integer at most 18 digits (below MAX_ID, so
# no field overflows int64): a file of only such lines is read in one numpy pass
_CANONICAL_PAIRS = re.compile(
    r"(?:[0-9]{1,18}\t[0-9]{1,18}\t(?:user|item)\t[0-9]{1,18}\t[0-9]{1,18}"
    r"\t(?:1|0\.[0-9]+|[1-9](?:\.[0-9]+)?e-[0-9]+)\n)*"
)


def _parse_pair_line(fields: list[str]) -> tuple[int, int, int, int, int, float]:
    """One export line's (d, d', kind, source, target, similarity); raises
    ValueError saying what is wrong."""
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
    if min(d, d_prime, source, target) < 0 or max(d, d_prime, source, target) > MAX_ID:
        raise ValueError(f"domain or node id outside [0, {MAX_ID}] in {fields[:5]!r}")
    if d == d_prime:
        raise ValueError(f"pair domains must differ, got {d} twice")
    try:
        sim = float(similarity)
    except ValueError:
        raise ValueError(f"similarity {similarity!r} is not a number") from None
    if not 0.0 < sim <= 1.0:
        raise ValueError(f"similarity {sim} outside (0, 1]")
    return d, d_prime, int(kind), source, target, sim


def _parse_canonical(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """`(ints, sims)` of a file of canonical lines: an (n, 5) int64 array of
    (d, d', kind, source, target) and the n similarities; None for any other
    file, or one with a value the line loop refuses."""
    if not _CANONICAL_PAIRS.fullmatch(text):
        return None
    if not text:
        return np.empty((0, 5), dtype=np.int64), np.empty(0)
    rows = np.loadtxt(io.StringIO(text), dtype=_PAIR_ROW, delimiter="\t", comments=None, ndmin=1)
    kinds = (rows["kind"] == "item").astype(np.int64)
    ints = np.column_stack([rows["d"], rows["d_prime"], kinds, rows["source"], rows["target"]])
    sims = rows["sim"]
    valid = (ints[:, 0] != ints[:, 1]) & (sims > 0.0) & (sims <= 1.0)
    return (ints, sims) if valid.all() else None


def _parse_lines(path: str | Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """`_parse_canonical`'s arrays for any text, one line at a time: blank
    and `#` lines are skipped, and the first bad line raises ValueError
    naming `path` and its line number."""
    rows = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            rows.append(_parse_pair_line(line.split("\t")))
        except ValueError as err:
            raise ValueError(f"{path} line {line_no}: {err}") from None
    ints = np.array([row[:5] for row in rows], dtype=np.int64).reshape(-1, 5)
    return ints, np.array([row[5] for row in rows], dtype=np.float64)


def load_pairs(path: str | Path) -> list[SimilarPairSet]:
    """Read a pair export back into one SimilarPairSet per ordered domain pair,
    in (d, d') order; each keeps its pairs in file order.

    A malformed line raises ValueError naming the file and the line number,
    a file that is not UTF-8 one naming the file. A file of only the lines
    `write_pairs` writes, each integer at most 18 digits long, is parsed in
    one `np.loadtxt` pass; any other goes through the line loop, which names
    the first bad line.
    """
    text = read_text(path)
    parsed = _parse_canonical(text)
    ints, sims = parsed if parsed is not None else _parse_lines(path, text)
    order = np.lexsort((ints[:, 1], ints[:, 0]))  # stable: file order within a domain pair
    ints, sims = ints[order], sims[order]
    pairs, starts = np.unique(ints[:, :2], axis=0, return_index=True)
    bounds = [*starts.tolist(), len(ints)]
    return [
        SimilarPairSet((d, d_prime), *ints[lo:hi, 2:].T.copy(), sims[lo:hi])
        for (d, d_prime), lo, hi in zip(pairs.tolist(), bounds[:-1], bounds[1:])
    ]
