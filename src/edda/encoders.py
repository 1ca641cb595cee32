"""Embedding tables and the propagation operator over domain graphs.

The propagation encoder runs L rounds of degree-normalized neighbor
aggregation with a self-residual weighted by alpha:

    e^(l) = alpha * e^(l-1) + (1 - alpha) * sum_{neighbors} e^(l-1) / sqrt(|N_u| |N_i|)

It is linear in the input embeddings, has no trainable parameters and uses a
symmetric operator, so the same map gives the forward pass and the exact
backward pass. `grec_propagate` is the only implementation of the layer loop;
`EDModel.propagated` applies it per domain to the shared and per-domain
tables. Tables are addressed by integer node keys (`node_keys`), never by
per-node lookups.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .mdgraph import DomainGraph, NodeId, NodeKind, atomic_write

TABLE_MAGIC = b"EDDA"
TABLE_VERSION = 1


def node_keys(nodes: Sequence[NodeId]) -> np.ndarray:
    """One integer key per node, `id * 2 + kind`; distinct for distinct nodes."""
    return np.fromiter((n.id * 2 + n.kind for n in nodes), dtype=np.int64, count=len(nodes))


def graph_keys(graph: DomainGraph) -> np.ndarray:
    """Node keys of a domain graph in its local order (users, then items)."""
    return np.concatenate(
        [graph.user_ids * 2 + NodeKind.USER, graph.item_ids * 2 + NodeKind.ITEM]
    )


class EmbeddingTable:
    """Dense embedding rows keyed by NodeId, all of one dimension."""

    def __init__(self, nodes: Sequence[NodeId], matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != len(nodes):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(nodes)} nodes"
            )
        self.nodes: tuple[NodeId, ...] = tuple(nodes)
        self.matrix = matrix
        self._sorted_keys: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def zeros(cls, nodes: Sequence[NodeId], dim: int, dtype=np.float64) -> "EmbeddingTable":
        return cls(nodes, np.zeros((len(nodes), dim), dtype=dtype))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.nodes)

    def row(self, node: NodeId) -> np.ndarray:
        return self.matrix[self.rows(node_keys([node]))[0]]

    def gather(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Rows for the given nodes, in the given order."""
        return self.matrix[self.rows(node_keys(nodes))]

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """Row index of every node key, same shape; KeyError if one is absent."""
        if self._sorted_keys is None:
            own = node_keys(self.nodes)
            order = np.argsort(own, kind="stable")
            # a sentinel above every key turns "past the end" into a mismatch
            self._sorted_keys = (np.append(own[order], np.iinfo(np.int64).max), order)
        sorted_keys, order = self._sorted_keys
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.searchsorted(sorted_keys, keys)
        missing = sorted_keys[pos] != keys
        if missing.any():
            key = int(keys[missing][0])
            raise KeyError(f"{NodeId(NodeKind(key % 2), key // 2)} missing from embedding table")
        return order[pos]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.nodes, self.matrix.copy())


@dataclass(frozen=True)
class GRecConfig:
    """Propagation depth and self-residual weight."""

    num_layers: int = 2
    alpha: float = 0.1

    def __post_init__(self):
        if self.num_layers < 0:
            raise ValueError("num_layers must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def is_identity(self) -> bool:
        """Exact fixpoints: no layers, or a residual weight of one."""
        return self.num_layers == 0 or self.alpha == 1.0


def grec_propagate(op: sp.spmatrix | None, x: np.ndarray, cfg: GRecConfig) -> np.ndarray:
    """Layer-L embeddings of graph-local rows `x`; `x` is not mutated.

    `op` is the graph's `sym_norm_adjacency` (already masked by edge
    dropout), or None for the identity. The operator is symmetric, so the
    same call maps upstream gradients back through the propagation. The
    result keeps the dtype of `x`.
    """
    if op is None or cfg.is_identity:
        return x  # exact fixpoints, bypass the operator to keep them bitwise
    for _ in range(cfg.num_layers):
        x = (cfg.alpha * x + (1.0 - cfg.alpha) * (op @ x)).astype(x.dtype, copy=False)
    return x


def save_table(path: str | Path, table: EmbeddingTable) -> None:
    """Write the flat binary table format (little-endian).

    Header: magic `EDDA`, version u32, dim u32, count u64. Records follow as
    (kind u8, id u64, dim x f64). The file is written atomically.
    """
    record = np.dtype(
        [("kind", "u1"), ("id", "<u8"), ("vec", "<f8", (table.dim,))]
    )
    data = np.empty(len(table), dtype=record)
    data["kind"] = [n.kind for n in table.nodes]
    data["id"] = [n.id for n in table.nodes]
    data["vec"] = table.matrix
    with atomic_write(path, "wb") as handle:
        handle.write(TABLE_MAGIC)
        handle.write(struct.pack("<IIQ", TABLE_VERSION, table.dim, len(table)))
        handle.write(data.tobytes())


def load_table(path: str | Path) -> EmbeddingTable:
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:4] != TABLE_MAGIC:
        raise ValueError(f"{path}: not an embedding table file")
    version, dim, count = struct.unpack("<IIQ", raw[4:20])
    if version != TABLE_VERSION:
        raise ValueError(f"{path}: unsupported table version {version}")
    record = np.dtype([("kind", "u1"), ("id", "<u8"), ("vec", "<f8", (dim,))])
    data = np.frombuffer(raw[20:], dtype=record, count=count)
    nodes = [NodeId(NodeKind(int(k)), int(i)) for k, i in zip(data["kind"], data["id"])]
    return EmbeddingTable(nodes, np.array(data["vec"], dtype=np.float64))
