"""Embedding tables and the propagation operator over domain graphs.

The propagation encoder runs L rounds of degree-normalized neighbor
aggregation with a self-residual weighted by alpha:

    e^(l) = alpha * e^(l-1) + (1 - alpha) * sum_{neighbors} e^(l-1) / sqrt(|N_u| |N_i|)

It is linear in the input embeddings, has no trainable parameters and uses a
symmetric operator, so the same map gives the forward pass and the exact
backward pass. `grec_propagate` is the only implementation of the layer loop;
`EDModel.propagated` applies it per domain to the shared and per-domain
tables. A table's rows are in ascending node-key order (`mdgraph.node_keys`),
which for one graph is its local node order; rows are found by key with one
`searchsorted`, never by per-node lookups. The operator is a
`mdgraph.CsrMatrix`, whose `@` runs scipy's `csr_matvecs` kernel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mdgraph import MAX_ID, CsrMatrix, NodeId, NodeKind, atomic_write, node_keys, split_keys

TABLE_MAGIC = b"EDDA"
# format version -> stored float type; float64 tables keep version 1's bytes
TABLE_FLOATS = {1: np.dtype("<f8"), 2: np.dtype("<f4")}


class EmbeddingTable:
    """Dense embedding rows of one dimension; row r belongs to the node key
    `keys[r]`, and `keys` must be strictly ascending."""

    def __init__(self, keys: np.ndarray, matrix: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or keys.shape != matrix.shape[:1]:
            raise ValueError(f"matrix shape {matrix.shape} does not match {len(keys)} keys")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("table keys must be strictly ascending")
        self.keys = keys
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """Row index of every node key, same shape; KeyError if one is absent."""
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.searchsorted(self.keys, keys)
        found = pos < len(self.keys)
        found[found] = self.keys[pos[found]] == keys[found]
        if not found.all():
            kind, node_id = split_keys(keys[~found][0])
            raise KeyError(f"{NodeId(NodeKind(kind), int(node_id))} missing from embedding table")
        return pos

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.keys, self.matrix.copy())


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


def grec_propagate(op: CsrMatrix | None, x: np.ndarray, cfg: GRecConfig) -> np.ndarray:
    """Layer-L embeddings of graph-local rows `x`, computed in place: `x` is
    overwritten with them and returned, so pass a copy to keep the input.

    `op` is the graph's `sym_norm_adjacency` (already masked by edge
    dropout), or None for the identity. The operator is symmetric, so the
    same call maps upstream gradients back through the propagation. The
    result keeps the dtype of `x`. A layer rounds as `alpha * x + (1 - alpha)
    * (op @ x)` does, bit for bit, but allocates only the product `op @ x`,
    which is freed before the next layer's: two row blocks are alive at most.
    """
    if op is None or cfg.is_identity:
        return x  # exact fixpoints, bypass the operator to keep them bitwise
    for _ in range(cfg.num_layers):
        y = op @ x
        y *= 1.0 - cfg.alpha
        x *= cfg.alpha
        x += y  # for float32 rows: added in float64 (op's type), rounded once into x
        del y
    return x


def save_table(path: str | Path, table: EmbeddingTable) -> None:
    """Write the flat binary table format (little-endian).

    Header: magic `EDDA`, version u32, dim u32, count u64. Records follow as
    (kind u8, id u64, dim x float): a float32 table is stored as f32 under
    version 2, any other as f64 under version 1. The file is written
    atomically.
    """
    version = 2 if table.matrix.dtype == np.float32 else 1
    record = np.dtype(
        [("kind", "u1"), ("id", "<u8"), ("vec", TABLE_FLOATS[version], (table.dim,))]
    )
    data = np.empty(len(table), dtype=record)
    data["kind"], data["id"] = split_keys(table.keys)
    data["vec"] = table.matrix
    with atomic_write(path, "wb") as handle:
        handle.write(TABLE_MAGIC)
        handle.write(struct.pack("<IIQ", version, table.dim, len(table)))
        handle.write(data.tobytes())


def load_table(path: str | Path) -> EmbeddingTable:
    """Inverse of `save_table`; the matrix comes back in the stored float type.
    A file that is not a table, whose dim no record holds, that is not as long as its
    header says, or whose records no ascending node keys hold, raises ValueError naming `path`."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 20 or raw[:4] != TABLE_MAGIC:
        raise ValueError(f"{path}: not an embedding table file")
    version, dim, count = struct.unpack("<IIQ", raw[4:20])
    if version not in TABLE_FLOATS:
        raise ValueError(f"{path}: unsupported table version {version}")
    float_type = TABLE_FLOATS[version]
    record_size = 9 + dim * float_type.itemsize
    if record_size >= 2**31:  # numpy's bound on one record
        raise ValueError(f"{path}: dim {dim} makes a record of 2**31 bytes or more")
    if len(raw) != 20 + count * record_size:
        raise ValueError(f"{path}: {len(raw)} bytes, its header says {20 + count * record_size}")
    record = np.dtype([("kind", "u1"), ("id", "<u8"), ("vec", float_type, (dim,))])
    data = np.frombuffer(raw[20:], dtype=record, count=count)
    if np.any(data["kind"] > NodeKind.ITEM) or np.any(data["id"] > MAX_ID):
        raise ValueError(f"{path}: record with kind above 1 or id above {MAX_ID}")
    keys = node_keys(data["kind"], data["id"])
    try:
        return EmbeddingTable(keys, np.array(data["vec"], dtype=float_type.type))
    except ValueError as err:  # records out of key order
        raise ValueError(f"{path}: {err}") from None
