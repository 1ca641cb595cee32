"""Trainable model state and the single encode path.

A model owns three parameter groups: one shared embedding table covering all
nodes of all domains, one per-domain embedding table, and one per-domain
projection matrix used by the alignment regularizer. Representations for a
domain concatenate the shared (inter-domain) encoding with the per-domain
(intra-domain) encoding; scores are inner products of representations.

`EDModel.propagated(dataset, masks)` is the one place where tables are
encoded: training (per batch, with edge-dropout masks), validation and
evaluation (on the training graphs) all go through the `Encoding` it returns.
The encoding maps each graph's local node order to table rows with integer
arrays, and its `transpose` carries representation-level gradients back to
table rows, which is the whole backward pass through propagation.

Ablation variants drop one side: `use_inter=False` keeps per-domain tables
only, `use_intra=False` keeps the shared table only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .encoders import (
    EmbeddingTable,
    GRecConfig,
    graph_keys,
    grec_propagate,
    load_table,
    save_table,
)
from .mdgraph import MultiDomainDataset, atomic_write, read_key_values

ENCODER_GREC = "grec"
ENCODER_MF = "mf"


@dataclass(frozen=True)
class ModelSpec:
    d_inter: int = 64
    d_intra: int = 64
    d_align: int | None = None  # defaults to d_intra
    encoder: str = ENCODER_GREC
    grec: GRecConfig = field(default_factory=GRecConfig)
    use_inter: bool = True
    use_intra: bool = True
    init_scale: float | None = None  # None: 1/sqrt(dim) per table
    dtype: str = "float64"  # "float32" allowed for production runs

    def __post_init__(self):
        if self.encoder not in (ENCODER_GREC, ENCODER_MF):
            raise ValueError(f"unknown encoder kind {self.encoder!r}")
        if self.d_inter <= 0 or self.d_intra <= 0:
            raise ValueError("embedding dimensions must be positive")
        if not (self.use_inter or self.use_intra):
            raise ValueError("at least one of inter/intra parts must be enabled")

    @property
    def align_dim(self) -> int:
        return self.d_align if self.d_align is not None else self.d_intra

    @property
    def rep_dim(self) -> int:
        return (self.d_inter if self.use_inter else 0) + (
            self.d_intra if self.use_intra else 0
        )


class EDModel:
    """Parameter container; every trainable scalar lives in exactly one group."""

    def __init__(
        self,
        spec: ModelSpec,
        inter: EmbeddingTable | None,
        intra: list[EmbeddingTable] | None,
        proj: list[np.ndarray] | None,
    ):
        if spec.use_inter != (inter is not None):
            raise ValueError("inter table presence must match spec.use_inter")
        if spec.use_intra != (intra is not None and proj is not None):
            raise ValueError("intra tables and projections must match spec.use_intra")
        self.spec = spec
        self.inter = inter
        self.intra = intra
        self.proj = proj
        self._maps = None

    @property
    def num_domains(self) -> int:
        return len(self.intra) if self.intra is not None else 0

    def parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        """Named parameter arrays; the union is the full trainable set."""
        if self.inter is not None:
            yield "inter", self.inter.matrix
        if self.intra is not None:
            for d, table in enumerate(self.intra):
                yield f"intra[{d}]", table.matrix
        if self.proj is not None:
            for d, w in enumerate(self.proj):
                yield f"proj[{d}]", w

    def squared_norm(self) -> float:
        return float(sum(np.sum(arr * arr) for _, arr in self.parameters()))

    def copy(self) -> "EDModel":
        return EDModel(
            self.spec,
            self.inter.copy() if self.inter is not None else None,
            [t.copy() for t in self.intra] if self.intra is not None else None,
            [w.copy() for w in self.proj] if self.proj is not None else None,
        )

    # -- representations ---------------------------------------------------

    def propagated(
        self, dataset: MultiDomainDataset, masks: dict[int, np.ndarray] | None = None
    ) -> "Encoding":
        """Encode every table row on the dataset's graphs (under `masks`, if given).

        Training passes the training split with per-domain edge-dropout
        masks; evaluation passes the training split without masks, so nodes
        that have no training edge keep only their residual term.
        """
        return Encoding(self, dataset, masks)

    def _row_maps(self, dataset: MultiDomainDataset) -> "_RowMaps":
        """Graph-local to table row maps, cached per (dataset, tables)."""
        key = (dataset, self.inter, *(self.intra or ()))  # compared by identity
        if self._maps is None or self._maps[0] != key:
            self._maps = (key, _RowMaps(self, dataset))
        return self._maps[1]


class _RowMaps:
    """Per domain graph: table row of each local node, the rows no graph
    covers, and the unmasked normalized adjacency (`ops`, built on first use)."""

    def __init__(self, model: EDModel, dataset: MultiDomainDataset):
        self.ops: dict[int, object] = {}
        keys = [graph_keys(graph) for graph in dataset.domains]
        self.inter_rows: list[np.ndarray] = []
        self.inter_uncovered = None
        if model.inter is not None:
            self.inter_rows = [model.inter.rows(k) for k in keys]
            self.inter_uncovered = _uncovered(len(model.inter), self.inter_rows)
        self.intra_rows: list[np.ndarray] = []
        self.intra_uncovered: list[np.ndarray] = []
        if model.intra is not None:
            self.intra_rows = [model.intra[d].rows(k) for d, k in enumerate(keys)]
            self.intra_uncovered = [
                _uncovered(len(model.intra[d]), [rows])
                for d, rows in enumerate(self.intra_rows)
            ]


def _uncovered(n_rows: int, row_sets: Sequence[np.ndarray]) -> np.ndarray:
    covered = np.zeros(n_rows, dtype=bool)
    for rows in row_sets:
        covered[rows] = True
    return np.flatnonzero(~covered)


class Encoding:
    """Encoded table rows of one model on one dataset's graphs.

    `inter` has one row per shared-table row: the sum over domains of the
    shared table propagated on each domain's graph. `intra(d)` has one row per
    row of `model.intra[d]`, propagated on domain d's graph and built on first
    use. Rows without an edge in the dataset keep the alpha^L-scaled residual
    of their raw row; the MF encoder is the identity. `inter_rows[d]` and
    `intra_rows[d]` map domain d's local node order to table rows. `dtype` is
    the parameters' common dtype.
    """

    def __init__(self, model: EDModel, dataset: MultiDomainDataset, masks=None):
        spec = model.spec
        self.model = model
        self.dataset = dataset
        self.masks = masks
        self._maps = model._row_maps(dataset)
        self.inter_rows = self._maps.inter_rows
        self.intra_rows = self._maps.intra_rows
        self._mf = spec.encoder == ENCODER_MF
        self._residual = spec.grec.alpha ** spec.grec.num_layers
        self._ops: dict[int, object] = {}  # masked operators of this encoding
        self._intra: dict[int, np.ndarray] = {}
        self.dtype = np.result_type(*(arr for _, arr in model.parameters()))
        self.inter = None
        if model.inter is not None:
            x = model.inter.matrix
            self.inter = self._inter_map(x, np.zeros_like(x))

    def _operator(self, d: int):
        """Domain d's normalized adjacency under its mask; None for the identity.

        Unmasked operators are shared by every encoding on the same row maps."""
        if self._mf or self.model.spec.grec.is_identity:
            return None
        mask = self.masks.get(d) if self.masks is not None else None
        ops = self._ops if mask is not None else self._maps.ops
        if d not in ops:
            ops[d] = self.dataset.graph(d).sym_norm_adjacency(mask)
        return ops[d]

    def _map(self, blocks, uncovered, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out += F x, where F propagates each (domain, rows) block of x on that
        domain's graph, scales uncovered rows by alpha^L and is symmetric."""
        if self._mf:
            out += x
            return out
        grec = self.model.spec.grec
        for d, rows in blocks:
            out[rows] += grec_propagate(self._operator(d), x[rows], grec)
        out[uncovered] += self._residual * x[uncovered]
        return out

    def _inter_map(self, x, out):
        return self._map(enumerate(self.inter_rows), self._maps.inter_uncovered, x, out)

    def _intra_map(self, d, x, out):
        return self._map([(d, self.intra_rows[d])], self._maps.intra_uncovered[d], x, out)

    def intra(self, d: int) -> np.ndarray:
        """Encoded per-domain rows of domain d, in `model.intra[d]` row order."""
        if d not in self._intra:
            x = self.model.intra[d].matrix
            self._intra[d] = self._intra_map(d, x, np.zeros_like(x))
        return self._intra[d]

    def represent(self, d: int, keys: np.ndarray) -> np.ndarray:
        """Domain-d representations of the nodes with the given keys, inter part first.

        The result has shape `keys.shape + (rep_dim,)`.
        """
        model = self.model
        parts = []
        if model.inter is not None:
            parts.append(self.inter[model.inter.rows(keys)])
        if model.intra is not None:
            try:
                rows = model.intra[d].rows(keys)
            except KeyError as err:
                raise KeyError(f"node does not belong to domain {d}: {err}") from None
            parts.append(self.intra(d)[rows])
        return np.concatenate(parts, axis=-1)

    def transpose(
        self,
        d_inter: np.ndarray | None,
        d_intra: dict[int, np.ndarray],
        out: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Add the adjoint of the encoding, applied to gradients w.r.t. `inter`
        and `intra(d)`, into table-level gradients `out` (zeros when omitted)."""
        if out is None:
            out = {name: np.zeros_like(arr) for name, arr in self.model.parameters()}
        if d_inter is not None:
            self._inter_map(d_inter, out["inter"])
        for d, grad in d_intra.items():
            self._intra_map(d, grad, out[f"intra[{d}]"])
        return out


def init_model(spec: ModelSpec, dataset: MultiDomainDataset, seed: int) -> EDModel:
    """Random model: uniform [-s, s] entries with s = 1/sqrt(dim) per table.

    The shared and per-domain tables are drawn independently; two calls with
    the same seed produce identical parameters.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(spec.dtype)

    def scale(dim: int) -> float:
        return spec.init_scale if spec.init_scale is not None else 1.0 / np.sqrt(dim)

    inter = None
    if spec.use_inter:
        s = scale(spec.d_inter)
        inter = EmbeddingTable(
            dataset.all_nodes,
            rng.uniform(-s, s, size=(len(dataset.all_nodes), spec.d_inter)).astype(dtype),
        )
    intra = None
    proj = None
    if spec.use_intra:
        s = scale(spec.d_intra)
        intra = []
        for graph in dataset.domains:
            nodes = graph.node_ids()
            intra.append(
                EmbeddingTable(
                    nodes, rng.uniform(-s, s, size=(len(nodes), spec.d_intra)).astype(dtype)
                )
            )
        proj = [
            rng.uniform(-s, s, size=(spec.d_intra, spec.align_dim)).astype(dtype)
            for _ in dataset.domains
        ]
    return EDModel(spec, inter, intra, proj)


# -- checkpointing ----------------------------------------------------------


def save_model(directory: str | Path, model: EDModel) -> None:
    """Checkpoint: one binary table per parameter group plus a text manifest.

    Every file is written atomically, the manifest last.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = model.spec
    lines = [
        f"encoder = {spec.encoder}",
        f"d_inter = {spec.d_inter}",
        f"d_intra = {spec.d_intra}",
        f"d_align = {spec.align_dim}",
        f"num_layers = {spec.grec.num_layers}",
        f"alpha = {spec.grec.alpha!r}",
        f"use_inter = {int(spec.use_inter)}",
        f"use_intra = {int(spec.use_intra)}",
        f"num_domains = {model.num_domains}",
        f"dtype = {spec.dtype}",
    ]
    if model.inter is not None:
        save_table(directory / "inter.bin", model.inter)
        lines.append("inter_file = inter.bin")
    if model.intra is not None:
        for d, table in enumerate(model.intra):
            save_table(directory / f"intra_{d}.bin", table)
            with atomic_write(directory / f"proj_{d}.npy", "wb") as handle:
                np.save(handle, model.proj[d])
            lines.append(f"intra_file[{d}] = intra_{d}.bin")
            lines.append(f"proj_file[{d}] = proj_{d}.npy")
    with atomic_write(directory / "model.manifest") as handle:
        handle.write("\n".join(lines) + "\n")


def load_model(directory: str | Path) -> EDModel:
    """Inverse of `save_model`; tables come back in the saved dtype."""
    directory = Path(directory)
    manifest = read_key_values(directory / "model.manifest")
    use_inter = bool(int(manifest["use_inter"]))
    use_intra = bool(int(manifest["use_intra"]))
    spec = ModelSpec(
        d_inter=int(manifest["d_inter"]),
        d_intra=int(manifest["d_intra"]),
        d_align=int(manifest["d_align"]),
        encoder=manifest["encoder"],
        grec=GRecConfig(int(manifest["num_layers"]), float(manifest["alpha"])),
        use_inter=use_inter,
        use_intra=use_intra,
        dtype=manifest.get("dtype", "float64"),
    )

    def table(name: str) -> EmbeddingTable:
        loaded = load_table(directory / manifest[name])
        return EmbeddingTable(loaded.nodes, loaded.matrix.astype(spec.dtype, copy=False))

    inter = table("inter_file") if use_inter else None
    intra = None
    proj = None
    if use_intra:
        n = int(manifest["num_domains"])
        intra = [table(f"intra_file[{d}]") for d in range(n)]
        proj = [np.load(directory / manifest[f"proj_file[{d}]"]) for d in range(n)]
    return EDModel(spec, inter, intra, proj)


def variant_spec(base: ModelSpec, variant: str) -> ModelSpec:
    """Model spec for a named ablation variant.

    Single-part variants double their embedding size so parameter counts stay
    comparable to the two-part model.
    """
    if variant in ("edda", "wo-da"):
        return base
    if variant == "inter":
        return replace(base, use_intra=False, d_inter=2 * base.d_inter)
    if variant == "intra":
        return replace(base, use_inter=False, d_intra=2 * base.d_intra)
    if variant == "ed-mf":
        return replace(base, encoder=ENCODER_MF)
    raise ValueError(f"unknown variant {variant!r}")
