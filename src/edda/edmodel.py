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

import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .encoders import EmbeddingTable, GRecConfig, grec_propagate, load_table, save_table
from .mdgraph import MultiDomainDataset, atomic_write, read_key_values

ENCODER_GREC = "grec"
ENCODER_MF = "mf"


@dataclass(frozen=True)
class ModelSpec:
    d_inter: int = 64
    d_intra: int = 64
    encoder: str = ENCODER_GREC
    grec: GRecConfig = field(default_factory=GRecConfig)
    use_inter: bool = True
    use_intra: bool = True
    dtype: str = "float64"  # float32 is for library use: no run config key sets it yet

    def __post_init__(self):
        if self.encoder not in (ENCODER_GREC, ENCODER_MF):
            raise ValueError(f"unknown encoder kind {self.encoder!r}")
        if self.d_inter <= 0 or self.d_intra <= 0:
            raise ValueError("embedding dimensions d_inter and d_intra must be positive")
        if not (self.use_inter or self.use_intra):
            raise ValueError("at least one of inter/intra parts must be enabled")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


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


class Encoding:
    """Encoded table rows of one model on one dataset's graphs.

    `inter` has one row per shared-table row: the sum over domains of the
    shared table propagated on each domain's graph. `intra(d)` has one row per
    row of `model.intra[d]`, propagated on domain d's graph and built on first
    use. Rows without an edge in the dataset keep the alpha^L-scaled residual
    of their raw row; the MF encoder is the identity. `inter_rows[d]` and
    `intra_rows[d]` map domain d's local node order to table rows; they and
    the uncovered rows are built here from the model's tables and the
    dataset's graphs as they are now, so nothing outlives the encoding.
    `represent` gathers from domain d's `[inter | intra(d)]` matrix, also
    built on first use. The encoding keeps one domain's built arrays at a
    time: asking for another domain's frees them, so callers that score
    domain by domain hold one domain's matrix, not all of them. `dtype` is
    the parameters' common dtype.
    """

    def __init__(self, model: EDModel, dataset: MultiDomainDataset, masks=None):
        spec = model.spec
        self.model = model
        self.dataset = dataset
        self.masks = masks
        self._mf = spec.encoder == ENCODER_MF
        self._residual = spec.grec.alpha ** spec.grec.num_layers
        self._ops: dict[int, object] = {}
        self._domain = -1
        self._built: dict | None = {}  # domain `_domain`'s "intra" and "joined" rows; None once freed
        self.dtype = np.result_type(*(arr for _, arr in model.parameters()))
        graphs = dataset.domains
        self.intra_rows: list[np.ndarray] = []
        if model.intra is not None:
            self.intra_rows = [model.intra[d].rows(graph.keys) for d, graph in enumerate(graphs)]
            self._intra_uncovered = [
                _uncovered(len(table.keys), [rows]) for table, rows in zip(model.intra, self.intra_rows)
            ]
        self.inter_rows: list[np.ndarray] = []
        self._inter = None
        if model.inter is not None:
            self.inter_rows = [model.inter.rows(graph.keys) for graph in graphs]
            self._inter_uncovered = _uncovered(len(model.inter.keys), self.inter_rows)
            x = model.inter.matrix
            self._inter = self._inter_map(x, np.zeros_like(x))

    def _operator(self, d: int):
        """Domain d's normalized adjacency under its mask; None for the identity."""
        if self.model.spec.grec.is_identity:
            return None
        if d not in self._ops:
            mask = self.masks.get(d) if self.masks is not None else None
            self._ops[d] = self.dataset.graph(d).sym_norm_adjacency(mask)
        return self._ops[d]

    def _map(self, blocks, uncovered, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out += F x, where F propagates each (domain, rows) block of x on that
        domain's graph, scales uncovered rows by alpha^L and is symmetric."""
        if self._mf:
            out += x
            return out
        grec = self.model.spec.grec
        for d, rows in blocks:  # propagated before out[rows] is copied: two row blocks, not three
            y = grec_propagate(self._operator(d), np.take(x, rows, axis=0), grec)
            out[rows] += y
        out[uncovered] += self._residual * x[uncovered]
        return out

    def _inter_map(self, x, out):
        return self._map(enumerate(self.inter_rows), self._inter_uncovered, x, out)

    def _intra_map(self, d, x, out):
        return self._map([(d, self.intra_rows[d])], self._intra_uncovered[d], x, out)

    def _live(self) -> None:
        """Refuse an encoding whose rows `free_rows` freed."""
        if self._built is None:
            raise RuntimeError("the encoded rows were freed by free_rows(); encode the model again")

    @property
    def inter(self) -> np.ndarray | None:
        """Encoded shared rows, in `model.inter` row order; None without a shared table."""
        self._live()
        return self._inter

    def _held(self, d: int) -> dict[str, np.ndarray]:
        """The arrays built for domain d; those of any other domain are freed."""
        self._live()
        if d != self._domain:
            self._built.clear()
            self._domain = d
        return self._built

    def intra(self, d: int) -> np.ndarray:
        """Encoded per-domain rows of domain d, in `model.intra[d]` row order."""
        built = self._held(d)
        if "intra" not in built:
            x = self.model.intra[d].matrix
            built["intra"] = self._intra_map(d, x, np.zeros_like(x))
        return built["intra"]

    def represent(self, d: int, keys: np.ndarray) -> np.ndarray:
        """Domain-d representations of the nodes with the given keys, inter part first.

        The result has shape `keys.shape + (width,)`, where width sums the
        dimensions of the enabled parts: one key search and one gather from
        one matrix. With per-domain tables, a key outside domain d's table
        raises KeyError naming the domain.
        """
        model = self.model
        if model.intra is None:
            return self.inter[model.inter.rows(keys)]
        try:
            rows = model.intra[d].rows(keys)
        except KeyError as err:
            raise KeyError(f"node does not belong to domain {d}: {err}") from None
        return self._joined(d)[rows]

    def _joined(self, d: int) -> np.ndarray:
        """Domain d's `[inter | intra(d)]` rows in `model.intra[d]` row order,
        built on first use; `intra(d)` itself without a shared table."""
        if self.model.inter is None:
            return self.intra(d)
        built = self._held(d)
        if "joined" not in built:
            shared = self.inter[self.model.inter.rows(self.model.intra[d].keys)]
            built["joined"] = np.concatenate([shared, self.intra(d)], axis=1)
        return built["joined"]

    def free_rows(self) -> None:
        """Free the encoded rows, `inter` and a domain's built arrays: the
        encoding can then only `transpose`, and scoring raises RuntimeError."""
        self._inter = self._built = None

    def transpose(
        self, d: int, d_inter: np.ndarray | None, d_intra: np.ndarray | None, out: dict
    ) -> None:
        """Add the adjoint of the encoding, applied to gradients w.r.t. `inter`
        and `intra(d)` (None for either to skip it), into the table-level
        gradients `out`, by parameter name; a gradient `out` lacks is made
        zeroed first. The shared table's adjoint runs on every domain's
        graph, domain d's table's on its own graph."""
        if d_inter is not None:
            self._inter_map(d_inter, zeroed_grad(out, "inter", d_inter))
        if d_intra is not None:
            self._intra_map(d, d_intra, zeroed_grad(out, f"intra[{d}]", d_intra))


def zeroed_grad(grads: dict[str, np.ndarray], name: str, like: np.ndarray) -> np.ndarray:
    """`grads[name]`, first made as zeros shaped like `like` if it is absent."""
    if name not in grads:
        grads[name] = np.zeros_like(like)
    return grads[name]


def _uncovered(n_rows: int, covered: list[np.ndarray]) -> np.ndarray:
    """Ascending indices below `n_rows` that no array in `covered` holds."""
    mask = np.ones(n_rows, dtype=bool)
    for rows in covered:
        mask[rows] = False
    return np.flatnonzero(mask)


def init_model(spec: ModelSpec, dataset: MultiDomainDataset, seed: int) -> EDModel:
    """Random model: uniform [-s, s] entries with s = 1/sqrt(dim) per table.

    The shared and per-domain tables are drawn independently; two calls with
    the same seed produce identical parameters.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(spec.dtype)
    inter = None
    if spec.use_inter:
        s = 1.0 / np.sqrt(spec.d_inter)
        keys = dataset.keys
        matrix = rng.uniform(-s, s, size=(len(keys), spec.d_inter)).astype(dtype)
        inter = EmbeddingTable(keys, matrix)
    intra = None
    proj = None
    if spec.use_intra:
        s = 1.0 / np.sqrt(spec.d_intra)
        intra = [
            EmbeddingTable(
                graph.keys,
                rng.uniform(-s, s, size=(graph.n_nodes, spec.d_intra)).astype(dtype),
            )
            for graph in dataset.domains
        ]
        proj = [
            rng.uniform(-s, s, size=(spec.d_intra, spec.d_intra)).astype(dtype)
            for _ in dataset.domains
        ]
    return EDModel(spec, inter, intra, proj)


# -- checkpointing ----------------------------------------------------------


def save_model(directory: str | Path, model: EDModel) -> None:
    """Checkpoint: one binary table per parameter group plus a text manifest.

    The files are written into a fresh sibling directory, which then takes
    the place of `directory`. A save that fails removes what it wrote and
    leaves an earlier checkpoint at `directory` as it was.
    """
    directory = Path(directory)
    staging = directory.with_name(f".{directory.name}.{os.getpid()}.tmp")
    retired = directory.with_name(f".{directory.name}.{os.getpid()}.old")
    for leftover in (staging, retired):
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        _write_checkpoint(staging, model)
        if directory.exists():
            os.replace(directory, retired)
        os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        if retired.exists() and not directory.exists():
            os.replace(retired, directory)
        raise
    shutil.rmtree(retired, ignore_errors=True)


def _write_checkpoint(directory: Path, model: EDModel) -> None:
    spec = model.spec
    lines = [
        f"encoder = {spec.encoder}",
        f"d_inter = {spec.d_inter}",
        f"d_intra = {spec.d_intra}",
        f"d_align = {spec.d_intra}",  # proj[d] is square; kept so manifests keep their bytes
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
    manifest_path = directory / "model.manifest"
    values = {"dtype": "float64", **read_key_values(manifest_path)}  # no dtype line: float64 tables

    def manifest(key: str, convert=str):
        if key not in values:
            raise ValueError(f"{manifest_path}: missing key {key}")
        try:
            return convert(values[key])
        except ValueError as err:
            raise ValueError(f"{manifest_path}: {key}: {err}") from None

    fields = dict(
        d_inter=manifest("d_inter", int),
        d_intra=manifest("d_intra", int),
        encoder=manifest("encoder"),
        use_inter=bool(manifest("use_inter", int)),
        use_intra=bool(manifest("use_intra", int)),
        dtype=manifest("dtype"),
    )
    layers = manifest("num_layers", int), manifest("alpha", float)
    try:  # values of the right type that the model refuses
        spec = ModelSpec(grec=GRecConfig(*layers), **fields)
    except ValueError as err:
        raise ValueError(f"{manifest_path}: {err}") from None

    def table(name: str) -> EmbeddingTable:
        loaded = load_table(directory / manifest(name))
        return EmbeddingTable(loaded.keys, loaded.matrix.astype(spec.dtype, copy=False))

    def projection(d: int) -> np.ndarray:
        path = directory / manifest(f"proj_file[{d}]")
        try:
            return np.load(path)
        except (ValueError, EOFError) as err:  # EOFError: an empty file
            raise ValueError(f"{path}: {err}") from None

    inter = table("inter_file") if spec.use_inter else None
    intra = None
    proj = None
    if spec.use_intra:
        n = manifest("num_domains", int)
        intra = [table(f"intra_file[{d}]") for d in range(n)]
        proj = [projection(d) for d in range(n)]
    return EDModel(spec, inter, intra, proj)


# each ablation variant's spec from the base spec; single-part variants double
# their embedding size so parameter counts stay comparable to the two-part model
VARIANTS = {
    "edda": lambda base: base,
    "wo-da": lambda base: base,
    "inter": lambda base: replace(base, use_intra=False, d_inter=2 * base.d_inter),
    "intra": lambda base: replace(base, use_inter=False, d_intra=2 * base.d_intra),
    "ed-mf": lambda base: replace(base, encoder=ENCODER_MF),
}


def variant_spec(base: ModelSpec, variant: str) -> ModelSpec:
    """Model spec for a named ablation variant (`VARIANTS`)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {tuple(VARIANTS)}")
    return VARIANTS[variant](base)
