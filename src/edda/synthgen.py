"""Deterministic synthetic multi-domain interaction generator.

Every user and item gets one shared latent vector reused across domains plus
an independent per-domain latent. Interaction propensity follows a logistic
link over the weighted mix of shared and domain-specific affinities, with a
per-domain intercept calibrated by bisection so the expected interaction
count hits the budget; the realized edge set is then fixed to the budget
exactly. Overlapping entities are dedicated id blocks shared by a domain
pair, so the realized overlap ratio equals the requested one up to rounding.

Every user and item of a domain is guaranteed at least one interaction: the
highest-propensity pair of each uncovered row/column is force-included before
the remaining budget is filled.

The bisection runs at most 200 steps but stops at its fixed point, the first
step whose branch would leave `(lo, hi)` unchanged. `mid` is then `lo` or
`hi`, so every later step would compute the same sigmoid sum on the same
state and take the same branch: the intercept is bit-equal to the full 200
steps, after about 57 sums at the usual domain sizes. The budget fill takes
the unchosen cells of largest margin (propensity minus a uniform draw); an
exact tie at the cut goes to the lowest row-major cell index, so the set is
the first cells of a stable sort by descending margin.

`anchor_specific_boost` scales the per-domain latents of overlapping
entities: entities present in several domains are both more active and more
idiosyncratic per domain, which is what makes a single shared embedding pay a
price for serving all domains at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .mdgraph import (
    MAX_ID,
    DomainGraph,
    MultiDomainDataset,
    atomic_write,
    read_key_values,
    write_interactions,
)
from .mdgraph import ingest  # noqa: F401  (perfbench/tests expect synthgen.ingest to be traced)


MAX_DOMAINS = 256  # so a spec names at most 32,640 domain pairs


class SynthError(ValueError):
    pass


def _per_domain(value, num_domains: int, name: str) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,) * num_domains
    out = tuple(int(v) for v in value)
    if len(out) != num_domains:
        raise SynthError(f"{name} must have one entry per domain")
    return out


@dataclass(frozen=True)
class SynthSpec:
    num_domains: int
    users_per_domain: tuple[int, ...] | int
    items_per_domain: tuple[int, ...] | int
    interactions_per_domain: tuple[int, ...] | int
    overlap_fraction: float | Mapping[tuple[int, int], float] = 0.0
    shared_dim: int = 8
    specific_dim: int = 4
    shared_weight: float = 0.5
    affinity_gain: float = 4.0
    anchor_specific_boost: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_domains <= MAX_DOMAINS:
            raise SynthError(f"num_domains must lie in [1, {MAX_DOMAINS}]")
        if not 0.0 <= self.shared_weight <= 1.0:
            raise SynthError("shared_weight must lie in [0, 1]")
        if self.shared_dim < 1 or self.specific_dim < 1:
            raise SynthError("latent dimensions must be positive")
        if not math.isfinite(self.affinity_gain):
            raise SynthError("affinity_gain must be finite")
        if not 0.0 < self.anchor_specific_boost < math.inf:
            raise SynthError("anchor_specific_boost must be positive and finite")
        for name, counts in (
            ("users_per_domain", self.users()),
            ("items_per_domain", self.items()),
            ("interactions_per_domain", self.interactions()),
        ):
            if min(counts) < 1:
                raise SynthError(f"{name} must be at least 1 in every domain")
            if max(counts) > MAX_ID:
                raise SynthError(f"{name} must be at most {MAX_ID} in every domain")
        for f in self._overlaps().values():
            if not 0.0 <= f <= 1.0:
                raise SynthError("overlap fractions must lie in [0, 1]")

    def users(self) -> tuple[int, ...]:
        return _per_domain(self.users_per_domain, self.num_domains, "users_per_domain")

    def items(self) -> tuple[int, ...]:
        return _per_domain(self.items_per_domain, self.num_domains, "items_per_domain")

    def interactions(self) -> tuple[int, ...]:
        return _per_domain(
            self.interactions_per_domain, self.num_domains, "interactions_per_domain"
        )

    def _overlaps(self) -> dict[tuple[int, int], float]:
        pairs = [
            (d, d_prime)
            for d in range(self.num_domains)
            for d_prime in range(d + 1, self.num_domains)
        ]
        if isinstance(self.overlap_fraction, Mapping):
            table = {tuple(sorted(k)): float(v) for k, v in self.overlap_fraction.items()}
            return {p: table.get(p, 0.0) for p in pairs}
        return {p: float(self.overlap_fraction) for p in pairs}


@dataclass
class GroundTruth:
    """Latents behind the generated interactions, for diagnostics and tests."""

    shared_user_ids: np.ndarray
    shared_user: np.ndarray
    shared_item_ids: np.ndarray
    shared_item: np.ndarray
    specific_user: list[tuple[np.ndarray, np.ndarray]]  # per domain (ids, matrix)
    specific_item: list[tuple[np.ndarray, np.ndarray]]
    intercepts: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        """Every latent array by its name in latents.npz."""
        arrays = {
            "shared_user_ids": self.shared_user_ids,
            "shared_user": self.shared_user,
            "shared_item_ids": self.shared_item_ids,
            "shared_item": self.shared_item,
            "intercepts": self.intercepts,
        }
        for d, (ids, mat) in enumerate(self.specific_user):
            arrays[f"specific_user_ids_{d}"] = ids
            arrays[f"specific_user_{d}"] = mat
        for d, (ids, mat) in enumerate(self.specific_item):
            arrays[f"specific_item_ids_{d}"] = ids
            arrays[f"specific_item_{d}"] = mat
        return arrays


def _shared_block_sizes(spec: SynthSpec) -> dict[tuple[int, int], tuple[int, int]]:
    """(shared users, shared items) per pair hitting the requested overlap."""
    users, items = spec.users(), spec.items()
    out = {}
    for (d, d_prime), f in spec._overlaps().items():
        if f == 0.0:
            out[(d, d_prime)] = (0, 0)
            continue
        total = users[d] + users[d_prime] + items[d] + items[d_prime]
        s_total = int(round(f * total / (1.0 + f)))
        user_share = (users[d] + users[d_prime]) / total
        s_users = int(round(s_total * user_share))
        s_items = s_total - s_users
        out[(d, d_prime)] = (s_users, s_items)
    return out


def _allocate_ids(spec: SynthSpec):
    """Global user/item ids per domain; overlap realized by shared id blocks."""
    users, items = spec.users(), spec.items()
    blocks = _shared_block_sizes(spec)
    domain_users: list[list[int]] = [[] for _ in range(spec.num_domains)]
    domain_items: list[list[int]] = [[] for _ in range(spec.num_domains)]
    next_user = 0
    next_item = 0
    for (d, d_prime), (s_users, s_items) in sorted(blocks.items()):
        if s_users > min(users[d], users[d_prime]) or s_items > min(items[d], items[d_prime]):
            raise SynthError(
                f"pair ({d},{d_prime}): requested overlap exceeds the smaller domain"
            )
        shared_u = list(range(next_user, next_user + s_users))
        next_user += s_users
        shared_i = list(range(next_item, next_item + s_items))
        next_item += s_items
        for dd in (d, d_prime):
            domain_users[dd].extend(shared_u)
            domain_items[dd].extend(shared_i)
    for d in range(spec.num_domains):
        if len(domain_users[d]) > users[d] or len(domain_items[d]) > items[d]:
            raise SynthError(
                f"domain {d}: shared blocks exceed its user/item budget"
            )
        missing_u = users[d] - len(domain_users[d])
        domain_users[d].extend(range(next_user, next_user + missing_u))
        next_user += missing_u
        missing_i = items[d] - len(domain_items[d])
        domain_items[d].extend(range(next_item, next_item + missing_i))
        next_item += missing_i
    return (
        [np.array(sorted(u), dtype=np.int64) for u in domain_users],
        [np.array(sorted(i), dtype=np.int64) for i in domain_items],
        next_user,
        next_item,
    )


def _calibrate_intercept(z: np.ndarray, target: float, out: np.ndarray) -> float:
    """Bisection on b so that sum(sigmoid(z + b)) equals the target count.

    Stops at the fixed point: the first step whose branch would leave
    `(lo, hi)` unchanged. Every later step of the 200 would repeat it.
    `out` is scratch space shaped like `z`.
    """
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.sum(_sigmoid(z, mid, out))) < target:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return 0.5 * (lo + hi)


def _sigmoid(z: np.ndarray, b: float, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-(z + b))) written into `out`, one ufunc at a time."""
    np.add(z, b, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _fill_budget(margin: np.ndarray, chosen: np.ndarray, k: int) -> None:
    """Mark the k unchosen cells of largest margin in `chosen`, in place.

    Exact ties at the cut go to the lowest flat index, so the cells are the
    first k of a stable argsort of -margin with chosen cells last. `margin`
    is overwritten; both arrays must be C-contiguous.
    """
    if k == 0:
        return
    key = np.negative(margin, out=margin).ravel()
    flat = chosen.ravel()
    key[flat] = np.inf
    kth = np.partition(key, k - 1)[k - 1]
    below = np.flatnonzero(key < kth)
    flat[below] = True
    flat[np.flatnonzero(key == kth)[: k - len(below)]] = True


def generate(spec: SynthSpec) -> tuple[MultiDomainDataset, GroundTruth]:
    """Dataset plus the ground-truth latents; byte-deterministic under seed."""
    rng = np.random.default_rng(spec.seed)
    domain_users, domain_items, n_users, n_items = _allocate_ids(spec)
    interactions = spec.interactions()

    shared_user = rng.normal(size=(n_users, spec.shared_dim))
    shared_item = rng.normal(size=(n_items, spec.shared_dim))

    user_multiplicity = np.zeros(n_users, dtype=np.int64)
    item_multiplicity = np.zeros(n_items, dtype=np.int64)
    for d in range(spec.num_domains):
        user_multiplicity[domain_users[d]] += 1
        item_multiplicity[domain_items[d]] += 1

    graphs = []
    specific_user = []
    specific_item = []
    intercepts = np.zeros(spec.num_domains)
    for d in range(spec.num_domains):
        u_ids, i_ids = domain_users[d], domain_items[d]
        n_u, n_i = len(u_ids), len(i_ids)
        budget = interactions[d]
        if budget > n_u * n_i:
            raise SynthError(f"domain {d}: budget exceeds the number of pairs")
        if budget < max(n_u, n_i):
            raise SynthError(
                f"domain {d}: budget {budget} cannot cover {n_u} users and {n_i} items"
            )
        p_spec = rng.normal(size=(n_u, spec.specific_dim))
        q_spec = rng.normal(size=(n_i, spec.specific_dim))
        if spec.anchor_specific_boost != 1.0:
            p_spec[user_multiplicity[u_ids] > 1] *= spec.anchor_specific_boost
            q_spec[item_multiplicity[i_ids] > 1] *= spec.anchor_specific_boost
        specific_user.append((u_ids, p_spec))
        specific_item.append((i_ids, q_spec))

        shared_aff = shared_user[u_ids] @ shared_item[i_ids].T / np.sqrt(spec.shared_dim)
        spec_aff = p_spec @ q_spec.T / np.sqrt(spec.specific_dim)
        z = spec.affinity_gain * (
            spec.shared_weight * shared_aff + (1.0 - spec.shared_weight) * spec_aff
        )
        margin = np.empty_like(z)
        b = _calibrate_intercept(z, budget, margin)
        intercepts[d] = b
        _sigmoid(z, b, margin)
        margin -= rng.random((n_u, n_i))

        chosen = np.zeros((n_u, n_i), dtype=bool)
        chosen[np.arange(n_u), np.argmax(z, axis=1)] = True  # cover every user
        uncovered_cols = np.nonzero(~chosen.any(axis=0))[0]
        chosen[np.argmax(z[:, uncovered_cols], axis=0), uncovered_cols] = True
        forced = int(chosen.sum())
        if forced > budget:
            raise SynthError(f"domain {d}: budget below the coverage minimum {forced}")
        _fill_budget(margin, chosen, budget - forced)

        rows, cols = np.nonzero(chosen)  # row-major, so (user, item) order
        graphs.append(DomainGraph(d, np.column_stack([u_ids[rows], i_ids[cols]])))

    truth = GroundTruth(
        shared_user_ids=np.arange(n_users),
        shared_user=shared_user,
        shared_item_ids=np.arange(n_items),
        shared_item=shared_item,
        specific_user=specific_user,
        specific_item=specific_item,
        intercepts=intercepts,
    )
    return MultiDomainDataset(graphs), truth


# -- spec files and output bundles -------------------------------------------

_SPEC_KEYS = {
    "num_domains": int,
    "users_per_domain": str,
    "items_per_domain": str,
    "interactions_per_domain": str,
    "overlap_fraction": float,
    "shared_dim": int,
    "specific_dim": int,
    "shared_weight": float,
    "affinity_gain": float,
    "anchor_specific_boost": float,
    "seed": int,
}


def _parse_counts(text: str):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    values = [int(p) for p in parts]
    return values[0] if len(values) == 1 else tuple(values)


def load_spec(path: str | Path) -> SynthSpec:
    """Read a `key = value` spec file; counts may be single ints or comma lists.
    A value that does not parse or lies out of range raises SynthError naming the file."""
    raw = read_key_values(path, SynthError)
    unknown = set(raw) - set(_SPEC_KEYS)
    if unknown:
        raise SynthError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        try:
            if key.endswith("_per_domain"):
                kwargs[key] = _parse_counts(value)
            else:
                kwargs[key] = _SPEC_KEYS[key](value)
        except ValueError as err:
            raise SynthError(f"{path}: {key}: {err}") from None
    try:
        return SynthSpec(**kwargs)
    except (TypeError, SynthError) as err:
        raise SynthError(f"{path}: {err}") from None


def spec_manifest(spec: SynthSpec) -> str:
    def fmt(value):
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return str(value)

    lines = [
        f"num_domains = {spec.num_domains}",
        f"users_per_domain = {fmt(spec.users_per_domain)}",
        f"items_per_domain = {fmt(spec.items_per_domain)}",
        f"interactions_per_domain = {fmt(spec.interactions_per_domain)}",
        f"overlap_fraction = {fmt(spec.overlap_fraction)}",
        f"shared_dim = {spec.shared_dim}",
        f"specific_dim = {spec.specific_dim}",
        f"shared_weight = {spec.shared_weight}",
        f"affinity_gain = {spec.affinity_gain}",
        f"anchor_specific_boost = {spec.anchor_specific_boost}",
        f"seed = {spec.seed}",
    ]
    return "\n".join(lines) + "\n"


def write_dataset(
    directory: str | Path, spec: SynthSpec, dataset: MultiDomainDataset, truth: GroundTruth
) -> None:
    """interactions.tsv plus a spec manifest and the ground-truth latents.

    Each file is written atomically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_interactions(directory / "interactions.tsv", dataset.records())
    with atomic_write(directory / "synth.manifest") as handle:
        handle.write(spec_manifest(spec))
    with atomic_write(directory / "latents.npz", "wb") as handle:
        np.savez(handle, **truth.arrays())
