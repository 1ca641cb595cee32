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
steps. The sigmoid sum is computed only at steps whose branch is in doubt, and
never twice at one intercept: a capped Newton hint, begun on a 1/16 sample
of the grid, and two sums beside it certify a point below and a point above
the root, each clearing the target by a relative margin of
8u (max|z| + 60 + ceil(log2 n) + 32), u = 2**-53, which bounds the sum's
rounding error; a step whose mid lies beyond one of them takes its branch
without a sum (`_calibrate_intercept` gives the derivation). At the
benchmark sizes that is 13-14 full-grid sums per domain on 1000 x 500
grids, 15-16 on 300 x 150 and 16-17 on 600 x 300, plus 3-4 sample sums,
where the plain bisection took about 57.

The budget fill takes the unchosen cells of largest margin (propensity minus
a uniform draw); an exact tie at the cut goes to the lowest row-major cell
index, so the set is the first cells of a stable sort by descending margin.

Feasibility is checked when a `SynthSpec` is built: every check that needs
only the counts (a pair's overlap against the smaller domain, the shared
blocks against each domain, the budget against n_u * n_i and against
max(n_u, n_i)) runs in `__post_init__`, before any id or latent exists.
`generate` checks only the coverage minimum, which depends on the latents.
It returns the sorted (domain, user, item) records as an (n, 3) int64 array
and the latents as one dict keyed by their `latents.npz` names (shared, then
`intercepts`, then every `specific_user*`, then every `specific_item*`);
`write_dataset` writes both as they are.

`anchor_specific_boost` scales the per-domain latents of overlapping
entities: entities present in several domains are both more active and more
idiosyncratic per domain, which is what makes a single shared embedding pay a
price for serving all domains at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .mdgraph import MAX_ID, atomic_write, read_key_values, write_interactions
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
    """Generator settings; building one runs every check that needs only the counts."""

    num_domains: int
    users_per_domain: tuple[int, ...] | int
    items_per_domain: tuple[int, ...] | int
    interactions_per_domain: tuple[int, ...] | int
    overlap_fraction: float = 0.0
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
        if self.seed < 0:
            raise SynthError(f"seed must be non-negative, got {self.seed}")
        users, items, budgets = self.users(), self.items(), self.interactions()
        for name, counts in (
            ("users_per_domain", users),
            ("items_per_domain", items),
            ("interactions_per_domain", budgets),
        ):
            if min(counts) < 1:
                raise SynthError(f"{name} must be at least 1 in every domain")
            if max(counts) > MAX_ID:
                raise SynthError(f"{name} must be at most {MAX_ID} in every domain")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise SynthError("overlap fractions must lie in [0, 1]")
        shared_users, shared_items = _shared_blocks(self)
        in_users, in_items = [0] * self.num_domains, [0] * self.num_domains
        for (d, d_prime), s_users in shared_users.items():
            s_items = shared_items[(d, d_prime)]
            if s_users > min(users[d], users[d_prime]) or s_items > min(items[d], items[d_prime]):
                raise SynthError(
                    f"pair ({d},{d_prime}): requested overlap exceeds the smaller domain"
                )
            for dd in (d, d_prime):
                in_users[dd] += s_users
                in_items[dd] += s_items
        for d in range(self.num_domains):
            if in_users[d] > users[d] or in_items[d] > items[d]:
                raise SynthError(f"domain {d}: shared blocks exceed its user/item budget")
        for d, (n_u, n_i, budget) in enumerate(zip(users, items, budgets)):
            if budget > n_u * n_i:
                raise SynthError(f"domain {d}: budget exceeds the number of pairs")
            if budget < max(n_u, n_i):
                raise SynthError(
                    f"domain {d}: budget {budget} cannot cover {n_u} users and {n_i} items"
                )

    def users(self) -> tuple[int, ...]:
        return _per_domain(self.users_per_domain, self.num_domains, "users_per_domain")

    def items(self) -> tuple[int, ...]:
        return _per_domain(self.items_per_domain, self.num_domains, "items_per_domain")

    def interactions(self) -> tuple[int, ...]:
        return _per_domain(
            self.interactions_per_domain, self.num_domains, "interactions_per_domain"
        )


def _shared_blocks(spec: SynthSpec) -> tuple[dict, dict]:
    """Shared users and shared items per domain pair, in pair order, sized to
    hit the requested overlap."""
    users, items = spec.users(), spec.items()
    f = spec.overlap_fraction
    shared_users, shared_items = {}, {}
    for d in range(spec.num_domains):
        for d_prime in range(d + 1, spec.num_domains):
            s_users = s_items = 0
            if f != 0.0:
                total = users[d] + users[d_prime] + items[d] + items[d_prime]
                s_total = int(round(f * total / (1.0 + f)))
                s_users = int(round(s_total * ((users[d] + users[d_prime]) / total)))
                s_items = s_total - s_users
            shared_users[(d, d_prime)] = s_users
            shared_items[(d, d_prime)] = s_items
    return shared_users, shared_items


def _allocate_ids(counts: Sequence[int], shared: dict) -> tuple[list[np.ndarray], int]:
    """Global ids of one kind per domain, and how many there are.

    Each pair's shared block takes the next consecutive ids, in pair order,
    then each domain's private ids follow in domain order. Every block is a
    range above the earlier ones, so each domain's ids come out ascending.
    """
    blocks: list[list[np.ndarray]] = [[] for _ in counts]
    next_id = 0
    for (d, d_prime), size in shared.items():
        block = np.arange(next_id, next_id + size, dtype=np.int64)
        blocks[d].append(block)
        blocks[d_prime].append(block)
        next_id += size
    for d, count in enumerate(counts):
        private = count - sum(len(block) for block in blocks[d])
        blocks[d].append(np.arange(next_id, next_id + private, dtype=np.int64))
        next_id += private
    return [np.concatenate(domain_blocks) for domain_blocks in blocks], next_id


_HINT_SUMS = 16  # full-grid sums `_calibrate_intercept` may spend before its bisection
_SAMPLE_STRIDE = 16  # the hint's sample: every 16th entry of z
_SAMPLE_SUMS = 6  # sums the hint may spend on the sample, each about 1/16 of a full-grid one


def _calibrate_intercept(z: np.ndarray, target: float, out: np.ndarray) -> float:
    """Bisection on b so that sum(sigmoid(z + b)) equals the target count.

    Returns what 200 bisection steps on [-60, 60] return, bit for bit, but
    sums only at steps whose branch is in doubt, and never twice at one b:
    `evaluate` returns the sum it took before. `out` is C-contiguous scratch
    space shaped like `z`. First, safeguarded Newton steps on log S, with
    S' = S - sigma.sigma, find a hint; nothing relies on it. They start on
    a sample, every 16th entry of z with the target scaled by its share, and
    stop there once a step is under 0.1 (at most `_SAMPLE_SUMS` sums; grids of
    under 1024 entries skip the sample). From that point they go on over the
    full grid; only full-grid sums set their bracket or certify a point. Each
    Newton point lies strictly inside the bracket of the points before it,
    so none repeats. Two more sums at the hint +- w certify a point: a sum s
    at x in [-60, 60] makes x `below` if s (1 + m) + slack < target, `above`
    if s (1 - m) - slack >= target. The bisection then runs as it always has,
    with its fixed-point stop (the first step whose branch would leave
    (lo, hi) unchanged) and its 200-step cap, but a mid <= below takes the
    low branch and a mid >= above the high one without a sum.

    Why that is exact: the computed sum s(x) and the real sum S(x) satisfy
    |s(x) - S(x)| <= eps S(x) + delta, eps = 2u (max|z| + 60 + ceil(log2 n) + 32),
    u = 2**-53 (Higham, ch. 3-4). Per term, fl(z + x) is off by at most
    u (|z| + 60), which 0 <= d log(sigma)/dx <= 1 carries into sigma times at
    most 1.07 while eps < 1/4; exp adds at most 4 ULP, the add and divide a
    rounding each, and numpy's pairwise sum over the contiguous buffer at most
    ceil(log2 n) + 19 levels. A term whose exp overflows or whose quotient is
    subnormal is off by under 1e-307, so delta < n 1e-307. S increases with
    b, so for mid <= below, s(mid) <= (1 + eps) S(below) + delta
    <= (s(below) + delta)(1 + eps)/(1 - eps) + delta < target: m = 4 eps covers
    (1 + eps)/(1 - eps) and the test's own roundings, slack = n 1e-300 covers
    (2 + m) delta. `above` is symmetric. With eps >= 1/4, m is infinite and
    no point is certified.
    """
    n = z.size
    eps = 2.0 ** -52 * (max(z.max(), -z.min()) + 60.0 + math.ceil(math.log2(n)) + 32)
    m = 4.0 * eps if eps < 0.25 else math.inf
    slack = n * 1e-300
    below, above = -math.inf, math.inf
    taken: dict[float, float] = {}  # b: the full-grid sum at b

    def evaluate(b: float) -> float:
        nonlocal below, above
        if b not in taken:
            s = taken[b] = float(np.sum(_sigmoid(z, b, out)))
            if s * (1.0 + m) + slack < target:
                below = max(below, b)
            elif s * (1.0 - m) - slack >= target:
                above = min(above, b)
        return taken[b]

    def newton(total, sigma: np.ndarray, goal: float, b: float, sums: int, tol: float):
        """At most `sums` Newton steps from b; `total(b)` leaves the sigmoids
        in `sigma`. Returns the next point and its band (how far b moves S by m S)."""
        lo, hi, band = -60.0, 60.0, math.inf
        for _ in range(sums):
            s = total(b)
            lo, hi = (b, hi) if s < goal else (lo, b)
            slope = s - float(np.dot(sigma, sigma))  # S'(b) = sum of sigma (1 - sigma)
            step = math.nan
            if min(s, slope, goal) > 0.0:
                band, step = m * s / slope, math.log(goal / s) * s / slope
            if step * step <= max(band, tol):  # the next step, about step**2, would lie inside it
                return b + step, band
            b = b + step if lo < b + step < hi else 0.5 * (lo + hi)
            if not lo < b < hi:  # lo and hi are adjacent
                break
        return b, band

    b, k = 0.0, n // _SAMPLE_STRIDE
    if k >= 64:
        sigma, sample = out.reshape(-1)[:k], out.reshape(-1)[k : 2 * k]
        np.copyto(sample, z.reshape(-1)[::_SAMPLE_STRIDE][:k])

        def sample_sum(x: float) -> float:
            return float(np.sum(_sigmoid(sample, x, sigma)))

        b, _ = newton(sample_sum, sigma, target * k / n, b, _SAMPLE_SUMS, 1e-2)
    b, band = newton(evaluate, out.reshape(-1), target, b, _HINT_SUMS - 2, 0.0)
    w = max(1.25 * band, 4.0 * math.ulp(b))
    evaluate(max(b - w, -60.0))
    evaluate(min(b + w, 60.0))

    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and evaluate(mid) < target):
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return 0.5 * (lo + hi)


def _sigmoid(z: np.ndarray, b: float, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-(z + b))) written into `out`, one ufunc at a time.

    -(z + b) is computed in one pass as -b - z, which has the same bits
    because round-to-nearest is sign-symmetric."""
    np.subtract(-b, z, out=out)
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


def generate(spec: SynthSpec) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The (n, 3) int64 (domain, user, item) records, sorted and distinct,
    and the latents by `latents.npz` name; byte-deterministic under seed.
    Only the coverage minimum is checked here."""
    rng = np.random.default_rng(spec.seed)
    shared_users, shared_items = _shared_blocks(spec)
    domain_users, n_users = _allocate_ids(spec.users(), shared_users)
    domain_items, n_items = _allocate_ids(spec.items(), shared_items)
    user_multiplicity = np.bincount(np.concatenate(domain_users), minlength=n_users)
    item_multiplicity = np.bincount(np.concatenate(domain_items), minlength=n_items)

    shared_user = rng.normal(size=(n_users, spec.shared_dim))
    shared_item = rng.normal(size=(n_items, spec.shared_dim))
    intercepts = np.zeros(spec.num_domains)
    latents = {
        "shared_user_ids": np.arange(n_users),
        "shared_user": shared_user,
        "shared_item_ids": np.arange(n_items),
        "shared_item": shared_item,
        "intercepts": intercepts,
    }
    item_latents = {}  # npz member order: every user block before any item block
    records = []
    for d, budget in enumerate(spec.interactions()):
        u_ids, i_ids = domain_users[d], domain_items[d]
        n_u, n_i = len(u_ids), len(i_ids)
        p_spec = rng.normal(size=(n_u, spec.specific_dim))
        q_spec = rng.normal(size=(n_i, spec.specific_dim))
        if spec.anchor_specific_boost != 1.0:
            p_spec[user_multiplicity[u_ids] > 1] *= spec.anchor_specific_boost
            q_spec[item_multiplicity[i_ids] > 1] *= spec.anchor_specific_boost
        latents[f"specific_user_ids_{d}"], latents[f"specific_user_{d}"] = u_ids, p_spec
        item_latents[f"specific_item_ids_{d}"], item_latents[f"specific_item_{d}"] = i_ids, q_spec

        # z = gain (w shared + (1 - w) specific), built in place; `margin`
        # then serves as the sigmoid's scratch space
        z = shared_user[u_ids] @ shared_item[i_ids].T
        z /= np.sqrt(spec.shared_dim)
        margin = p_spec @ q_spec.T
        margin /= np.sqrt(spec.specific_dim)
        z *= spec.shared_weight
        margin *= 1.0 - spec.shared_weight
        z += margin
        z *= spec.affinity_gain
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

        # row-major over ascending ids, so (user, item) order; one flat scan is
        # cheaper than the 2-D `np.nonzero`
        rows, cols = np.divmod(np.flatnonzero(chosen), n_i)
        records.append(np.column_stack([np.full(len(rows), d), u_ids[rows], i_ids[cols]]))
    return np.concatenate(records), {**latents, **item_latents}


# -- spec files and output bundles -------------------------------------------


def _parse_counts(text: str):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    values = [int(p) for p in parts]
    return values[0] if len(values) == 1 else tuple(values)


def load_spec(path: str | Path) -> SynthSpec:
    """Read a `key = value` spec file; counts may be single ints or comma lists.
    A value that does not parse or lies out of range raises SynthError naming the file."""
    raw = read_key_values(path, SynthError)
    types = {f.name: f.type for f in fields(SynthSpec)}
    unknown = set(raw) - set(types)
    if unknown:
        raise SynthError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        try:
            if key.endswith("_per_domain"):
                kwargs[key] = _parse_counts(value)
            else:
                kwargs[key] = int(value) if types[key] == "int" else float(value)
        except ValueError as err:
            raise SynthError(f"{path}: {key}: {err}") from None
    try:
        return SynthSpec(**kwargs)
    except (TypeError, SynthError) as err:
        raise SynthError(f"{path}: {err}") from None


def spec_manifest(spec: SynthSpec) -> str:
    """One `key = value` line per spec field, in field order; counts as comma lists."""
    lines = []
    for f in fields(SynthSpec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}\n")
    return "".join(lines)


def write_dataset(
    directory: str | Path,
    spec: SynthSpec,
    records: np.ndarray,
    latents: dict[str, np.ndarray],
) -> None:
    """`records` as interactions.tsv, in the order given, plus a spec
    manifest and `latents` as latents.npz.

    Each file is written atomically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_interactions(directory / "interactions.tsv", records)
    with atomic_write(directory / "synth.manifest") as handle:
        handle.write(spec_manifest(spec))
    with atomic_write(directory / "latents.npz", "wb") as handle:
        np.savez(handle, **latents)
