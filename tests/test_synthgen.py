import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from edda import synthgen
from edda.mdgraph import anchors, overlap_ratio
from edda.synthgen import (
    SynthError,
    SynthSpec,
    generate,
    load_spec,
    spec_manifest,
    write_dataset,
)

from oracles import calibrate_intercept_200, fill_by_stable_argsort, generate_reference


def _spec(**overrides):
    base = dict(
        num_domains=2,
        users_per_domain=20,
        items_per_domain=30,
        interactions_per_domain=180,
        overlap_fraction=0.1,
        shared_dim=6,
        specific_dim=3,
        shared_weight=0.7,
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_interaction_counts_match_spec_exactly():
    spec = _spec(interactions_per_domain=(150, 200))
    ds, _ = generate(spec)
    assert ds.graph(0).n_edges == 150
    assert ds.graph(1).n_edges == 200


def test_every_entity_is_covered():
    ds, _ = generate(_spec())
    for d, graph in enumerate(ds.domains):
        assert graph.n_users == 20
        assert graph.n_items == 30
        assert graph.user_degree.min() >= 1
        assert graph.item_degree.min() >= 1


def test_realized_overlap_matches_request_within_rounding():
    for f in (0.05, 0.1, 0.3):
        ds, _ = generate(_spec(overlap_fraction=f, interactions_per_domain=200))
        realized = overlap_ratio(ds, 0, 1)
        total = 2 * (20 + 30)
        assert abs(realized - f) <= 2.0 / (total * (1 - f))


def test_three_domains_pairwise_overlap():
    spec = _spec(
        num_domains=3,
        users_per_domain=(20, 20, 10),
        items_per_domain=(25, 25, 12),
        interactions_per_domain=(150, 150, 60),
        overlap_fraction=0.08,
    )
    ds, _ = generate(spec)
    for d, d_prime in [(0, 1), (0, 2), (1, 2)]:
        assert len(anchors(ds, d, d_prime)) > 0
        assert abs(overlap_ratio(ds, d, d_prime) - 0.08) < 0.03


def test_determinism_bytewise(tmp_path):
    spec = _spec()
    for name in ("a", "b"):
        ds, truth = generate(spec)
        write_dataset(tmp_path / name, spec, ds, truth)
    for fname in ("interactions.tsv", "synth.manifest", "latents.npz"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_different_seeds_differ():
    ds1, _ = generate(_spec(seed=1))
    ds2, _ = generate(_spec(seed=2))
    assert not np.array_equal(ds1.records(), ds2.records())


def test_shared_latents_are_reused_across_domains():
    spec = _spec(overlap_fraction=0.2)
    ds, truth = generate(spec)
    shared_users = [n.id for n in anchors(ds, 0, 1).nodes if n.kind == 0]
    assert shared_users
    # one global shared table indexed by id: rows for shared users exist once
    assert truth.shared_user.shape[0] == len(truth.shared_user_ids)


def test_extreme_shared_weights_generate(tmp_path):
    for w in (0.0, 1.0):
        ds, _ = generate(_spec(shared_weight=w))
        assert ds.num_domains == 2


def test_infeasible_specs_error():
    with pytest.raises(SynthError, match="exceeds the smaller domain"):
        generate(_spec(overlap_fraction=0.95, users_per_domain=(20, 4), items_per_domain=(30, 4), interactions_per_domain=(180, 16)))
    with pytest.raises(SynthError, match="cannot cover"):
        generate(_spec(interactions_per_domain=10))
    with pytest.raises(SynthError, match="exceeds the number of pairs"):
        generate(_spec(interactions_per_domain=601))
    with pytest.raises(SynthError):
        SynthSpec(num_domains=0, users_per_domain=1, items_per_domain=1, interactions_per_domain=1)
    with pytest.raises(SynthError):
        _spec(shared_weight=1.5)


def test_spec_file_roundtrip(tmp_path):
    spec = _spec(users_per_domain=(20, 10), items_per_domain=(30, 15), interactions_per_domain=(180, 60))
    path = tmp_path / "spec.cfg"
    path.write_text(spec_manifest(spec))
    loaded = load_spec(path)
    assert loaded == spec


def test_spec_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("num_domains = 2\nbogus = 1\n")
    with pytest.raises(SynthError, match="unknown keys"):
        load_spec(path)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(affinity_gain=float("nan")), "affinity_gain"),
        (dict(affinity_gain=float("inf")), "affinity_gain"),
        (dict(anchor_specific_boost=float("nan")), "anchor_specific_boost"),
        (dict(anchor_specific_boost=float("inf")), "anchor_specific_boost"),
        (dict(users_per_domain=0), "users_per_domain"),
        (dict(items_per_domain=(30, 0)), "items_per_domain"),
        (dict(interactions_per_domain=(0, 180)), "interactions_per_domain"),
    ],
)
def test_spec_rejects_non_finite_values_and_empty_domains(overrides, message):
    with pytest.raises(SynthError, match=message):
        _spec(**overrides)


# -- the generator against its first, exhaustive implementation ---------------


@st.composite
def small_specs(draw):
    """Random 1-3 domain specs and a budget mode: "random", "full" (every
    cell) or "forced" (exactly the coverage cells, so the fill adds none)."""
    n = draw(st.integers(1, 3))
    users = tuple(draw(st.integers(1, 7)) for _ in range(n))
    items = tuple(draw(st.integers(1, 7)) for _ in range(n))
    mode = draw(st.sampled_from(["random", "full", "forced"]))
    budgets = []
    for n_u, n_i in zip(users, items):
        lo, hi = max(n_u, n_i), n_u * n_i
        budgets.append(hi if mode != "random" else draw(st.integers(lo, hi)))
    spec = SynthSpec(
        num_domains=n,
        users_per_domain=users,
        items_per_domain=items,
        interactions_per_domain=tuple(budgets),
        overlap_fraction=draw(st.sampled_from([0.0, 0.1, 0.3])),
        shared_dim=draw(st.integers(1, 4)),
        specific_dim=draw(st.integers(1, 3)),
        shared_weight=draw(st.floats(0.0, 1.0)),
        affinity_gain=draw(st.floats(-8.0, 8.0)),
        anchor_specific_boost=draw(st.sampled_from([1.0, 0.5, 2.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return spec, mode


@settings(max_examples=120, deadline=None)
@given(small_specs())
def test_generate_equals_the_exhaustive_reference(case):
    spec, mode = case
    if mode == "forced":  # the forced cells do not depend on the budgets
        try:
            *_, forced = generate_reference(spec)
            spec = replace(spec, interactions_per_domain=tuple(forced))
        except SynthError:
            pass
    try:
        records, intercepts, latents, forced = generate_reference(spec)
    except SynthError as err:
        event("infeasible")
        with pytest.raises(SynthError, match=re.escape(str(err))):
            generate(spec)
        return
    event(f"feasible, {mode}")
    if mode == "forced":
        assert tuple(forced) == spec.interactions()
    ds, truth = generate(spec)
    assert ds.records().tolist() == [list(rec) for rec in records]
    assert [b.hex() for b in truth.intercepts] == [b.hex() for b in intercepts]
    got = truth.arrays()
    assert got.keys() == latents.keys()
    for name, want in latents.items():
        assert got[name].dtype == want.dtype and np.array_equal(got[name], want), name


def _count_sigmoids(monkeypatch):
    calls = []
    real = synthgen._sigmoid

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(synthgen, "_sigmoid", counted)
    return calls


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.floats(0.0, 12.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(seed=0, n=8, scale=0.0, share=0.5)  # b = 0: no fixed point within 200 steps
def test_calibration_stops_at_the_fixed_point_with_the_200_step_value(seed, n, scale, share):
    z = scale * np.random.default_rng(seed).normal(size=(n, 3))
    target = share * z.size
    want, fixed_step = calibrate_intercept_200(z, target)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_sigmoids(mp)
        got = synthgen._calibrate_intercept(z, target, np.empty_like(z))
    assert got.hex() == want.hex()
    assert len(calls) == (fixed_step or 200)


def test_calibration_on_a_benchmark_sized_domain_takes_at_most_60_sums(monkeypatch):
    spec = _spec(users_per_domain=300, items_per_domain=150, interactions_per_domain=3000)
    calls = _count_sigmoids(monkeypatch)
    generate(spec)
    # one more per domain gives the propensities the fill draws against
    assert len(calls) <= 61 * spec.num_domains


def test_fill_gives_exact_ties_at_the_cut_to_the_lowest_flat_index():
    margin = np.array(
        [
            [0.9, 0.2, 0.5, 0.5],
            [0.5, -0.0, 0.5, 0.1],
            [0.5, 0.0, 0.9, 0.5],
        ]
    )
    chosen = np.zeros(margin.shape, dtype=bool)
    chosen[0, 0] = chosen[0, 2] = True
    for k in range(0, margin.size - 1):
        want = fill_by_stable_argsort(margin, chosen, k)
        got = chosen.copy()
        synthgen._fill_budget(margin.copy(), got, k)
        assert np.array_equal(got, want), k
    # 0.9 at (2, 2), then the first two of the five tied 0.5 cells in flat order
    got = chosen.copy()
    synthgen._fill_budget(margin.copy(), got, 3)
    assert sorted(zip(*np.nonzero(got & ~chosen))) == [(0, 3), (1, 0), (2, 2)]
    # -0.0 at (1, 1) and 0.0 at (2, 1) tie as well: the ninth cell is (1, 1)
    got = chosen.copy()
    synthgen._fill_budget(margin.copy(), got, 9)
    assert got[1, 1] and not got[2, 1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9), st.data())
def test_fill_equals_the_stable_argsort_on_coarse_keys(seed, n_u, n_i, data):
    rng = np.random.default_rng(seed)
    margin = rng.integers(-2, 3, size=(n_u, n_i)) / 2.0  # many exact ties
    chosen = rng.random((n_u, n_i)) < 0.3
    k = data.draw(st.integers(0, int((~chosen).sum())))
    got = chosen.copy()
    synthgen._fill_budget(margin.copy(), got, k)
    assert np.array_equal(got, fill_by_stable_argsort(margin, chosen, k))
    assert got.sum() == chosen.sum() + k


# sha256 of the dataset files `_spec()` generates. A change here changes every
# synthetic dataset: version the generator instead of updating the hashes.
GOLDEN_SHA256 = {
    "interactions.tsv": "bde2b9f91042d132886c6949bf15d69aaea5760b6f6b004a52df5573f69ce69a",
    "latents.npz": "e470423291f408265bcfd6cd439fd61489dfda7ace1ce8cfd759b7f3942509d3",
}


def test_generator_bytes_are_pinned(tmp_path):
    spec = _spec()
    write_dataset(tmp_path, spec, *generate(spec))
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256
