import hashlib
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from edda import synthgen
from edda.mdgraph import anchors, ingest, split_keys
from edda.synthgen import (
    SynthError,
    SynthSpec,
    generate,
    load_spec,
    spec_manifest,
    write_dataset,
)

from oracles import (
    allocate_ids_by_lists,
    calibrate_intercept_200,
    fill_by_stable_argsort,
    generate_reference,
    spec_texts,
)


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
    ds = ingest(generate(spec)[0])
    assert ds.graph(0).n_edges == 150
    assert ds.graph(1).n_edges == 200


def test_every_entity_is_covered():
    ds = ingest(generate(_spec())[0])
    for d, graph in enumerate(ds.domains):
        assert graph.n_users == 20
        assert graph.n_items == 30
        assert graph.user_degree.min() >= 1
        assert graph.item_degree.min() >= 1


def _pooled_overlap(ds, d, d_prime):
    """(|U∩| + |I∩|) / (|U∪| + |I∪|) of two domains."""
    a, b = ds.graph(d).keys, ds.graph(d_prime).keys
    return len(np.intersect1d(a, b)) / len(np.union1d(a, b))


def test_realized_overlap_matches_request_within_rounding():
    for f in (0.05, 0.1, 0.3):
        ds = ingest(generate(_spec(overlap_fraction=f, interactions_per_domain=200))[0])
        realized = _pooled_overlap(ds, 0, 1)
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
    ds = ingest(generate(spec)[0])
    for d, d_prime in [(0, 1), (0, 2), (1, 2)]:
        assert len(anchors(ds, d, d_prime)) > 0
        assert abs(_pooled_overlap(ds, d, d_prime) - 0.08) < 0.03


def test_determinism_bytewise(tmp_path):
    spec = _spec()
    for name in ("a", "b"):
        write_dataset(tmp_path / name, spec, *generate(spec))
    for fname in ("interactions.tsv", "synth.manifest", "latents.npz"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_different_seeds_differ():
    records1, _ = generate(_spec(seed=1))
    records2, _ = generate(_spec(seed=2))
    assert not np.array_equal(records1, records2)


def test_shared_latents_are_reused_across_domains():
    spec = _spec(overlap_fraction=0.2)
    records, latents = generate(spec)
    kinds, ids = split_keys(anchors(ingest(records), 0, 1))
    shared_users = ids[kinds == 0]
    assert len(shared_users)
    # one global shared table indexed by id: rows for shared users exist once
    assert latents["shared_user"].shape[0] == len(latents["shared_user_ids"])
    for d in (0, 1):
        assert np.isin(shared_users, latents[f"specific_user_ids_{d}"]).all()


def test_extreme_shared_weights_generate(tmp_path):
    for w in (0.0, 1.0):
        records, _ = generate(_spec(shared_weight=w))
        assert ingest(records).num_domains == 2


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


@settings(max_examples=200, deadline=None)
@given(spec_texts())
def test_load_spec_returns_a_spec_or_raises_synth_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("spec") / "spec.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        spec = load_spec(path)
    except SynthError as err:
        assert str(err).startswith(f"{path}")
        return
    assert 1 <= spec.num_domains <= synthgen.MAX_DOMAINS
    assert all(1 <= n <= 2**62 - 1 for n in spec.users() + spec.items() + spec.interactions())


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
    """Keyword arguments of random 1-3 domain specs, every count a tuple, and
    a budget mode: "random", "full" (every cell) or "forced" (exactly the
    coverage cells, so the fill adds none). Some specs are infeasible, so
    they are drawn as arguments: `SynthSpec` refuses to build those."""
    n = draw(st.integers(1, 3))
    users = tuple(draw(st.integers(1, 7)) for _ in range(n))
    items = tuple(draw(st.integers(1, 7)) for _ in range(n))
    mode = draw(st.sampled_from(["random", "full", "forced"]))
    budgets = []
    for n_u, n_i in zip(users, items):
        lo, hi = max(n_u, n_i), n_u * n_i
        budgets.append(hi if mode != "random" else draw(st.integers(lo, hi)))
    kwargs = dict(
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
    return kwargs, mode


def _latent_names(num_domains):
    """latents.npz member names in their file order."""
    names = ["shared_user_ids", "shared_user", "shared_item_ids", "shared_item", "intercepts"]
    for kind in ("user", "item"):
        for d in range(num_domains):
            names += [f"specific_{kind}_ids_{d}", f"specific_{kind}_{d}"]
    return names


@settings(max_examples=120, deadline=None)
@given(small_specs())
def test_generate_equals_the_exhaustive_reference(case):
    kwargs, mode = case
    if mode == "forced":  # the forced cells do not depend on the budgets
        try:
            *_, forced = generate_reference(kwargs)
            kwargs = {**kwargs, "interactions_per_domain": tuple(forced)}
        except SynthError:
            pass
    try:
        records, intercepts, latents, forced = generate_reference(kwargs)
    except SynthError as err:
        event("infeasible")
        with pytest.raises(SynthError, match=re.escape(str(err))):
            generate(SynthSpec(**kwargs))
        return
    event(f"feasible, {mode}")
    if mode == "forced":
        assert tuple(forced) == kwargs["interactions_per_domain"]
    got_records, got = generate(SynthSpec(**kwargs))
    assert got_records.dtype == np.int64
    # sorted and distinct: `write_interactions` writes them in this order
    assert got_records.tolist() == [list(rec) for rec in records]
    assert [b.hex() for b in got["intercepts"]] == [b.hex() for b in intercepts]
    assert list(got) == _latent_names(kwargs["num_domains"])
    assert got.keys() == latents.keys()
    for name, want in latents.items():
        assert got[name].dtype == want.dtype and np.array_equal(got[name], want), name


@st.composite
def id_specs(draw):
    """Keyword arguments of specs with 1-5 domains of up to 40 users and items
    and any overlap in [0, 1]; every budget lies in [max(n_u, n_i), n_u * n_i],
    so only the overlap can make a spec infeasible."""
    n = draw(st.integers(1, 5))
    users = tuple(draw(st.integers(1, 40)) for _ in range(n))
    items = tuple(draw(st.integers(1, 40)) for _ in range(n))
    budgets = tuple(max(n_u, n_i) for n_u, n_i in zip(users, items))
    overlap = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])))
    return dict(
        num_domains=n,
        users_per_domain=users,
        items_per_domain=items,
        interactions_per_domain=budgets,
        overlap_fraction=overlap,
    )


@settings(max_examples=300, deadline=None)
@given(id_specs())
def test_allocate_ids_equals_the_list_allocator(kwargs):
    args = kwargs["users_per_domain"], kwargs["items_per_domain"], kwargs["overlap_fraction"]
    try:
        want_users, want_items, n_users, n_items = allocate_ids_by_lists(*args)
    except SynthError as err:
        event("infeasible")
        with pytest.raises(SynthError, match=re.escape(str(err))):
            SynthSpec(**kwargs)
        return
    event("feasible")
    spec = SynthSpec(**kwargs)
    shared_users, shared_items = synthgen._shared_blocks(spec)
    for counts, shared, want, n in (
        (spec.users(), shared_users, want_users, n_users),
        (spec.items(), shared_items, want_items, n_items),
    ):
        got, n_got = synthgen._allocate_ids(counts, shared)
        assert n_got == n
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_infeasible_counts_fail_when_the_spec_is_built(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("ids allocated for an infeasible spec")

    monkeypatch.setattr(synthgen, "_allocate_ids", no_allocation)
    with pytest.raises(SynthError, match="budget 10 cannot cover 2000000 users and 10 items"):
        SynthSpec(
            num_domains=2,
            users_per_domain=2_000_000,
            items_per_domain=10,
            interactions_per_domain=10,
        )


def test_a_spec_with_several_faults_reports_a_budget_before_the_coverage_minimum():
    # domain 0's coverage needs 6 cells at seed 0 and domain 1's budget cannot
    # cover its 5 users: the first generator met domain 0's fault first
    kwargs = dict(
        num_domains=2,
        users_per_domain=(4, 5),
        items_per_domain=(4, 2),
        interactions_per_domain=(4, 4),
        overlap_fraction=0.0,
        shared_dim=8,
        specific_dim=4,
        shared_weight=0.5,
        affinity_gain=4.0,
        anchor_specific_boost=1.0,
        seed=0,
    )
    with pytest.raises(SynthError, match="domain 0: budget below the coverage minimum 6"):
        generate_reference(kwargs)
    with pytest.raises(SynthError, match="domain 1: budget 4 cannot cover 5 users and 2 items"):
        SynthSpec(**kwargs)


def _count_sigmoids(monkeypatch):
    """The (grid size, b) of every sigmoid `synthgen` computes from now on."""
    calls = []
    real = synthgen._sigmoid

    def counted(z, b, out):
        calls.append((z.size, b))
        return real(z, b, out)

    monkeypatch.setattr(synthgen, "_sigmoid", counted)
    return calls


def _calibrate_counted(z, target):
    """`_calibrate_intercept(z, target)`, the b of each full-grid sum it
    took, in order, and how many sample entries it summed."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        calls = _count_sigmoids(mp)
        got = synthgen._calibrate_intercept(z, target, np.empty_like(z))
    full = [b for size, b in calls if size == z.size]
    sampled = [size for size, _ in calls if size != z.size]
    # the sample sums cost at most one full-grid sum
    assert len(sampled) <= synthgen._SAMPLE_SUMS and sum(sampled) <= z.size
    return got, full, sum(sampled)


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
    got, full, _ = _calibrate_counted(z, target)
    assert got.hex() == want.hex()
    assert len(full) <= (fixed_step or 200) + synthgen._HINT_SUMS


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_u=st.integers(1, 40),
    n_i=st.integers(1, 40),
    scale=st.floats(0.0, 100.0),
    constant=st.booleans(),
    target=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(["cover", "every cell"])
    ),
)
@example(seed=0, n_u=6, n_i=4, scale=0.0, constant=False, target=0.5)  # root exactly 0
@example(seed=1, n_u=5, n_i=7, scale=3.0, constant=True, target=0.3)
@example(seed=2, n_u=30, n_i=20, scale=100.0, constant=False, target=0.1)  # z + b leaves [-60, 60]
@example(seed=3, n_u=30, n_i=20, scale=300.0, constant=False, target=0.4)  # exp overflows
@example(seed=4, n_u=9, n_i=5, scale=4.0, constant=False, target="cover")
@example(seed=5, n_u=9, n_i=5, scale=4.0, constant=False, target="every cell")
@example(seed=6, n_u=1, n_i=1, scale=4.0, constant=False, target=0.7)
@example(seed=7, n_u=1, n_i=1, scale=4.0, constant=False, target="every cell")
@example(seed=8, n_u=8, n_i=8, scale=1e17, constant=False, target=0.5)  # nothing certified
# grids of 1024 entries and more start the hint on a sample
@example(seed=9, n_u=32, n_i=32, scale=0.0, constant=False, target="every cell")
@example(seed=10, n_u=40, n_i=40, scale=4.0, constant=False, target="cover")
@example(seed=11, n_u=40, n_i=32, scale=40.0, constant=True, target=0.2)
def test_calibration_is_bit_equal_to_the_200_step_bisection(
    seed, n_u, n_i, scale, constant, target
):
    z = np.random.default_rng(seed).normal(size=(n_u, n_i))
    if constant:
        z[:] = z[0, 0]
    z *= scale
    target = {"cover": max(n_u, n_i), "every cell": n_u * n_i}.get(target, target * z.size)
    with np.errstate(over="ignore"):
        want, fixed_step = calibrate_intercept_200(z, target)
    got, full, _ = _calibrate_counted(z, target)
    assert got.hex() == want.hex()
    assert len(full) <= (fixed_step or 200) + synthgen._HINT_SUMS


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_u=st.integers(1, 80),
    n_i=st.integers(1, 80),
    scale=st.floats(0.0, 20.0),
    share=st.floats(0.0, 1.0, exclude_min=True),
)
@example(seed=0, n_u=8, n_i=1, scale=0.0, share=0.5)  # b = 0 is the first mid
@example(seed=1, n_u=64, n_i=32, scale=4.0, share=0.1)
def test_calibration_never_sums_one_b_twice(seed, n_u, n_i, scale, share):
    z = scale * np.random.default_rng(seed).normal(size=(n_u, n_i))
    _, full, _ = _calibrate_counted(z, share * z.size)
    assert len(set(full)) == len(full)


# (num_domains, users, items, interactions, overlap) of the benchmark workloads
BENCHMARK_SHAPES = [(3, 300, 150, 3000, 0.25), (2, 600, 300, 22500, 0.05), (3, 1000, 500, 4700, 0.1)]
# the most full-grid sums the first domain took at seeds 0-2 (20, 20 and 18
# before the hint started on a sample and no b was summed twice)
BENCHMARK_SUMS = [16, 17, 14]


class _FirstDomain(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "shape, most_sums",
    list(zip(BENCHMARK_SHAPES, BENCHMARK_SUMS)),
    ids=["align_heavy", "train_dense", "train_sparse"],
)
def test_calibration_of_a_benchmark_domain_is_bit_equal_to_the_200_step_bisection(
    monkeypatch, shape, most_sums, seed
):
    num_domains, users, items, budget, overlap = shape
    seen = []

    def first_domain(z, target, out):
        seen.append((z.copy(), target))
        raise _FirstDomain

    monkeypatch.setattr(synthgen, "_calibrate_intercept", first_domain)
    with pytest.raises(_FirstDomain):
        generate(SynthSpec(num_domains, users, items, budget, overlap, seed=seed))
    monkeypatch.undo()
    (z, target), = seen
    want, fixed_step = calibrate_intercept_200(z, target)
    got, full, _ = _calibrate_counted(z, target)
    assert got.hex() == want.hex()
    assert len(full) <= most_sums < fixed_step
    assert len(set(full)) == len(full)


def test_calibration_on_a_benchmark_sized_domain_takes_at_most_16_full_grid_sums(monkeypatch):
    spec = _spec(users_per_domain=300, items_per_domain=150, interactions_per_domain=3000)
    calls = _count_sigmoids(monkeypatch)
    generate(spec)
    sizes = [size for size, _ in calls]
    # one of the 16 gives the propensities the fill draws against
    assert sizes.count(300 * 150) <= 16 * spec.num_domains
    assert len(sizes) - sizes.count(300 * 150) <= synthgen._SAMPLE_SUMS * spec.num_domains


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
