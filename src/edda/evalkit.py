"""Dataset splitting and ranking evaluation.

Interactions are split 7:1:2 per user per domain, so every user keeps at
least one training interaction where possible. Each evaluation case pits one
held-out positive against 10 sampled un-interacted items of the same domain;
the negatives are derived from an evaluation seed only, so they are frozen
across models and runs. They are the items that numpy's
`default_rng(SeedSequence((eval_seed, d, user, item))).choice(eligible, 10,
replace=False)` picks for the case, but no generator is built per case:
`build_cases` replays numpy's SeedSequence hashing, PCG64 stream and Floyd
sampling over Lemire bounded draws for all of a domain's cases at once, in
uint32/uint64 array arithmetic. tests/test_evalkit.py pins the replay to
numpy: `test_case_sets_equal_reference_cases` against the per-case
`tests/oracles.eval_cases`, and the `test_choice_replay_*` tests.

AUC averages the pairwise ordering probability over users; Recall@1 is the
fraction of cases whose positive ranks strictly first among its 11
candidates (score ties break toward the smaller item id, so a tied lower-id
negative counts as a miss).

Splits and cases are integer arrays. A domain's cases form one `CaseSet`
(users, positives and row-sorted negatives, as raw ids). `build_all_cases`
builds a split's case sets and stores nothing: the caller keeps them, so a
training run builds its validation cases once and hands them to both the
per-epoch validation and the validation report. Scoring reads the case sets
through the model's `Encoding` with integer node keys, one domain after the
other (the encoding holds one domain's `[inter | intra(d)]` matrix at a
time) and `SCORE_CHUNK` cases at a time, and computes AUC by one search of
per-user sorted score keys and Recall@1 in one comparison.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .edmodel import EDModel, Encoding
from .mdgraph import DomainGraph, MultiDomainDataset, NodeKind, atomic_write, node_keys
from .mdgraph import ingest  # noqa: F401  (perfbench/tests expect evalkit.ingest to be traced)
from .seeding import pcg64_states, pcg64_step

logger = logging.getLogger(__name__)

NUM_EVAL_NEGATIVES = 10
SCORE_CHUNK = 256  # cases per scoring block


@dataclass
class SplitDataset:
    """Train/validation/test partition of a dataset's interactions.

    The held-out arrays are read-only; their case sets are built from them by
    `build_all_cases` and kept by the caller.
    """

    full: MultiDomainDataset
    train: MultiDomainDataset
    validation: list[np.ndarray]  # per domain, (n, 2) raw (user_id, item_id)
    test: list[np.ndarray]


@dataclass(frozen=True)
class CaseSet:
    """One domain's evaluation cases, one row per held-out (user, positive).

    Ids are raw user and item ids; `negatives` is (n, 10), each row sorted.
    """

    domain: int
    users: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def _quota(n: int, ratios: tuple[int, int, int]) -> tuple[int, int, int]:
    """Largest-remainder allocation; ties and the n>=1 guarantee favor train."""
    total = sum(ratios)
    raw = [n * r / total for r in ratios]
    counts = [int(np.floor(x)) for x in raw]
    remainder = n - sum(counts)
    order = sorted(range(3), key=lambda k: (-(raw[k] - counts[k]), k))
    for k in order[:remainder]:
        counts[k] += 1
    if n >= 1 and counts[0] == 0:
        donor = int(np.argmax(counts[1:])) + 1
        counts[donor] -= 1
        counts[0] += 1
    return tuple(counts)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def split(
    dataset: MultiDomainDataset, ratios: tuple[int, int, int] = (7, 1, 2), seed: int = 0
) -> SplitDataset:
    """Per-user-per-domain stratified random split, deterministic under seed.

    Each user's items (in id order) are shuffled by one `rng.permutation`
    call, users in id order and domains in order; the first `_quota` shares
    of the shuffled row go to train, validation and test.
    """
    if any(r < 0 for r in ratios) or ratios[0] <= 0:
        raise ValueError("ratios must be positive with a non-zero train share")
    rng = np.random.default_rng(seed)
    train_graphs: list[DomainGraph] = []
    val_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for d, graph in enumerate(dataset.domains):
        # user CSR rows list items in id order, so row positions are the
        # canonical (user, item)-sorted edge indices
        degree = graph.user_degree
        start = np.repeat(graph.adj_indptr[: graph.n_users], degree)
        quotas = np.array([_quota(n, ratios) for n in range(degree.max() + 1)])
        cuts = np.repeat(np.cumsum(quotas[degree], axis=1)[:, :2], degree, axis=0)
        # the item at rank r of its user's shuffled row goes to part 0, 1 or 2
        rank = np.arange(graph.n_edges) - start
        shuffled = np.concatenate([rng.permutation(n) for n in degree.tolist()]) + start
        label = np.empty(graph.n_edges, dtype=np.int64)
        label[shuffled] = np.sum(rank[:, None] >= cuts, axis=1)
        pairs = graph.user_item_pairs()
        train_graphs.append(DomainGraph(d, pairs[label == 0]))
        val_parts.append(_read_only(pairs[label == 1]))
        test_parts.append(_read_only(pairs[label == 2]))
    return SplitDataset(
        full=dataset,
        train=MultiDomainDataset(train_graphs),
        validation=val_parts,
        test=test_parts,
    )


# -- evaluation cases ---------------------------------------------------------


def build_cases(
    split_data: SplitDataset, d: int, which: str = "test", eval_seed: int = 0
) -> CaseSet:
    """One case per held-out (user, positive); negatives frozen by eval_seed.

    Negatives are drawn without replacement from the domain's items that the
    user never interacted with in any split; cases of users with fewer than
    10 eligible items are skipped, each with a warning, in held-out order.
    Each case's negatives are exactly the items that
    `default_rng(SeedSequence(entropy=(eval_seed, d, user_id, item_id)))
    .choice(eligible, 10, replace=False)` picks from the user's id-sorted
    eligible items: `_choice_ranks` replays that draw for every case at once,
    and each row is sorted. `tests/oracles.eval_cases` is the per-case
    reference the tests pin it to.
    """
    if which not in ("validation", "test"):
        raise ValueError(f"which must be 'validation' or 'test', got {which!r}")
    graph = split_data.full.graph(d)
    held_out = np.asarray(getattr(split_data, which)[d], dtype=np.int64).reshape(-1, 2)
    if not np.isin(held_out[:, 0], graph.user_ids).all():
        raise ValueError(f"domain {d}: held-out rows name users outside the domain")
    u_locs = np.searchsorted(graph.user_ids, held_out[:, 0])
    pops = graph.n_items - graph.user_degree[u_locs]
    keep = pops >= NUM_EVAL_NEGATIVES
    for k in np.flatnonzero(~keep).tolist():
        logger.warning(
            "domain %d: user %d has only %d eligible negatives, case skipped",
            d,
            int(held_out[k, 0]),
            int(pops[k]),
        )
    users, positives, u_locs = held_out[keep, 0], held_out[keep, 1], u_locs[keep]
    ranks = _choice_ranks([eval_seed, d, users, positives], pops[keep])
    # user u's r-th eligible item follows its positives p_0 < p_1 < ... with
    # p_i - i <= r; the keys u * span + p_i - i ascend along the users' CSR
    # rows, so one search counts those positives for every case
    span, indptr = graph.n_items + 1, graph.adj_indptr
    rank_in_row = np.arange(graph.n_edges) - indptr[graph.edge_user]
    keys = graph.edge_user * span + graph.edge_item - rank_in_row
    below = np.searchsorted(keys, u_locs[:, None] * span + ranks, side="right")
    items = graph.item_ids[ranks + below - indptr[u_locs, None]]
    return CaseSet(d, users, positives, np.sort(items, axis=1))


# -- frozen negatives: numpy's draw, replayed on arrays -------------------------

_U64, _M32 = np.uint64, 0xFFFFFFFF


def _choice_ranks(entropy: Sequence, pops: np.ndarray) -> np.ndarray:
    """(n, 10) int64: row k holds the 10 indices, unshuffled, that
    `default_rng(SeedSequence(entropy=row k's values)).choice(pops[k], 10,
    replace=False)` returns, for every 10 <= pops[k] <= 2**32.

    `entropy` is as for `seeding.pcg64_states`, which seeds each row's PCG64
    stream (128-bit LCG, XSL-RR output); the stream is read 32 bits at a time, the low half of each 64-bit output first. `choice` takes
    Floyd's algorithm for 10 draws: step j takes a Lemire bounded draw on
    [0, j] (none when j == 0), a rejected draw is drawn again, and a value
    already taken is replaced by j. The final shuffle is left out.
    """
    pops = np.asarray(pops, dtype=np.int64)
    if len(pops) and (pops.min() < NUM_EVAL_NEGATIVES or pops.max() > 2**32):
        raise ValueError(f"populations must lie in [{NUM_EVAL_NEGATIVES}, 2**32]")
    n = len(pops)
    hi, lo, inc_hi, inc_lo = pcg64_states(entropy, n)
    spare = np.zeros(n, dtype=_U64)
    has_spare = np.zeros(n, dtype=bool)

    def next_uint32(rows):
        buffered = has_spare[rows]
        out = np.where(buffered, spare[rows], _U64(0))
        fresh = rows[~buffered]
        hi[fresh], lo[fresh] = pcg64_step(hi[fresh], lo[fresh], inc_hi[fresh], inc_lo[fresh])
        xored, rot = hi[fresh] ^ lo[fresh], hi[fresh] >> _U64(58)
        word = (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))  # XSL-RR
        out[~buffered] = word & _U64(_M32)
        spare[fresh] = word >> _U64(32)
        has_spare[rows] = ~buffered
        return out

    ranks = np.empty((n, NUM_EVAL_NEGATIVES), dtype=np.int64)
    for t in range(NUM_EVAL_NEGATIVES):
        j = pops - NUM_EVAL_NEGATIVES + t
        bound = j.astype(_U64) + _U64(1)
        threshold = (_U64(2**32) - bound) % bound  # Lemire: 2**32 mod bound
        draw = np.zeros(n, dtype=_U64)
        rows = np.flatnonzero(j > 0)
        while len(rows):
            scaled = next_uint32(rows) * bound[rows]
            accepted = (scaled & _U64(_M32)) >= threshold[rows]
            draw[rows[accepted]] = scaled[accepted] >> _U64(32)
            rows = rows[~accepted]
        draw = draw.astype(np.int64)
        taken = (ranks[:, :t] == draw[:, None]).any(axis=1)
        ranks[:, t] = np.where(taken, j, draw)
    return ranks


def build_all_cases(
    split_data: SplitDataset, which: str = "test", eval_seed: int = 0
) -> list[CaseSet]:
    """Every domain's case set of the `which` split, in domain order."""
    num_domains = split_data.full.num_domains
    return [build_cases(split_data, d, which, eval_seed) for d in range(num_domains)]


def _case_scores(enc: Encoding, cases: CaseSet):
    """Positive scores (n,) and negative scores (n, 10) for one domain's cases.

    Cases are scored SCORE_CHUNK at a time, which bounds the (chunk, 10,
    width) block of negative representations, and a block is freed before
    the next is gathered; each score depends on its own case only, so
    chunking leaves every bit unchanged.
    """
    d = cases.domain
    pos, neg = [], []
    for lo in range(0, len(cases), SCORE_CHUNK):
        rows = slice(lo, lo + SCORE_CHUNK)
        z_user = enc.represent(d, node_keys(NodeKind.USER, cases.users[rows]))
        z_pos = enc.represent(d, node_keys(NodeKind.ITEM, cases.positives[rows]))
        pos.append(np.sum(z_user * z_pos, axis=1))
        neg_keys = node_keys(NodeKind.ITEM, cases.negatives[rows])
        neg.append(np.einsum("nd,nkd->nk", z_user, enc.represent(d, neg_keys)))
    return np.concatenate(pos), np.concatenate(neg)


def auc_from_scores(users: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """Macro AUC: per user, pairwise P(pos > neg) with ties worth one half.

    Row k is one case: user `users[k]`, positive score `pos[k]` and negative
    scores `neg[k]`. The negatives of a user's cases are pooled for that
    user's pairwise count; users are averaged in id order.
    """
    n_cases, width = neg.shape
    _, case_user = np.unique(users, return_inverse=True)  # users in id order
    # key = user offset + 1 + dense score rank, so a user's equal scores share a
    # key; NaN takes offset + 0 and is no negative: it ties and beats nothing
    scores = np.concatenate([pos, neg.ravel()])
    span = len(scores) + 1
    keys = np.concatenate([case_user, np.repeat(case_user, width)]) * span
    keys += np.where(np.isnan(scores), 0, np.unique(scores, return_inverse=True)[1] + 1)
    pos_keys = np.sort(keys[:n_cases])  # sorted queries search faster
    neg_keys = np.sort(keys[n_cases:][~np.isnan(scores[n_cases:])])
    below, upto = np.searchsorted(neg_keys, pos_keys), np.searchsorted(neg_keys, pos_keys, "right")
    pos_user = pos_keys // span
    wins = 0.5 * (below + upto) - np.searchsorted(neg_keys, pos_user * span)  # below + ties / 2
    n_pos = np.bincount(case_user)
    return float(np.mean(np.bincount(pos_user, weights=wins) / (n_pos * (n_pos * width))))


def recall_at_1_from_scores(
    pos: np.ndarray, neg: np.ndarray, pos_ids: np.ndarray, neg_ids: np.ndarray
) -> float:
    """Fraction of cases whose positive strictly tops its 11 candidates.

    Row k is one case: positive score `pos[k]` and id `pos_ids[k]`, negative
    scores `neg[k]` and ids `neg_ids[k]`. Ties break by ascending item id,
    so a tie with a lower-id negative is a miss.
    """
    pos, pos_ids = pos[:, None], pos_ids[:, None]
    beats = (pos > neg) | ((pos == neg) & (pos_ids < neg_ids))
    return int(np.count_nonzero(beats.all(axis=1))) / len(beats)


def _rows(enc: Encoding, case_sets: Sequence[CaseSet]) -> list[tuple[int, float, float, int]]:
    """(domain, AUC, Recall@1, num_cases) per case set; NaN metrics for an empty one."""
    rows = []
    for cases in case_sets:
        if not len(cases):
            rows.append((cases.domain, float("nan"), float("nan"), 0))
            continue
        pos, neg = _case_scores(enc, cases)
        auc = auc_from_scores(cases.users, pos, neg)
        recall = recall_at_1_from_scores(pos, neg, cases.positives, cases.negatives)
        rows.append((cases.domain, auc, recall, len(cases)))
    return rows


def _mean(rows: Sequence[tuple[int, float, float, int]]) -> tuple[float, float, int]:
    """Unweighted mean AUC and Recall@1 over the rows with cases, and their
    total case count; (NaN, NaN, 0) when no row has a case."""
    valid = [(auc, recall, n) for _, auc, recall, n in rows if n > 0]
    if not valid:
        return float("nan"), float("nan"), 0
    aucs, recalls, counts = zip(*valid)
    return float(np.mean(aucs)), float(np.mean(recalls)), sum(counts)


def evaluate_all(
    model: EDModel, split_data: SplitDataset, cases_per_domain: Sequence[CaseSet]
) -> list[tuple[int, float, float, int]]:
    """(domain, AUC, Recall@1, num_cases) per prebuilt case set, one propagation pass."""
    return _rows(model.propagated(split_data.train), cases_per_domain)


def evaluate_cases_mean(
    model: EDModel, split_data: SplitDataset, cases_per_domain: Sequence[CaseSet]
) -> tuple[float, float, list[tuple[int, float, float, int]]]:
    """Unweighted domain-mean AUC/Recall@1 over prebuilt cases, and the
    per-domain rows they average (`evaluate_all`'s)."""
    rows = _rows(model.propagated(split_data.train), cases_per_domain)
    return (*_mean(rows)[:2], rows)


# -- domain analysis ----------------------------------------------------------


def domain_size(dataset: MultiDomainDataset, d: int) -> float:
    """Share of this domain's interactions among all domains'."""
    total = sum(g.n_edges for g in dataset.domains)
    return dataset.graph(d).n_edges / total


def out_of_domain_interaction(dataset: MultiDomainDataset, d: int) -> float:
    """Interactions its users make elsewhere, normalized by the domain's size."""
    graph = dataset.graph(d)
    outside = sum(
        int(other.user_degree[np.isin(other.user_ids, graph.user_ids)].sum())
        for d_other, other in enumerate(dataset.domains)
        if d_other != d
    )
    return outside / graph.n_edges


# -- reports ------------------------------------------------------------------


def format_report(rows: Sequence[tuple[int, float, float, int]]) -> str:
    """Tab-separated per-domain metrics plus an AVG row."""
    lines = ["domain\tAUC\tRecall@1\tnum_cases"]
    for d, a, r, n in rows:
        lines.append(f"{d}\t{a:.6f}\t{r:.6f}\t{n}")
    mean_auc, mean_recall, total = _mean(rows)
    if total:
        lines.append(f"AVG\t{mean_auc:.6f}\t{mean_recall:.6f}\t{total}")
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, rows: Sequence[tuple[int, float, float, int]]) -> None:
    with atomic_write(path) as handle:
        handle.write(format_report(rows))
