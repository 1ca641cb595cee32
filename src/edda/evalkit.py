"""Dataset splitting and ranking evaluation.

Interactions are split 7:1:2 per user per domain, so every user keeps at
least one training interaction where possible. Each evaluation case pits one
held-out positive against 10 sampled un-interacted items of the same domain;
the negatives are derived from an evaluation seed only, so they are frozen
across models and runs. AUC averages the pairwise ordering probability over
users; Recall@1 is the fraction of cases whose positive ranks strictly first
among its 11 candidates (score ties break toward the smaller item id, so a
tied lower-id negative counts as a miss).

Splits and cases are integer arrays. A domain's cases form one `CaseSet`
(users, positives and row-sorted negatives, as raw ids), and
`build_all_cases` builds each split's case sets once per (which, eval_seed):
per-epoch validation and the validation report of a training run share one
build. Scoring reads the case sets through the model's `Encoding` with
integer node keys, `SCORE_CHUNK` cases at a time, and computes AUC per user
block and Recall@1 in one comparison.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .edmodel import EDModel, Encoding
from .mdgraph import DomainGraph, MultiDomainDataset, NodeKind, atomic_write
from .mdgraph import ingest  # noqa: F401  (perfbench/tests expect evalkit.ingest to be traced)

logger = logging.getLogger(__name__)

NUM_EVAL_NEGATIVES = 10
SCORE_CHUNK = 1024  # cases per scoring block


@dataclass
class SplitDataset:
    """Train/validation/test partition of a dataset's interactions.

    The held-out arrays are read-only; `build_all_cases` memoises case sets
    per held-out array object in `cases`.
    """

    full: MultiDomainDataset
    train: MultiDomainDataset
    validation: list[np.ndarray]  # per domain, (n, 2) raw (user_id, item_id)
    test: list[np.ndarray]
    seed: int
    cases: dict[tuple[str, int], tuple[list[np.ndarray], list[CaseSet]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


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
        seed=seed,
    )


# -- evaluation cases ---------------------------------------------------------


def build_cases(
    split_data: SplitDataset, d: int, which: str = "test", eval_seed: int = 0
) -> CaseSet:
    """One case per held-out (user, positive); negatives frozen by eval_seed.

    Negatives are sampled without replacement from the domain's items that the
    user never interacted with in any split; cases of users with fewer than
    10 eligible items are skipped, each with a warning.
    """
    graph = split_data.full.graph(d)
    held_out = split_data.validation[d] if which == "validation" else split_data.test[d]
    held_out = np.asarray(held_out, dtype=np.int64).reshape(-1, 2)
    if not np.isin(held_out[:, 0], graph.user_ids).all():
        raise ValueError(f"domain {d}: held-out rows name users outside the domain")
    u_locs = np.searchsorted(graph.user_ids, held_out[:, 0])
    indptr, indices = graph.adj_indptr, graph.adj_indices - graph.n_users
    keep = np.zeros(len(held_out), dtype=bool)
    negatives = np.zeros((len(held_out), NUM_EVAL_NEGATIVES), dtype=np.int64)
    eligible_cache: dict[int, np.ndarray] = {}
    for k, (u_loc, (user_id, item_id)) in enumerate(zip(u_locs.tolist(), held_out.tolist())):
        eligible = eligible_cache.get(u_loc)
        if eligible is None:
            eligible = np.delete(graph.item_ids, indices[indptr[u_loc] : indptr[u_loc + 1]])
            eligible_cache[u_loc] = eligible
        if len(eligible) < NUM_EVAL_NEGATIVES:
            logger.warning(
                "domain %d: user %d has only %d eligible negatives, case skipped",
                d,
                user_id,
                len(eligible),
            )
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(eval_seed, d, user_id, item_id))
        )
        negatives[k] = rng.choice(eligible, size=NUM_EVAL_NEGATIVES, replace=False)
        keep[k] = True
    negatives = np.sort(negatives[keep], axis=1)
    return CaseSet(d, held_out[keep, 0], held_out[keep, 1], negatives)


def build_all_cases(
    split_data: SplitDataset, which: str = "test", eval_seed: int = 0
) -> list[CaseSet]:
    """Every domain's case set, built once per (held-out arrays, eval_seed)."""
    held_out = split_data.validation if which == "validation" else split_data.test
    key = (which, eval_seed)
    cached = split_data.cases.get(key)
    if cached is None or any(a is not b for a, b in zip(cached[0], held_out)):
        cases = [
            build_cases(split_data, d, which, eval_seed)
            for d in range(split_data.full.num_domains)
        ]
        cached = split_data.cases[key] = (list(held_out), cases)
    return cached[1]


def _case_scores(enc: Encoding, cases: CaseSet):
    """Positive scores (n,) and negative scores (n, 10) for one domain's cases.

    Cases are scored SCORE_CHUNK at a time, which bounds the (chunk, 10,
    rep_dim) block of negative representations; each score depends on its
    own case only, so chunking leaves every bit unchanged.
    """
    d = cases.domain
    pos, neg = [], []
    for lo in range(0, len(cases), SCORE_CHUNK):
        rows = slice(lo, lo + SCORE_CHUNK)
        z_user = enc.represent(d, cases.users[rows] * 2 + NodeKind.USER)
        z_pos = enc.represent(d, cases.positives[rows] * 2 + NodeKind.ITEM)
        z_neg = enc.represent(d, cases.negatives[rows] * 2 + NodeKind.ITEM)
        pos.append(np.sum(z_user * z_pos, axis=1))
        neg.append(np.einsum("nd,nkd->nk", z_user, z_neg))
    return np.concatenate(pos), np.concatenate(neg)


def auc_from_scores(users: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """Macro AUC: per user, pairwise P(pos > neg) with ties worth one half.

    Row k is one case: user `users[k]`, positive score `pos[k]` and negative
    scores `neg[k]`. The negatives of a user's cases are pooled for that
    user's pairwise count; users are averaged in id order.
    """
    order = np.argsort(users, kind="stable")
    users, pos, neg = users[order], pos[order], neg[order]
    bounds = np.flatnonzero(np.diff(users)) + 1
    per_user = []
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(users)]):
        p = pos[lo:hi, None]
        n = neg[lo:hi].reshape(1, -1)
        wins = np.sum(p > n) + 0.5 * np.sum(p == n)
        per_user.append(wins / (p.size * n.size))
    return float(np.mean(per_user))


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


def _domain_metrics(enc: Encoding, cases: CaseSet):
    pos, neg = _case_scores(enc, cases)
    return (
        auc_from_scores(cases.users, pos, neg),
        recall_at_1_from_scores(pos, neg, cases.positives, cases.negatives),
    )


def evaluate_all(
    model: EDModel,
    split_data: SplitDataset,
    which: str = "test",
    eval_seed: int = 0,
) -> list[tuple[int, float, float, int]]:
    """(domain, AUC, Recall@1, num_cases) per domain, one propagation pass."""
    enc = model.propagated(split_data.train)
    out = []
    for d, cases in enumerate(build_all_cases(split_data, which, eval_seed)):
        if not len(cases):
            out.append((d, float("nan"), float("nan"), 0))
            continue
        domain_auc, domain_recall = _domain_metrics(enc, cases)
        out.append((d, domain_auc, domain_recall, len(cases)))
    return out


def evaluate_cases_mean(
    model: EDModel, split_data: SplitDataset, cases_per_domain: Sequence[CaseSet]
) -> tuple[float, float, int]:
    """Unweighted domain-mean AUC/Recall@1 over prebuilt cases."""
    enc = model.propagated(split_data.train)
    aucs = []
    recalls = []
    total = 0
    for cases in cases_per_domain:
        if not len(cases):
            continue
        a, r = _domain_metrics(enc, cases)
        aucs.append(a)
        recalls.append(r)
        total += len(cases)
    if not aucs:
        return float("nan"), float("nan"), 0
    return float(np.mean(aucs)), float(np.mean(recalls)), total


# -- domain analysis ----------------------------------------------------------


def domain_size(dataset: MultiDomainDataset, d: int) -> float:
    """Share of this domain's interactions among all domains'."""
    total = sum(g.n_edges for g in dataset.domains)
    return dataset.graph(d).n_edges / total


def out_of_domain_interaction(dataset: MultiDomainDataset, d: int) -> float:
    """Interactions its users make elsewhere, normalized by the domain's size."""
    graph = dataset.graph(d)
    users = set(int(u) for u in graph.user_ids)
    outside = 0
    for d_other, other in enumerate(dataset.domains):
        if d_other == d:
            continue
        for u_loc, user_id in enumerate(other.user_ids):
            if int(user_id) in users:
                outside += int(other.user_degree[u_loc])
    return outside / graph.n_edges


# -- reports ------------------------------------------------------------------


def format_report(rows: Sequence[tuple[int, float, float, int]]) -> str:
    """Tab-separated per-domain metrics plus an AVG row."""
    lines = ["domain\tAUC\tRecall@1\tnum_cases"]
    for d, a, r, n in rows:
        lines.append(f"{d}\t{a:.6f}\t{r:.6f}\t{n}")
    valid = [(a, r, n) for _, a, r, n in rows if n > 0]
    if valid:
        mean_auc = float(np.mean([a for a, _, _ in valid]))
        mean_recall = float(np.mean([r for _, r, _ in valid]))
        total = sum(n for _, _, n in valid)
        lines.append(f"AVG\t{mean_auc:.6f}\t{mean_recall:.6f}\t{total}")
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, rows: Sequence[tuple[int, float, float, int]]) -> None:
    with atomic_write(path) as handle:
        handle.write(format_report(rows))
