"""Dataset splitting and ranking evaluation.

Interactions are split 7:1:2 per user per domain, so every user keeps at
least one training interaction where possible. Each evaluation case pits one
held-out positive against 10 sampled un-interacted items of the same domain;
the negatives are derived from an evaluation seed only, so they are frozen
across models and runs. AUC averages the pairwise ordering probability over
users; Recall@1 is the fraction of cases whose positive ranks strictly first
among its 11 candidates (score ties break toward the smaller item id, so a
tied lower-id negative counts as a miss).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .edmodel import EDModel, Encoding
from .encoders import node_keys
from .mdgraph import MultiDomainDataset, NodeId, NodeKind, ingest

logger = logging.getLogger(__name__)

NUM_EVAL_NEGATIVES = 10


@dataclass
class SplitDataset:
    """Train/validation/test partition of a dataset's interactions."""

    full: MultiDomainDataset
    train: MultiDomainDataset
    validation: list[np.ndarray]  # per domain, (n, 2) raw (user_id, item_id)
    test: list[np.ndarray]
    seed: int


@dataclass(frozen=True)
class EvalCase:
    domain: int
    user: NodeId
    positive: NodeId
    negatives: tuple[NodeId, ...]


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


def split(
    dataset: MultiDomainDataset, ratios: tuple[int, int, int] = (7, 1, 2), seed: int = 0
) -> SplitDataset:
    """Per-user-per-domain stratified random split, deterministic under seed."""
    if any(r < 0 for r in ratios) or ratios[0] <= 0:
        raise ValueError("ratios must be positive with a non-zero train share")
    rng = np.random.default_rng(seed)
    train_records: list[tuple[int, int, int]] = []
    val_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for d, graph in enumerate(dataset.domains):
        val_rows = []
        test_rows = []
        for u_loc in range(graph.n_users):
            lo, hi = graph.adj_indptr[u_loc], graph.adj_indptr[u_loc + 1]
            items = graph.item_ids[graph.adj_indices[lo:hi] - graph.n_users]
            items = items[rng.permutation(len(items))]
            n_train, n_val, _ = _quota(len(items), ratios)
            user_id = int(graph.user_ids[u_loc])
            for item in items[:n_train]:
                train_records.append((d, user_id, int(item)))
            for item in items[n_train : n_train + n_val]:
                val_rows.append((user_id, int(item)))
            for item in items[n_train + n_val :]:
                test_rows.append((user_id, int(item)))
        val_parts.append(np.array(sorted(val_rows), dtype=np.int64).reshape(-1, 2))
        test_parts.append(np.array(sorted(test_rows), dtype=np.int64).reshape(-1, 2))
    return SplitDataset(
        full=dataset,
        train=ingest(train_records),
        validation=val_parts,
        test=test_parts,
        seed=seed,
    )


# -- evaluation cases ---------------------------------------------------------


def build_cases(
    split_data: SplitDataset, d: int, which: str = "test", eval_seed: int = 0
) -> list[EvalCase]:
    """One case per held-out (user, positive); negatives frozen by eval_seed.

    Negatives are sampled without replacement from the domain's items that the
    user never interacted with in any split; users with fewer than 10 eligible
    items are excluded with a warning.
    """
    graph = split_data.full.graph(d)
    held_out = split_data.validation[d] if which == "validation" else split_data.test[d]
    positives = graph.user_positive_sets()
    item_ids = graph.item_ids
    cases: list[EvalCase] = []
    eligible_cache: dict[int, np.ndarray] = {}
    for user_id, item_id in held_out:
        user_id, item_id = int(user_id), int(item_id)
        eligible = eligible_cache.get(user_id)
        if eligible is None:
            interacted = positives.get(user_id, set())
            eligible = np.array([i for i in item_ids if int(i) not in interacted])
            eligible_cache[user_id] = eligible
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
        sampled = rng.choice(eligible, size=NUM_EVAL_NEGATIVES, replace=False)
        cases.append(
            EvalCase(
                d,
                NodeId(NodeKind.USER, user_id),
                NodeId(NodeKind.ITEM, item_id),
                tuple(NodeId(NodeKind.ITEM, int(i)) for i in sorted(sampled)),
            )
        )
    return cases


def build_all_cases(
    split_data: SplitDataset, which: str = "test", eval_seed: int = 0
) -> list[list[EvalCase]]:
    return [
        build_cases(split_data, d, which, eval_seed)
        for d in range(split_data.full.num_domains)
    ]


def _case_scores(enc: Encoding, cases: Sequence[EvalCase]):
    """Positive scores (n,) and negative scores (n, 10) for one domain's cases."""
    d = cases[0].domain
    z_user = enc.represent(d, node_keys([c.user for c in cases]))
    z_pos = enc.represent(d, node_keys([c.positive for c in cases]))
    negatives = node_keys([n for c in cases for n in c.negatives])
    z_neg = enc.represent(d, negatives.reshape(len(cases), -1))
    pos = np.sum(z_user * z_pos, axis=1)
    neg = np.einsum("nd,nkd->nk", z_user, z_neg)
    return pos, neg


def auc_from_scored_cases(scored: Sequence[tuple[int, float, np.ndarray]]) -> float:
    """Macro AUC: per user, pairwise P(pos > neg) with ties worth one half.

    `scored` holds (user_id, positive_score, negative_scores) per case; the
    negatives of a user's cases are pooled for that user's pairwise count.
    """
    by_user: dict[int, tuple[list[float], list[float]]] = {}
    for user_id, pos, negs in scored:
        entry = by_user.setdefault(user_id, ([], []))
        entry[0].append(pos)
        entry[1].extend(negs)
    per_user = []
    for user_id in sorted(by_user):
        pos_scores, neg_scores = by_user[user_id]
        p = np.asarray(pos_scores)[:, None]
        n = np.asarray(neg_scores)[None, :]
        wins = np.sum(p > n) + 0.5 * np.sum(p == n)
        per_user.append(wins / (p.size * n.size))
    return float(np.mean(per_user))


def recall_at_1_from_scored_cases(
    scored: Sequence[tuple[float, int, np.ndarray, np.ndarray]],
) -> float:
    """Fraction of cases whose positive strictly tops its 11 candidates.

    `scored` holds (positive_score, positive_id, negative_scores, negative_ids)
    per case. Ties break by ascending item id, so a tie with a lower-id
    negative is a miss.
    """
    hits = 0
    for pos_score, pos_id, neg_scores, neg_ids in scored:
        beats = (pos_score > neg_scores) | (
            (pos_score == neg_scores) & (pos_id < neg_ids)
        )
        hits += bool(np.all(beats))
    return hits / len(scored)


def _scored_for_auc(cases, pos, neg):
    return [(c.user.id, float(pos[k]), neg[k]) for k, c in enumerate(cases)]


def _scored_for_recall(cases, pos, neg):
    return [
        (
            float(pos[k]),
            c.positive.id,
            neg[k],
            np.array([n.id for n in c.negatives]),
        )
        for k, c in enumerate(cases)
    ]


def _domain_metrics(enc: Encoding, cases: Sequence[EvalCase]):
    pos, neg = _case_scores(enc, cases)
    return (
        auc_from_scored_cases(_scored_for_auc(cases, pos, neg)),
        recall_at_1_from_scored_cases(_scored_for_recall(cases, pos, neg)),
    )


def _metrics_for(split_data: SplitDataset, model: EDModel, d: int, which: str, eval_seed: int):
    cases = build_cases(split_data, d, which, eval_seed)
    if not cases:
        raise ValueError(f"domain {d} has no evaluable {which} cases")
    return _domain_metrics(model.propagated(split_data.train), cases)


def auc(
    model: EDModel,
    dataset: MultiDomainDataset,
    split_data: SplitDataset,
    d: int,
    which: str = "test",
    eval_seed: int = 0,
) -> float:
    """Macro AUC for domain d, scored on train-graph propagation.

    `dataset` is the full dataset, the same as `split_data.full`.
    """
    return _metrics_for(split_data, model, d, which, eval_seed)[0]


def recall_at_1(
    model: EDModel,
    dataset: MultiDomainDataset,
    split_data: SplitDataset,
    d: int,
    which: str = "test",
    eval_seed: int = 0,
) -> float:
    return _metrics_for(split_data, model, d, which, eval_seed)[1]


def evaluate_all(
    model: EDModel,
    split_data: SplitDataset,
    which: str = "test",
    eval_seed: int = 0,
) -> list[tuple[int, float, float, int]]:
    """(domain, AUC, Recall@1, num_cases) per domain, one propagation pass."""
    enc = model.propagated(split_data.train)
    out = []
    for d in range(split_data.full.num_domains):
        cases = build_cases(split_data, d, which, eval_seed)
        if not cases:
            out.append((d, float("nan"), float("nan"), 0))
            continue
        domain_auc, domain_recall = _domain_metrics(enc, cases)
        out.append((d, domain_auc, domain_recall, len(cases)))
    return out


def evaluate_cases_mean(
    model: EDModel, split_data: SplitDataset, cases_per_domain: Sequence[Sequence[EvalCase]]
) -> tuple[float, float, int]:
    """Unweighted domain-mean AUC/Recall@1 over prebuilt cases."""
    enc = model.propagated(split_data.train)
    aucs = []
    recalls = []
    total = 0
    for cases in cases_per_domain:
        if not cases:
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
    Path(path).write_text(format_report(rows), encoding="utf-8")
