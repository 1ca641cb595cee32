"""Pairwise-ranking training with an alignment regularizer.

The objective is

    L = L_rank + beta * L_align + lambda * ||params||^2

where L_rank sums -ln sigmoid(s(u,i+) - s(u,i-)) over sampled triplets of all
domains, and L_align sums squared distances between projected per-domain
embeddings of mined cross-domain pairs. Every batch encodes the tables once
through `EDModel.propagated` (with that batch's edge-dropout masks); this
module only scores triplets on the encoding, computes the alignment and
regularization terms, and hands the representation-level gradients to
`Encoding.transpose`, which is the exact backward pass through the linear,
symmetric propagation. Per-domain embedding tables receive gradients only
from their own domain's triplets (and from alignment pairs touching them);
the shared table receives gradients from every domain.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .edmodel import EDModel, Encoding
from .encoders import node_keys
from .mdgraph import DomainGraph, MultiDomainDataset
from .walker import SimilarPairSet

logger = logging.getLogger(__name__)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# alignment pairs are subsampled to one batch size once they outnumber it this many times
ALIGN_SUBSAMPLE_FACTOR = 10


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.03
    reg_lambda: float = 1e-4
    learning_rate: float = 0.001
    batch_size: int = 8092  # kept verbatim from the reported setup
    edge_dropout: float = 0.3
    epochs: int = 100
    seed: int = 0
    patience: int | None = None  # early stop on validation AUC when set

    def __post_init__(self):
        if self.beta < 0 or self.reg_lambda < 0:
            raise ValueError("beta and reg_lambda must be non-negative")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid learning_rate/batch_size/epochs")
        if not 0.0 <= self.edge_dropout < 1.0:
            raise ValueError("edge_dropout must lie in [0, 1)")


class TrainingDiverged(RuntimeError):
    """Non-finite loss; carries the diagnostic state at the failing step."""

    def __init__(self, message: str, state: dict):
        super().__init__(f"{message}: {state}")
        self.state = state


@dataclass
class EpochLog:
    epoch: int
    bpr: float
    align: float
    total: float
    val_auc: float
    val_recall: float
    wall_ms: float


# -- elementary pieces -------------------------------------------------------


def bpr_loss(scores_pos: np.ndarray, scores_neg: np.ndarray) -> float:
    """Sum of -ln sigmoid(s+ - s-), via the stable softplus form."""
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    if scores_pos.shape != scores_neg.shape:
        raise ValueError("score vectors must have equal length")
    return float(np.sum(np.logaddexp(0.0, -(scores_pos - scores_neg))))


def edge_dropout(graph: DomainGraph, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean retention mask over the graph's canonical edge order."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("dropout ratio must lie in [0, 1)")
    return rng.random(graph.n_edges) >= ratio


class _NegativeSampler:
    """Rejection sampler of un-interacted items for the users of one domain graph.

    A user who interacted with every item of the domain cannot draw a
    negative and is skipped, with one warning per user.
    """

    def __init__(self, graph: DomainGraph):
        self.graph = graph
        indptr, indices = graph.adj_indptr, graph.adj_indices - graph.n_users
        self.positives = [
            set(indices[indptr[u] : indptr[u + 1]].tolist()) for u in range(graph.n_users)
        ]
        self.eligible = graph.user_degree < graph.n_items
        self.warned: set[int] = set()

    def triplets(self, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Graph-local (user, positive, negative) index rows, shape (3, n):
        one per edge in `edges`, in that order, whose user can draw a negative."""
        graph = self.graph
        kept = []
        negs = []
        for e, u_loc in zip(edges.tolist(), graph.edge_user[edges].tolist()):
            if not self.eligible[u_loc]:
                if u_loc not in self.warned:
                    self.warned.add(u_loc)
                    logger.warning(
                        "domain %d: user %d interacts with every item, skipping",
                        graph.domain,
                        int(graph.user_ids[u_loc]),
                    )
                continue
            n_loc = int(rng.integers(graph.n_items))
            while n_loc in self.positives[u_loc]:
                n_loc = int(rng.integers(graph.n_items))
            kept.append(e)
            negs.append(n_loc)
        kept = np.asarray(kept, dtype=np.int64)
        return np.stack(
            [
                graph.edge_user[kept],
                graph.edge_item[kept] + graph.n_users,
                np.asarray(negs, dtype=np.int64) + graph.n_users,
            ]
        )


# -- loss and exact gradients -------------------------------------------------


def _prepare_pairs(model: EDModel, pair_sets: Iterable[SimilarPairSet]):
    """Model-table row indices for every alignment pair, per ordered domain pair."""
    prepared = []
    for pair_set in pair_sets:
        if not pair_set.pairs:
            continue
        if model.intra is None:
            raise ValueError("alignment pairs require per-domain embedding tables")
        d, d_prime = pair_set.domain_pair
        try:
            idx_u = model.intra[d].rows(node_keys([p.source for p in pair_set.pairs]))
            idx_v = model.intra[d_prime].rows(node_keys([p.target for p in pair_set.pairs]))
        except KeyError as err:
            raise KeyError(f"alignment pair node missing from domain table: {err}") from None
        prepared.append((d, d_prime, idx_u, idx_v))
    return prepared


def _bpr_part(enc: Encoding, grouped: dict[int, np.ndarray], want_grads: bool):
    """Ranking loss and, when wanted, its gradients w.r.t. `enc.inter` and
    each `enc.intra(d)` (None and {} otherwise).

    Each table's rows are gathered once per domain as a [user; positive;
    negative] block; the blocks are freed when this returns.
    """
    l_bpr = 0.0
    d_g_rows: list[np.ndarray] = []
    d_g_values: list[np.ndarray] = []
    d_q: dict[int, np.ndarray] = {}
    for d, triplet_locs in grouped.items():
        x = np.zeros(triplet_locs.shape[1], dtype=enc.dtype)
        if enc.inter is not None:
            g_rows = enc.inter_rows[d][triplet_locs.reshape(-1)]
            g_block = enc.inter[g_rows]
            gu, gp, gn = np.split(g_block, 3)
            x += np.sum(gu * (gp - gn), axis=1)
        if enc.model.intra is not None:
            q = enc.intra(d)
            q_rows = enc.intra_rows[d][triplet_locs.reshape(-1)]
            q_block = q[q_rows]
            qu, qp, qn = np.split(q_block, 3)
            x += np.sum(qu * (qp - qn), axis=1)
        l_bpr += float(np.sum(np.logaddexp(0.0, -x)))
        if not want_grads:
            continue
        dl_dx = -expit(-x)[:, None]  # negative
        if enc.inter is not None:
            d_g_rows.append(g_rows)
            d_g_values.append(_bpr_row_gradients(dl_dx, g_block))
        if enc.model.intra is not None:
            d_q[d] = _scatter_add(len(q), [q_rows], [_bpr_row_gradients(dl_dx, q_block)])
    d_g = _scatter_add(len(enc.inter), d_g_rows, d_g_values) if d_g_rows else None
    return l_bpr, d_g, d_q


def _compute(
    enc: Encoding,
    grouped: dict[int, np.ndarray],
    prepared_pairs,
    cfg: TrainConfig,
    align_scale: float,
    want_grads: bool,
):
    """Loss parts and (optionally) exact gradients for one batch."""
    model = enc.model
    l_bpr, d_g, d_q = _bpr_part(enc, grouped, want_grads)

    # alignment loss on raw per-domain embeddings and projections
    l_align = 0.0
    grads: dict[str, np.ndarray] = {}
    if want_grads:
        for name, arr in model.parameters():
            grads[name] = np.zeros_like(arr)
    align_rows: dict[int, list[np.ndarray]] = {}
    align_values: dict[int, list[np.ndarray]] = {}
    for d, d_prime, idx_u, idx_v in prepared_pairs:
        e_u = model.intra[d].matrix[idx_u]
        e_v = model.intra[d_prime].matrix[idx_v]
        w_d, w_p = model.proj[d], model.proj[d_prime]
        diff = e_u @ w_d - e_v @ w_p
        l_align += float(np.sum(diff * diff))
        if want_grads:
            coeff = 2.0 * cfg.beta * align_scale
            align_rows.setdefault(d, []).append(idx_u)
            align_values.setdefault(d, []).append(coeff * diff @ w_d.T)
            align_rows.setdefault(d_prime, []).append(idx_v)
            align_values.setdefault(d_prime, []).append(-coeff * diff @ w_p.T)
            grads[f"proj[{d}]"] += coeff * e_u.T @ diff
            grads[f"proj[{d_prime}]"] += -coeff * e_v.T @ diff
    for d, rows in align_rows.items():
        grads[f"intra[{d}]"] = _scatter_add(len(model.intra[d]), rows, align_values[d])

    reg = model.squared_norm()
    total = l_bpr + cfg.beta * align_scale * l_align + cfg.reg_lambda * reg
    if not want_grads:
        return total, l_bpr, l_align, reg, None

    enc.transpose(d_g, d_q, grads)
    for name, arr in model.parameters():
        grads[name] += (2.0 * cfg.reg_lambda) * arr
    return total, l_bpr, l_align, reg, grads


def _bpr_row_gradients(dl_dx: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Overwrite a gathered [e_u; e_p; e_n] block with the BPR loss gradient
    w.r.t. each of its rows: dl_dx * (e_p - e_n), dl_dx * e_u, -dl_dx * e_u.

    In place, so a batch holds no second copy of its gathered rows.
    """
    e_u, e_p, e_n = np.split(block, 3)
    diff = e_p - e_n
    np.multiply(-dl_dx, e_u, out=e_n)
    np.multiply(dl_dx, e_u, out=e_p)
    np.multiply(dl_dx, diff, out=e_u)
    return block


def _scatter_add(n_rows: int, rows: list[np.ndarray], values: list[np.ndarray]) -> np.ndarray:
    """(n_rows, dim) sums of the `values` rows at their `rows` indices.

    One CSR product: each output row adds its contributions in list order,
    then in array order, which makes the result bit-equal to `np.add.at`
    calls into zeros in that order.
    """
    if len(rows) > 1:
        rows, values = np.concatenate(rows), np.concatenate(values)
    else:
        rows, values = rows[0], values[0]
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    scatter = sp.csr_matrix(
        (np.ones(len(rows), dtype=values.dtype), order, indptr), shape=(n_rows, len(rows))
    )
    return scatter @ values


def total_loss(
    model: EDModel,
    dataset: MultiDomainDataset,
    triplets: dict[int, np.ndarray],
    pair_sets: Sequence[SimilarPairSet],
    cfg: TrainConfig,
    masks: dict[int, np.ndarray] | None = None,
    align_scale: float = 1.0,
) -> float:
    """L_rank + beta * L_align + lambda * ||params||^2 for the given batch.

    `triplets` maps a domain to its (3, n) graph-local (user, positive,
    negative) index rows, as `_NegativeSampler.triplets` builds them.
    """
    enc = model.propagated(dataset, masks)
    return _compute(enc, triplets, _prepare_pairs(model, pair_sets), cfg, align_scale, False)[0]


def gradients(
    model: EDModel,
    dataset: MultiDomainDataset,
    triplets: dict[int, np.ndarray],
    pair_sets: Sequence[SimilarPairSet],
    cfg: TrainConfig,
    masks: dict[int, np.ndarray] | None = None,
    align_scale: float = 1.0,
) -> dict[str, np.ndarray]:
    """Exact gradient of `total_loss` for every parameter array, by name."""
    enc = model.propagated(dataset, masks)
    return _compute(enc, triplets, _prepare_pairs(model, pair_sets), cfg, align_scale, True)[4]


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_model(cls, model: EDModel) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in model.parameters()},
            v={name: np.zeros_like(arr) for name, arr in model.parameters()},
        )


def adam_step(
    model: EDModel, grads: dict[str, np.ndarray], state: AdamState, cfg: TrainConfig
) -> tuple[EDModel, AdamState]:
    """Standard bias-corrected Adam update, applied in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    for name, param in model.parameters():
        g = grads[name]
        if g.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        param -= cfg.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    return model, state


# -- training loop ------------------------------------------------------------


def _epoch_batches(graph: DomainGraph, batch_size: int, rng: np.random.Generator):
    """Each observed interaction appears as a positive exactly once per epoch."""
    order = rng.permutation(graph.n_edges)
    return [order[k : k + batch_size] for k in range(0, len(order), batch_size)]


def train(
    model: EDModel,
    split,
    pair_sets: Sequence[SimilarPairSet],
    cfg: TrainConfig,
    callbacks: Sequence[Callable[[EpochLog, EDModel], None]] = (),
    eval_seed: int = 0,
) -> tuple[EDModel, list[EpochLog]]:
    """Optimize the model on a split dataset; returns the model and epoch logs.

    One epoch uses every training interaction as a positive once, in
    per-domain batches interleaved round-robin. Fresh edge-dropout masks are
    drawn for every domain on every batch. When `cfg.patience` is set, stops
    after that many epochs without a validation-AUC improvement and restores
    the best parameters seen.
    """
    from . import evalkit  # local import; evalkit has no trainer dependency

    rng = np.random.default_rng(cfg.seed)
    train_ds = split.train
    prepared_pairs = _prepare_pairs(model, pair_sets)
    n_pairs = sum(len(idx_u) for _, _, idx_u, _ in prepared_pairs)
    state = AdamState.for_model(model)

    samplers = [_NegativeSampler(graph) for graph in train_ds.domains]
    val_cases = evalkit.build_all_cases(split, which="validation", eval_seed=eval_seed)
    has_val = any(cases for cases in val_cases)
    logs: list[EpochLog] = []
    best_auc = -np.inf
    best_model: EDModel | None = None
    since_best = 0

    for epoch in range(1, cfg.epochs + 1):
        t_start = time.perf_counter()
        schedules = [
            _epoch_batches(graph, cfg.batch_size, rng) for graph in train_ds.domains
        ]
        epoch_bpr = epoch_align = epoch_total = 0.0
        for round_idx in range(max(len(s) for s in schedules)):
            for d, batches in enumerate(schedules):
                if round_idx >= len(batches):
                    continue
                triplets = samplers[d].triplets(batches[round_idx], rng)
                if triplets.shape[1] == 0:
                    continue
                if cfg.edge_dropout > 0.0:
                    masks = {
                        dd: edge_dropout(g, cfg.edge_dropout, rng)
                        for dd, g in enumerate(train_ds.domains)
                    }
                else:
                    masks = None
                batch_pairs = prepared_pairs
                align_scale = 1.0
                if n_pairs > ALIGN_SUBSAMPLE_FACTOR * cfg.batch_size:
                    batch_pairs, align_scale = _subsample_pairs(
                        prepared_pairs, n_pairs, cfg.batch_size, rng
                    )
                total, l_bpr, l_align, _, grads = _compute(
                    model.propagated(train_ds, masks), {d: triplets}, batch_pairs, cfg,
                    align_scale, True,
                )
                if not np.isfinite(total):
                    raise TrainingDiverged(
                        "non-finite loss",
                        {
                            "epoch": epoch,
                            "domain": d,
                            "batch": round_idx,
                            "bpr": l_bpr,
                            "align": l_align,
                            "total": total,
                        },
                    )
                adam_step(model, grads, state, cfg)
                epoch_bpr += l_bpr
                epoch_align += l_align
                epoch_total += total

        val_auc = val_recall = float("nan")
        if has_val:
            val_auc, val_recall, _ = evalkit.evaluate_cases_mean(model, split, val_cases)
        wall_ms = (time.perf_counter() - t_start) * 1000.0
        log = EpochLog(epoch, epoch_bpr, epoch_align, epoch_total, val_auc, val_recall, wall_ms)
        logs.append(log)
        for cb in callbacks:
            cb(log, model)
        if cfg.patience is not None and has_val:
            if val_auc > best_auc:
                best_auc = val_auc
                best_model = model.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

    if best_model is not None:
        for (_, dst), (_, src) in zip(model.parameters(), best_model.parameters()):
            np.copyto(dst, src)
    return model, logs


def _subsample_pairs(prepared_pairs, n_pairs: int, sample_size: int, rng):
    """Uniform subsample of alignment pairs, rescaled to an unbiased estimate."""
    chosen = np.sort(rng.choice(n_pairs, size=sample_size, replace=False))
    out = []
    offset = 0
    for d, d_prime, idx_u, idx_v in prepared_pairs:
        local = chosen[(chosen >= offset) & (chosen < offset + len(idx_u))] - offset
        if len(local):
            out.append((d, d_prime, idx_u[local], idx_v[local]))
        offset += len(idx_u)
    return out, n_pairs / sample_size
