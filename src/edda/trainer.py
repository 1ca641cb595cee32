"""Pairwise-ranking training with an alignment regularizer.

A training step takes one domain's batch and minimizes

    L = L_rank + beta * L_align + lambda * ||params||^2

where L_rank sums -ln sigmoid(s(u,i+) - s(u,i-)) over the batch's sampled
triplets, and L_align sums squared distances between projected per-domain
embeddings of mined cross-domain pairs. Every batch encodes the tables once
through `EDModel.propagated` (with that batch's edge-dropout masks);
`loss_and_gradients` then scores triplets on the encoding, computes the
alignment and regularization terms, and hands the representation-level
gradients to `Encoding.transpose`, the exact backward pass through the
linear, symmetric propagation. Per-domain embedding tables receive gradients
only from their own domain's triplets (and from alignment pairs touching
them); the shared table receives gradients from every domain.

A step frees every array after its last reader, and none grows with the
batch but per-triplet scalars and indices. `_objective` makes a gradient
when a term first writes it. The alignment part frees its one value buffer
per end domain before the ranking part (`_bpr_part`) runs, which scores and
sums the batch through two chunk buffers and makes one table-sized gradient
per table. The encoded rows are freed once scored, those gradients once
transposed. `adam_step` updates blocks of ADAM_BLOCK elements through one
scratch. `edda train` holds the heap (`cli._hold_heap`), so the next step
reuses the memory a step frees. Float64 BPR weights take libm's `exp`
through `math` (`_bpr_weight`), so a float64 run never imports scipy.special.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import evalkit
from .edmodel import EDModel, Encoding, zeroed_grad
from .mdgraph import DomainGraph, MultiDomainDataset, node_keys, sorted_unique
from .walker import SimilarPairSet

logger = logging.getLogger(__name__)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# alignment pairs are subsampled to one batch size once they outnumber it this many times
ALIGN_SUBSAMPLE_FACTOR = 10
BPR_CHUNK = 512  # triplets scored together; bounds the two chunk buffers
ADAM_BLOCK = 32768  # elements `adam_step` updates together; bounds its scratch


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
        if not (0 <= self.beta < np.inf and 0 <= self.reg_lambda < np.inf):
            raise ValueError("beta and reg_lambda must be non-negative and finite")
        if not 0 < self.learning_rate < np.inf or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid learning_rate/batch_size/epochs")
        if not 0.0 <= self.edge_dropout < 1.0:
            raise ValueError("edge_dropout must lie in [0, 1)")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be None or non-negative, got {self.patience}")


class TrainingDiverged(RuntimeError):
    """Non-finite loss at a training step."""


@dataclass
class EpochLog:
    epoch: int
    bpr: float
    align: float
    total: float
    val_auc: float
    val_recall: float


# -- elementary pieces -------------------------------------------------------


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
        self.positives = set((graph.edge_user * graph.n_items + graph.edge_item).tolist())
        self.eligible = graph.user_degree < graph.n_items
        self.warned: set[int] = set()

    def triplets(self, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Graph-local (user, positive, negative) index rows, shape (3, n):
        one per edge in `edges`, in that order, whose user can draw a negative.
        Candidates come in blocks of one per row still open, each taken by the
        first open row, so they equal one scalar `rng.integers` call per draw."""
        graph = self.graph
        users = graph.edge_user[edges]
        eligible = self.eligible[users]
        for u_loc in dict.fromkeys(users[~eligible].tolist()):
            if u_loc not in self.warned:
                self.warned.add(u_loc)
                logger.warning(
                    "domain %d: user %d interacts with every item, skipping",
                    graph.domain,
                    int(graph.user_ids[u_loc]),
                )
        edges, users = edges[eligible], users[eligible]
        negs, open_keys = [], (users * graph.n_items).tolist()
        while len(negs) < len(open_keys):
            for n_loc in rng.integers(graph.n_items, size=len(open_keys) - len(negs)).tolist():
                if open_keys[len(negs)] + n_loc not in self.positives:
                    negs.append(n_loc)
        n_u = graph.n_users
        return np.stack([users, graph.edge_item[edges] + n_u, np.array(negs, dtype=np.int64) + n_u])


# -- loss and exact gradients -------------------------------------------------


def _prepare_pairs(model: EDModel, pair_sets: Iterable[SimilarPairSet]):
    """Model-table row indices for every alignment pair, per ordered domain pair."""
    prepared = []
    for pair_set in pair_sets:
        if not len(pair_set):
            continue
        if model.intra is None:
            raise ValueError("alignment pairs require per-domain embedding tables")
        d, d_prime = pair_set.domain_pair
        if d == d_prime:
            raise ValueError(f"pair domains must differ, got {d} twice")
        if min(d, d_prime) < 0 or max(d, d_prime) >= model.num_domains:
            raise ValueError(f"pair domains {(d, d_prime)} outside [0, {model.num_domains})")
        try:
            idx_u = model.intra[d].rows(node_keys(pair_set.kinds, pair_set.sources))
            idx_v = model.intra[d_prime].rows(node_keys(pair_set.kinds, pair_set.targets))
        except KeyError as err:
            raise KeyError(f"alignment pair node missing from domain table: {err}") from None
        prepared.append((d, d_prime, idx_u, idx_v))
    return prepared


def _bpr_part(enc: Encoding, d: int, triplet_locs: np.ndarray):
    """Domain d's ranking loss over its (3, n) graph-local `triplet_locs`,
    and its gradients w.r.t. `enc.inter` and `enc.intra(d)`: (loss, d_inter,
    d_intra), None for a table the model lacks.

    Memory: two chunk buffers of BPR_CHUNK + 1 rows, as wide as the wider
    table and taken by the tables in turn, and one table-sized gradient per
    table; beyond those, only per-triplet scalars and indices. Scoring keeps
    no row: `_bpr_gradient` forms each chunk's e_p - e_n again by the same
    operations, so with the same bits. The weights dl/dx are `_bpr_weight`'s.
    """
    tables = {}
    if enc.model.inter is not None:
        tables["inter"] = enc.inter, enc.inter_rows[d][triplet_locs]
    if enc.model.intra is not None:
        tables["intra"] = enc.intra(d), enc.intra_rows[d][triplet_locs]
    m = min(BPR_CHUNK, triplet_locs.shape[1]) + 1  # a chunk and `_bpr_gradient`'s leading row
    width = max(table.shape[1] for table, _ in tables.values())
    buffer = np.empty(2 * m * width, enc.dtype)
    chunks = {name: buffer[: 2 * m * t.shape[1]].reshape(2, m, -1) for name, (t, _) in tables.items()}
    x = np.zeros(triplet_locs.shape[1], dtype=enc.dtype)
    for name, (table, rows) in tables.items():
        _add_scores(x, table, rows, chunks[name])
    dl_dx = _bpr_weight(x)  # negative
    orders = _triplet_orders(triplet_locs, dl_dx, enc.dataset.graph(d).n_nodes)
    grads = {name: _bpr_gradient(table, rows, orders, chunks[name]) for name, (table, rows) in tables.items()}
    return float(np.sum(np.logaddexp(0.0, -x))), grads.get("inter"), grads.get("intra")


def _bpr_weight(x: np.ndarray) -> np.ndarray:
    """dl/dx = -expit(-x) = -(1 / (1 + exp(x))), with scipy's bits. Its expit
    takes libm's exp, which `math.exp` calls for float64 (numpy's exp is its
    own); past 709.782712893384 exp overflows to inf, where `math.exp` would
    raise. Python has no expf, and float32 through the double exp rounds
    differently, so float32 takes scipy's expit, imported only then."""
    if x.dtype != np.float64:
        from scipy.special import expit
        return -expit(-x)
    e = np.fromiter(map(math.exp, np.where(x > 709.782712893384, np.inf, x).tolist()), np.float64, len(x))
    return -(1.0 / (1.0 + e))


def _diffs(table, rows, out, scratch) -> np.ndarray:
    """out = e_p - e_n for the (3, m) user, positive and negative `table`
    rows `rows`, through `scratch`. The rows are valid, so `np.take` runs with
    mode="clip", which writes straight into `out` (mode="raise" copies)."""
    np.take(table, rows[1], axis=0, out=out, mode="clip")
    out -= np.take(table, rows[2], axis=0, out=scratch[: len(out)], mode="clip")
    return out


def _add_scores(x, table, rows, chunks) -> None:
    """x += e_u . (e_p - e_n) for the (3, n) user, positive and negative
    `table` rows `rows`, BPR_CHUNK triplets at a time through the two
    `chunks`. Each score is its own row's, so chunking changes no bit."""
    held, scratch = chunks
    for lo in range(0, len(x), BPR_CHUNK):
        hi = min(lo + BPR_CHUNK, len(x))
        diff = _diffs(table, rows[:, lo:hi], held[: hi - lo], scratch)
        e_u = np.take(table, rows[0, lo:hi], axis=0, out=scratch[: hi - lo], mode="clip")
        x[lo:hi] += np.sum(np.multiply(e_u, diff, out=e_u), axis=1)


def _triplet_orders(triplet_locs, dl_dx, n_nodes: int):
    """The orders `_bpr_gradient` sums in, from the graph-local rows of a
    graph with `n_nodes` nodes: the triplets by user, the CSR `indptr` of
    the distinct users over them and, per BPR_CHUNK of them, (lo, hi, first,
    last, csr): their positions [lo, hi), the users [first, last) they hold
    and the matrix that adds a leading row, weighted 1, and their rows,
    weighted dl_dx, into those users' rows; then the item terms (positives,
    then negatives) by item and their weights +-dl_dx. `inter_rows[d]` and
    `intra_rows[d]` ascend with the local index, so they serve both tables."""
    user_order, user_ptr = _row_order(n_nodes, triplet_locs[0])
    user_ptr, user_weights, user_chunks = sorted_unique(user_ptr), dl_dx[user_order], []
    for lo in range(0, len(user_order), BPR_CHUNK):
        hi = min(lo + BPR_CHUNK, len(user_order))
        first, last = np.searchsorted(user_ptr, lo, side="right") - 1, np.searchsorted(user_ptr, hi)
        indptr = np.clip(user_ptr[first : last + 1], lo, hi) - lo + 1
        indptr[0] = 0
        weights = np.insert(user_weights[lo:hi], 0, 1)
        csr = sp.csr_matrix((weights, np.arange(hi - lo + 1), indptr), shape=(last - first, hi - lo + 1))
        user_chunks.append((lo, hi, first, last, csr))
    item_order, _ = _row_order(n_nodes, triplet_locs[1:].ravel())
    item_weights = np.concatenate([dl_dx, -dl_dx])[item_order]
    return user_order, user_ptr, user_chunks, item_order, item_weights


def _bpr_gradient(table, rows, orders, chunks) -> np.ndarray:
    """BPR gradient w.r.t. `table`'s rows, from the (3, n) user, positive and
    negative rows and `_triplet_orders`' orders, through the two `chunks`.

    Each row sums its terms in `_row_order`'s order, by row, then by
    position, and a CSR product rounds a * x before adding it (scipy's
    `csr_matvecs` fuses no multiply-add, as in its x86-64 wheels). An item's
    terms are +-dl_dx times its users' rows of `table`: one CSR product over
    the table, the gradient's only table-sized array, exact as (-a) * x =
    -(a * x). A user's terms dl_dx * (e_p - e_n) are summed BPR_CHUNK at a
    time in user order: one CSR product adds a chunk's differences into its
    users' rows after a leading row, weighted 1, that holds the sum so far
    of the user the chunk starts inside. User and item rows are disjoint, so
    that row is the item product's zero at a user's start, and a CSR product
    never yields -0.0, so 0 + 1 * s = s carries a sum past a chunk's end.
    """
    user_order, user_ptr, user_chunks, item_order, item_weights = orders
    n_rows, (held, scratch) = len(table), chunks
    item_users, item_ptr = rows[[0, 0]].ravel()[item_order], _indptr(n_rows, rows[1:].ravel())
    grad = sp.csr_matrix((item_weights, item_users, item_ptr), shape=(n_rows, n_rows)) @ table
    users = rows[0, user_order[user_ptr[:-1]]]  # each distinct user's table row
    for lo, hi, first, last, csr in user_chunks:
        held[0] = grad[users[first]]
        _diffs(table, rows[:, user_order[lo:hi]], held[1 : hi - lo + 1], scratch)
        grad[users[first:last]] = csr @ held[: hi - lo + 1]
    return grad


def _objective(enc: Encoding, d: int, triplet_locs, prepared_pairs, cfg: TrainConfig, align_scale):
    """(total, L_rank, L_align, grads) for one batch of domain d's (3, n)
    graph-local `triplet_locs`: `grads` holds the exact gradients by
    parameter name, one array shaped like each parameter.

    The squared norm is taken first, while the step holds least. A gradient
    is made zeroed when a term first writes it: the alignment term the pair
    domains' `intra`/`proj`, then the ranking term (`_bpr_part`, then
    `Encoding.transpose`) `inter` and `intra[d]`. The encoded rows are freed
    once scored, `_bpr_part`'s gradients once transposed. Last, (2 lambda)
    theta is added into each written gradient and is each other one, plus
    0.0, which turns -0.0 into +0.0 as a sum into zeros does.
    """
    model = enc.model
    squared_norm = model.squared_norm()
    grads: dict[str, np.ndarray] = {}
    l_align = _align_part(model, prepared_pairs, 2.0 * cfg.beta * align_scale, grads)
    l_bpr, d_g, d_q = _bpr_part(enc, d, triplet_locs)
    enc.free_rows()
    enc.transpose(d, d_g, d_q, grads)
    del d_g, d_q
    total = l_bpr + cfg.beta * align_scale * l_align + cfg.reg_lambda * squared_norm
    for name, arr in model.parameters():
        if name in grads:
            grads[name] += (2.0 * cfg.reg_lambda) * arr
        else:
            grads[name] = np.multiply(arr, 2.0 * cfg.reg_lambda)
            grads[name] += 0.0
    return total, l_bpr, l_align, grads


def _align_part(model: EDModel, prepared_pairs, coeff: float, grads: dict[str, np.ndarray]) -> float:
    """L_align on the raw per-domain embeddings and projections of the
    pairs; `coeff` / 2 times its gradient is added into `grads`, whose
    missing entries are made zeroed first. The scattered values go, in pair
    order, into one buffer per end domain, each freed once it is summed."""
    l_align = 0.0
    ends: dict[int, list[np.ndarray]] = {}  # each end domain's rows, in pair order
    for d, d_prime, idx_u, idx_v in prepared_pairs:
        ends.setdefault(d, []).append(idx_u)
        ends.setdefault(d_prime, []).append(idx_v)
    values = {end: np.empty((sum(map(len, rows)), len(model.proj[end])), model.proj[end].dtype)
              for end, rows in ends.items()}
    filled = dict.fromkeys(ends, 0)  # rows of each buffer written so far
    for d, d_prime, idx_u, idx_v in prepared_pairs:
        e_u = model.intra[d].matrix[idx_u]
        e_v = model.intra[d_prime].matrix[idx_v]
        diff = e_u @ model.proj[d]
        diff -= e_v @ model.proj[d_prime]
        l_align += float(np.sum(diff * diff))
        for end, idx, e, c in ((d, idx_u, e_u, coeff), (d_prime, idx_v, e_v, -coeff)):
            lo, filled[end] = filled[end], filled[end] + len(idx)
            np.matmul(c * diff, model.proj[end].T, out=values[end][lo : filled[end]])
            grad = zeroed_grad(grads, f"proj[{end}]", model.proj[end])
            grad += c * e.T @ diff
    for end, rows in ends.items():
        grad = zeroed_grad(grads, f"intra[{end}]", model.intra[end].matrix)
        grad += _scatter_add(len(grad), rows, values.pop(end))
    return l_align


def _scatter_add(n_rows: int, rows: list[np.ndarray], values: np.ndarray) -> np.ndarray:
    """(n_rows, dim) sums of the `values` rows at the indices the `rows`
    arrays hold in turn. One CSR product: each output row adds its
    contributions in list order, then in array order (`_row_order`), which
    makes the result bit-equal to `np.add.at` calls into zeros in that order.
    """
    order, indptr = _row_order(n_rows, np.concatenate(rows) if len(rows) > 1 else rows[0])
    ones = np.ones(len(order), dtype=values.dtype)
    return sp.csr_matrix((ones, order, indptr), shape=(n_rows, len(order))) @ values


def _row_order(n_rows: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of `rows` sorted by row, then position, and the CSR
    `indptr` of rows [0, n_rows) over them. The order is one sort of the keys
    `(row << 32) | position`, so every row must lie below 2**31 and there must
    be fewer than 2**32 positions; ValueError otherwise."""
    n = len(rows)
    if n >= 2**32 or (n and rows.max() >= 2**31):
        raise ValueError("scatter needs rows below 2**31 and fewer than 2**32 contributions")
    order = np.sort((rows.astype(np.int64) << 32) | np.arange(n)) & 0xFFFFFFFF
    return order, _indptr(n_rows, rows)


def _indptr(n_rows: int, rows: np.ndarray) -> np.ndarray:
    """The CSR `indptr` of rows [0, n_rows) over the row indices `rows`."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])


def loss_and_gradients(
    model: EDModel,
    dataset: MultiDomainDataset,
    d: int,
    triplet_locs: np.ndarray,
    pair_sets: Sequence[SimilarPairSet],
    cfg: TrainConfig,
    masks: dict[int, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """L_rank + beta * L_align + lambda * ||params||^2 for one batch of
    domain d, and its exact gradient for every parameter array, by name.

    `triplet_locs` are domain d's (3, n) graph-local (user, positive,
    negative) index rows, as `_NegativeSampler.triplets` builds them; with
    n = 0 the loss is the alignment and regularization terms alone.
    """
    enc = model.propagated(dataset, masks)
    pairs = _prepare_pairs(model, pair_sets)
    total, *_, grads = _objective(enc, d, triplet_locs, pairs, cfg, 1.0)
    return total, grads


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
) -> None:
    """Standard bias-corrected Adam update, applied in place.

    The textbook expression (`tests/oracles.adam_reference`) as in-place
    ufuncs, in its own operation order, so every bit is the same. They run
    over blocks of whole rows of about ADAM_BLOCK elements, which stay in
    cache from one pass to the next; the only temporary is one scratch of
    two blocks, the update's numerator and denominator.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    scratch = np.empty(0)
    for name, param in model.parameters():
        if grads[name].shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        row = param[:1].size or 1  # elements per row
        step = max(1, min(len(param), ADAM_BLOCK // row))  # rows per block
        if scratch.dtype != param.dtype or scratch.size < 2 * step * row:
            scratch = np.empty(2 * step * row, param.dtype)
        for lo in range(0, len(param), step):
            arrays = param, grads[name], state.m[name], state.v[name]
            p, g, m, v = (arr[lo : lo + step] for arr in arrays)
            num, den = scratch[: 2 * p.size].reshape(2, *p.shape)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=num)
            v *= b2
            np.multiply(g, g, out=num)
            v += np.multiply(num, 1.0 - b2, out=num)
            np.sqrt(np.divide(v, correct2, out=den), out=den)
            den += ADAM_EPS
            np.multiply(np.divide(m, correct1, out=num), cfg.learning_rate, out=num)
            p -= np.divide(num, den, out=num)


# -- training loop ------------------------------------------------------------


def _epoch_batches(domains: Sequence[DomainGraph], batch_size: int, rng: np.random.Generator):
    """One epoch's (domain, edge indices) batches: each observed interaction
    appears as a positive exactly once, in per-domain batches interleaved
    round-robin. Every domain's permutation is drawn before the first batch."""
    orders = [rng.permutation(graph.n_edges) for graph in domains]
    for start in range(0, max(len(order) for order in orders), batch_size):
        for d, order in enumerate(orders):
            if start < len(order):
                yield d, order[start : start + batch_size]


def train(
    model: EDModel,
    split,
    pair_sets: Sequence[SimilarPairSet],
    cfg: TrainConfig,
    val_cases: Sequence[evalkit.CaseSet],
    callbacks: Sequence[Callable[[EpochLog, EDModel], None]] = (),
) -> tuple[EDModel, list[EpochLog], list[tuple[int, float, float, int]]]:
    """Optimize the model on a split dataset; returns the model, the epoch
    logs and the per-domain validation rows (`evalkit.evaluate_all`'s) of the
    parameters it returns, empty when no epoch was validated.

    One epoch uses every training interaction as a positive once, in
    per-domain batches interleaved round-robin. Fresh edge-dropout masks are
    drawn for every domain on every batch. After each epoch the model is
    scored on `val_cases`, the validation case sets (`evalkit.build_all_cases`).
    When `cfg.patience` is set, stops after that many epochs without a
    validation-AUC improvement and restores the best parameters seen.
    """
    rng = np.random.default_rng(cfg.seed)
    train_ds = split.train
    prepared_pairs = _prepare_pairs(model, pair_sets)
    n_pairs = sum(len(idx_u) for _, _, idx_u, _ in prepared_pairs)
    state = AdamState.for_model(model)

    samplers = [_NegativeSampler(graph) for graph in train_ds.domains]
    has_val = any(cases for cases in val_cases)
    logs: list[EpochLog] = []
    best_auc = -np.inf
    best_model: EDModel | None = None
    best_epoch = 0
    val_rows = best_rows = []

    for epoch in range(1, cfg.epochs + 1):
        epoch_bpr = epoch_align = epoch_total = 0.0
        for d, batch in _epoch_batches(train_ds.domains, cfg.batch_size, rng):
            triplets = samplers[d].triplets(batch, rng)
            if triplets.shape[1] == 0:
                continue
            masks = None
            if cfg.edge_dropout > 0.0:
                masks = {
                    dd: edge_dropout(g, cfg.edge_dropout, rng)
                    for dd, g in enumerate(train_ds.domains)
                }
            batch_pairs, align_scale = prepared_pairs, 1.0
            if n_pairs > ALIGN_SUBSAMPLE_FACTOR * cfg.batch_size:
                batch_pairs, align_scale = _subsample_pairs(
                    prepared_pairs, n_pairs, cfg.batch_size, rng
                )
            total, l_bpr, l_align, grads = _objective(
                model.propagated(train_ds, masks), d, triplets, batch_pairs, cfg, align_scale
            )
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, domain {d}:"
                    f" bpr {l_bpr}, align {l_align}, total {total}"
                )
            adam_step(model, grads, state, cfg)
            del grads  # freed before the next step allocates its own
            epoch_bpr += l_bpr
            epoch_align += l_align
            epoch_total += total

        val_auc = val_recall = float("nan")
        if has_val:
            val_auc, val_recall, val_rows = evalkit.evaluate_cases_mean(model, split, val_cases)
        log = EpochLog(epoch, epoch_bpr, epoch_align, epoch_total, val_auc, val_recall)
        logs.append(log)
        for cb in callbacks:
            cb(log, model)
        if cfg.patience is not None and has_val:
            if val_auc > best_auc:
                best_auc, best_epoch, best_rows = val_auc, epoch, val_rows
                best_model = model.copy()
            elif epoch - best_epoch >= cfg.patience:
                break

    if best_model is not None:
        for (_, dst), (_, src) in zip(model.parameters(), best_model.parameters()):
            np.copyto(dst, src)
        val_rows = best_rows
    return model, logs, val_rows


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
