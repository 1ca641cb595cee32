"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is written with dense matrices and explicit loops, on purpose:
these implementations must not share code paths with the library.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import strategies as st

from edda.edmodel import EDModel
from edda.encoders import EmbeddingTable
from edda.mdgraph import NodeId, NodeKind
from edda.synthgen import SynthError
from edda.walker import SimilarPairSet


def keys(*nodes):
    """int64 node keys of `nodes`, spelled out as `(kind << 62) | id`."""
    return np.array([(int(n.kind) << 62) | n.id for n in nodes], dtype=np.int64)


def nodes_of(node_keys):
    """The NodeIds of an array of node keys, in its order."""
    return [NodeId(NodeKind(k >> 62), k & (2**62 - 1)) for k in np.asarray(node_keys).tolist()]


def row(table, node):
    """The embedding row of one node, found by scanning the table's keys."""
    (hit,) = np.flatnonzero(table.keys == keys(node)[0])
    return table.matrix[hit]


def domain_graph_by_unique_rows(edges):
    """`DomainGraph`'s edge and adjacency arrays as first built: the edges
    deduplicated by one `np.unique(axis=0)` over (user, item) rows."""
    edge_arr = np.unique(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=0)
    user_ids, item_ids = np.unique(edge_arr[:, 0]), np.unique(edge_arr[:, 1])
    edge_user = np.searchsorted(user_ids, edge_arr[:, 0])
    edge_item = np.searchsorted(item_ids, edge_arr[:, 1])
    user_degree = np.bincount(edge_user, minlength=len(user_ids))
    item_degree = np.bincount(edge_item, minlength=len(item_ids))
    order_u = np.lexsort((edge_item, edge_user))
    order_i = np.lexsort((edge_user, edge_item))
    return {
        "user_ids": user_ids,
        "item_ids": item_ids,
        "edge_user": edge_user,
        "edge_item": edge_item,
        "user_degree": user_degree,
        "item_degree": item_degree,
        "adj_indptr": np.concatenate([[0], np.cumsum(np.concatenate([user_degree, item_degree]))]),
        "adj_indices": np.concatenate(
            [edge_item[order_u] + len(user_ids), edge_user[order_i]]
        ),
    }


def sym_norm_adjacency_by_coo(graph, mask=None):
    """`DomainGraph.sym_norm_adjacency` as first built: a COO matrix of both
    directions of every kept edge, converted to CSR."""
    e_u, e_i = graph.edge_user, graph.edge_item
    if mask is not None:
        e_u, e_i = e_u[mask], e_i[mask]
    w = 1.0 / np.sqrt(graph.user_degree[e_u].astype(np.float64) * graph.item_degree[e_i])
    rows = np.concatenate([e_u, e_i + graph.n_users])
    cols = np.concatenate([e_i + graph.n_users, e_u])
    a = sp.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(graph.n_nodes,) * 2)
    return a.tocsr()


def zeroed(model):
    """`model` with every parameter set to zero, in place."""
    for _, arr in model.parameters():
        arr[...] = 0.0
    return model


def as_float32(model):
    """A float32 copy of `model`."""
    def table(t):
        return EmbeddingTable(t.keys, t.matrix.astype(np.float32))

    return EDModel(
        replace(model.spec, dtype="float32"),
        table(model.inter) if model.inter is not None else None,
        [table(t) for t in model.intra] if model.intra is not None else None,
        [w.astype(np.float32) for w in model.proj] if model.proj is not None else None,
    )


def adam_reference(param, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam step number `t` (from 1), on new arrays:
    returns the updated (param, m, v)."""
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * np.square(grad)
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def epoch_batches_by_lists(domains, batch_size, rng):
    """One epoch's (domain, edge indices) batches by list slicing: every
    domain's permutation cut into a list of batches, then the lists
    interleaved round-robin."""
    schedules = []
    for graph in domains:
        order = rng.permutation(graph.n_edges)
        schedules.append([order[k : k + batch_size] for k in range(0, len(order), batch_size)])
    out = []
    for round_idx in range(max(len(batches) for batches in schedules)):
        for d, batches in enumerate(schedules):
            if round_idx < len(batches):
                out.append((d, batches[round_idx]))
    return out


def negative_triplets_by_scalar_draws(graph, edges, rng, warned):
    """`_NegativeSampler.triplets` as first written: one `rng.integers` call
    per draw, rejecting a user's positives, row by row.

    Rows of users who saw every item draw nothing; each such user not yet in
    `warned` is added to it and gets one warning. Returns the (3, n) local
    (user, positive, negative) rows and the new warnings, in row order.
    """
    positives = {}
    for u, i in zip(graph.edge_user.tolist(), graph.edge_item.tolist()):
        positives.setdefault(u, set()).add(i)
    rows, warnings = [], []
    for e in np.asarray(edges).tolist():
        u, i = int(graph.edge_user[e]), int(graph.edge_item[e])
        if len(positives[u]) == graph.n_items:
            if u not in warned:
                warned.add(u)
                warnings.append(
                    f"domain {graph.domain}: user {graph.user_ids[u]} interacts with every item,"
                    " skipping"
                )
            continue
        n = int(rng.integers(graph.n_items))
        while n in positives[u]:
            n = int(rng.integers(graph.n_items))
        rows.append((u, i + graph.n_users, n + graph.n_users))
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T, warnings


def edge_lists():
    """Non-empty lists of (user_id, item_id) edges with repeats, drawn from a
    few small ids plus the largest valid ids."""
    ids = st.one_of(st.integers(0, 6), st.sampled_from([2**62 - 2, 2**62 - 1]))
    return st.lists(st.tuples(ids, ids), min_size=1, max_size=40)


def interaction_text_by_rows(records):
    """What `write_interactions` writes for `records`: one f-string line per
    (d, u, i) triple, in the order given."""
    return "".join(f"{d}\t{u}\t{i}\n" for d, u, i in records)


# int64 values of every range: small ids, the id bounds and the int64 bounds
INT64S = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([0, 2**62 - 1, -(2**63), 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


def bipartite_order(pairs):
    """Node order used by the dense oracles: users sorted by id, then items."""
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    nodes = [NodeId(NodeKind.USER, u) for u in users] + [
        NodeId(NodeKind.ITEM, i) for i in items
    ]
    return nodes, {n: k for k, n in enumerate(nodes)}


def dense_propagation_matrix(pairs, alpha, kept_pairs=None):
    """alpha*I + (1-alpha) * D^{-1/2} A D^{-1/2} as a dense array.

    Degrees always come from the full pair list; `kept_pairs` restricts which
    edges enter A (edge dropout semantics).
    """
    nodes, index = bipartite_order(pairs)
    deg = {}
    for u, i in pairs:
        deg[NodeId(NodeKind.USER, u)] = deg.get(NodeId(NodeKind.USER, u), 0) + 1
        deg[NodeId(NodeKind.ITEM, i)] = deg.get(NodeId(NodeKind.ITEM, i), 0) + 1
    n = len(nodes)
    a = np.zeros((n, n))
    for u, i in kept_pairs if kept_pairs is not None else pairs:
        un, itn = NodeId(NodeKind.USER, u), NodeId(NodeKind.ITEM, i)
        w = 1.0 / np.sqrt(deg[un] * deg[itn])
        a[index[un], index[itn]] = w
        a[index[itn], index[un]] = w
    return nodes, alpha * np.eye(n) + (1.0 - alpha) * a


def dense_propagate(pairs, rows, alpha, num_layers, kept_pairs=None):
    """Propagate `rows` (dict NodeId -> vector) and return dict NodeId -> vector."""
    nodes, p = dense_propagation_matrix(pairs, alpha, kept_pairs)
    x = np.array([rows[n] for n in nodes], dtype=np.float64)
    out = np.linalg.matrix_power(p, num_layers) @ x
    return {n: out[k] for k, n in enumerate(nodes)}


def grec_propagate_by_expression(op, x, cfg):
    """`encoders.grec_propagate` as one expression per layer, each building a
    new array, so `x` is left as it is; the identity cases return a copy."""
    if op is None or cfg.is_identity:
        return x.copy()
    for _ in range(cfg.num_layers):
        x = (cfg.alpha * x + (1.0 - cfg.alpha) * (op @ x)).astype(x.dtype)
    return x


def walk_stop_distribution(pairs, source, steps):
    """Exact distribution of the final node of a `steps`-step uniform walk.

    Transition matrix is the row-normalized bipartite adjacency.
    """
    nodes, index = bipartite_order(pairs)
    n = len(nodes)
    a = np.zeros((n, n))
    for u, i in pairs:
        a[index[NodeId(NodeKind.USER, u)], index[NodeId(NodeKind.ITEM, i)]] = 1.0
        a[index[NodeId(NodeKind.ITEM, i)], index[NodeId(NodeKind.USER, u)]] = 1.0
    t = a / a.sum(axis=1, keepdims=True)
    dist = np.zeros(n)
    dist[index[source]] = 1.0
    for _ in range(steps):
        dist = dist @ t
    return {n_: dist[k] for k, n_ in enumerate(nodes)}


def walk_endpoints(pairs, source, cfg):
    """Final nodes of `cfg.num_walks` uniform walks of `cfg.walk_length` steps
    from `source` over the (user, item) `pairs`, one walk at a time.

    The source's stream is `default_rng(SeedSequence((rng_seed, kind, id)))`
    and each step takes one `random(num_walks)` draw: walk w moves from node
    n to the `floor(r_w * degree(n))`-th neighbour of n, neighbours in
    ascending id order.
    """
    neighbours = {}
    for u, i in sorted({(int(u), int(i)) for u, i in pairs}):
        user, item = NodeId(NodeKind.USER, u), NodeId(NodeKind.ITEM, i)
        neighbours.setdefault(user, []).append(item)
        neighbours.setdefault(item, []).append(user)
    for nodes in neighbours.values():
        nodes.sort(key=lambda n: n.id)
    seed = np.random.SeedSequence((cfg.rng_seed, int(source.kind), source.id))
    rng = np.random.default_rng(seed)
    walks = [source] * cfg.num_walks
    for _ in range(cfg.walk_length):
        draws = rng.random(cfg.num_walks)
        walks = [neighbours[n][int(r * len(neighbours[n]))] for n, r in zip(walks, draws)]
    return walks


def walk_stop_counts(pairs, source, anchor_nodes, cfg):
    """How many of `walk_endpoints` stop on each of `anchor_nodes`."""
    endpoints = walk_endpoints(pairs, source, cfg)
    return np.array([endpoints.count(a) for a in anchor_nodes], dtype=np.int64)


def pair_set_of(domain_pair, pairs):
    """The SimilarPairSet of `SimilarPair` records, in their order."""
    ints = np.array(
        [(p.source.kind, p.source.id, p.target.id) for p in pairs], dtype=np.int64
    ).reshape(-1, 3)
    sims = np.array([p.similarity for p in pairs], dtype=np.float64)
    return SimilarPairSet(domain_pair, *ints.T, sims)


def top_k_by_rows(sims, k):
    """Each row's k best positive entries by one lexsort per row, under the
    order (-similarity, column): (row, column, similarity) triples."""
    out = []
    cols = np.arange(sims.shape[1])
    for r in range(sims.shape[0]):
        for c in np.lexsort((cols, -sims[r]))[:k].tolist():
            if sims[r, c] > 0.0:
                out.append((r, c, float(sims[r, c])))
    return out


def mined_pairs_by_sources(dataset, d, d_prime, k, stops):
    """`mine_pairs` one source row at a time: per kind, per-row stop counts
    of the anchors, normalised rows, one product and `top_k_by_rows`; as
    (kind, source id, target id, similarity) tuples."""
    anchor_keys = np.intersect1d(dataset.graph(d).keys, dataset.graph(d_prime).keys)
    out = []
    for kind in (NodeKind.USER, NodeKind.ITEM):
        mats, ids = [], []
        for dom in (d, d_prime):
            graph = dataset.graph(dom)
            rows = np.flatnonzero(graph.keys >> 62 == kind)
            index = {int(key): a for a, key in enumerate(anchor_keys.tolist())}
            counts = np.zeros((len(rows), len(anchor_keys)), dtype=np.int64)
            for r, row in enumerate(rows.tolist()):
                for end in stops[dom][row].tolist():
                    a = index.get(int(graph.keys[end]))
                    if a is not None:
                        counts[r, a] += 1
            norms = np.sqrt((counts.astype(np.float64) ** 2).sum(axis=1))
            norms[norms == 0.0] = 1.0
            mats.append(counts / norms[:, None])
            ids.append((graph.keys[rows] & (2**62 - 1)).tolist())
        sims = np.clip(mats[0] @ mats[1].T, 0.0, 1.0)
        out += [(int(kind), ids[0][r], ids[1][c], s) for r, c, s in top_k_by_rows(sims, k)]
    return out


def pairwise_auc(pos_scores, neg_scores):
    """O(n^2) pairwise AUC with ties counting one half."""
    total = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos_scores) * len(neg_scores))


def topn_by_sort(scored_items, n):
    """Descending score, ties by ascending item id; `scored_items` is (item, score)."""
    return sorted(scored_items, key=lambda pair: (-pair[1], pair[0]))[:n]


def cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def oracle_total_loss(model, dataset, triplets, pair_sets, cfg, masks=None):
    """Dense, loop-based recomputation of the training objective.

    `triplets` maps a domain to (3, n) graph-local (user, positive, negative)
    index rows, local order being users by id, then items by id.
    """
    spec = model.spec
    num_layers = spec.grec.num_layers
    alpha = spec.grec.alpha

    def domain_pairs(d):
        return [(int(u), int(i)) for u, i in dataset.graph(d).user_item_pairs()]

    def kept(d):
        pairs = domain_pairs(d)
        if masks is None or masks.get(d) is None:
            return pairs
        return [p for p, keep_edge in zip(pairs, masks[d]) if keep_edge]

    # intra representations per domain
    reps_intra = []
    if model.intra is not None:
        for d, graph in enumerate(dataset.domains):
            rows = {n: row(model.intra[d], n) for n in nodes_of(graph.keys)}
            if spec.encoder == "mf":
                reps_intra.append(rows)
            else:
                reps_intra.append(
                    dense_propagate(domain_pairs(d), rows, alpha, num_layers, kept(d))
                )
    # shared representations: per-domain propagation, summed per node
    reps_inter = {}
    if model.inter is not None:
        if spec.encoder == "mf":
            reps_inter = {n: row(model.inter, n) for n in nodes_of(dataset.keys)}
        else:
            for d, graph in enumerate(dataset.domains):
                rows = {n: row(model.inter, n) for n in nodes_of(graph.keys)}
                out = dense_propagate(domain_pairs(d), rows, alpha, num_layers, kept(d))
                for n, vec in out.items():
                    reps_inter[n] = reps_inter.get(n, 0.0) + vec

    def score(u, i, d):
        parts_u = []
        parts_i = []
        if model.inter is not None:
            parts_u.append(reps_inter[u])
            parts_i.append(reps_inter[i])
        if model.intra is not None:
            parts_u.append(reps_intra[d][u])
            parts_i.append(reps_intra[d][i])
        return float(np.dot(np.concatenate(parts_u), np.concatenate(parts_i)))

    l_bpr = 0.0
    for d, rows in triplets.items():
        nodes, _ = bipartite_order(domain_pairs(d))
        for u, p, n in zip(*rows.tolist()):
            x = score(nodes[u], nodes[p], d) - score(nodes[u], nodes[n], d)
            l_bpr += float(np.log1p(np.exp(-x)))

    l_align = 0.0
    for pair_set in pair_sets:
        d, d_prime = pair_set.domain_pair
        for p in pair_set.pairs:
            diff = (
                row(model.intra[d], p.source) @ model.proj[d]
                - row(model.intra[d_prime], p.target) @ model.proj[d_prime]
            )
            l_align += float(np.dot(diff, diff))

    reg = 0.0
    for _, arr in model.parameters():
        for value in arr.reshape(-1):
            reg += float(value) ** 2
    return l_bpr + cfg.beta * l_align + cfg.reg_lambda * reg


def bpr_scores(block):
    """Per-triplet e_u . (e_p - e_n) of a gathered [e_u; e_p; e_n] block.

    In place: the e_n rows are left holding e_p - e_n, which
    `bpr_row_gradients` reads, and the e_p rows their products with e_u.
    """
    e_u, e_p, e_n = np.split(block, 3)
    np.subtract(e_p, e_n, out=e_n)
    return np.sum(np.multiply(e_u, e_n, out=e_p), axis=1)


def bpr_row_gradients(dl_dx, block):
    """Overwrite a block that `bpr_scores` has read with the BPR loss
    gradient w.r.t. each row of [e_u; e_p; e_n]: dl_dx * (e_p - e_n),
    dl_dx * e_u, -dl_dx * e_u (negation is exact, so the last is -(dl_dx * e_u))."""
    e_u, e_p, diff = np.split(block, 3)
    np.multiply(dl_dx, e_u, out=e_p)
    np.multiply(dl_dx, diff, out=e_u)
    np.negative(e_p, out=diff)
    return block


def bpr_part_by_rows(enc, d, triplet_locs):
    """`trainer._bpr_part` with every gradient row written out: each table's
    [e_u; e_p; e_n] rows are gathered into one block, scored and turned into
    their gradient rows (`bpr_scores`, `bpr_row_gradients`), and the rows are
    summed by `np.add.at` into zeros in position order (users, positives,
    negatives)."""
    locs = triplet_locs.reshape(-1)
    tables = {}
    if enc.inter is not None:
        tables["inter"] = enc.inter, enc.inter_rows[d][locs]
    if enc.model.intra is not None:
        tables["intra"] = enc.intra(d), enc.intra_rows[d][locs]
    x = np.zeros(triplet_locs.shape[1], dtype=enc.dtype)
    gathered = {name: table[rows] for name, (table, rows) in tables.items()}
    for block in gathered.values():
        x += bpr_scores(block)
    dl_dx = -expit(-x)[:, None]
    grads = {}
    for name, (table, rows) in tables.items():
        grads[name] = np.zeros_like(table)
        np.add.at(grads[name], rows, bpr_row_gradients(dl_dx, gathered[name]))
    return float(np.sum(np.logaddexp(0.0, -x))), grads.get("inter"), grads.get("intra")


def align_part_by_pairs(model, pair_sets, coeff):
    """`trainer._align_part` summed pair by pair, as it was before the pair
    Laplacian: each pair set's rows gathered and projected, their
    differences squared into the loss, and `coeff` / 2 times the gradient
    added into zeros, the row terms by `np.add.at` in pair order. Returns
    (L_align, grads), with `intra` and `proj` gradients for every end domain."""
    l_align, grads = 0.0, {}
    for pair_set in pair_sets:
        d, d_prime = pair_set.domain_pair
        idx = [
            np.searchsorted(model.intra[end].keys, (pair_set.kinds << 62) | ids)
            for end, ids in ((d, pair_set.sources), (d_prime, pair_set.targets))
        ]
        e_u, e_v = model.intra[d].matrix[idx[0]], model.intra[d_prime].matrix[idx[1]]
        diff = e_u @ model.proj[d] - e_v @ model.proj[d_prime]
        l_align += float(np.sum(diff * diff))
        for end, rows, e, c in ((d, idx[0], e_u, coeff), (d_prime, idx[1], e_v, -coeff)):
            table = grads.setdefault(f"intra[{end}]", np.zeros_like(model.intra[end].matrix))
            np.add.at(table, rows, c * diff @ model.proj[end].T)
            grads.setdefault(f"proj[{end}]", np.zeros_like(model.proj[end]))
            grads[f"proj[{end}]"] += c * e.T @ diff
    return l_align, grads


def objective_by_zero_fill(enc, d, triplet_locs, laplacian, cfg):
    """`trainer._objective` with every gradient zero-filled up front: the
    alignment term is added in from the same pair Laplacian L (None without
    pairs), as <Y, L Y> over the pair ends' projected rows Y, each end's
    terms into its `intra` and `proj`; then the ranking term
    (`bpr_part_by_rows`, carried back by `Encoding.transpose`), then the L2
    term into every gradient, last. Returns (total, L_rank, L_align, grads)."""
    model = enc.model
    grads = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    l_align = 0.0
    if laplacian is not None:
        bounds = np.cumsum([0, *(len(table) for table in model.intra)])
        ends = [e for e in range(len(model.intra)) if laplacian.indptr[bounds[e + 1]] > laplacian.indptr[bounds[e]]]
        y = np.zeros((bounds[-1], model.proj[0].shape[1]), dtype=model.proj[0].dtype)
        for e in ends:
            y[bounds[e] : bounds[e + 1]] = model.intra[e].matrix @ model.proj[e]
        ly = laplacian @ y
        l_align = float(np.sum(y * ly))
        for e in ends:
            part = (2.0 * cfg.beta) * ly[bounds[e] : bounds[e + 1]]
            grads[f"intra[{e}]"] += part @ model.proj[e].T
            grads[f"proj[{e}]"] += model.intra[e].matrix.T @ part
    l_bpr, d_inter, d_intra = bpr_part_by_rows(enc, d, triplet_locs)
    enc.transpose(d, d_inter, d_intra, grads)
    total = l_bpr + cfg.beta * l_align + cfg.reg_lambda * model.squared_norm()
    for name, arr in model.parameters():
        grads[name] += (2.0 * cfg.reg_lambda) * arr
    return total, l_bpr, l_align, grads


def finite_difference_gradient(loss_fn, array, flat_index, h=1e-5):
    """Central difference of `loss_fn()` w.r.t. one scalar of `array`, in place."""
    flat = array.reshape(-1)
    saved = flat[flat_index]
    flat[flat_index] = saved + h
    up = loss_fn()
    flat[flat_index] = saved - h
    down = loss_fn()
    flat[flat_index] = saved
    return (up - down) / (2.0 * h)


def dataset_records(dataset):
    """(n, 3) int64 array of every (domain, user_id, item_id) record of
    `dataset`, sorted by domain, then user, then item."""
    rows = sorted(
        (d, int(u), int(i))
        for d, graph in enumerate(dataset.domains)
        for u, i in graph.user_item_pairs()
    )
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def random_bipartite_records(rng, domain, n_users, n_items, n_edges, user_base=0, item_base=0):
    """Random deduplicated records with ids offset by the given bases."""
    seen = set()
    records = []
    while len(records) < n_edges:
        u = int(rng.integers(n_users)) + user_base
        i = int(rng.integers(n_items)) + item_base
        if (u, i) not in seen:
            seen.add((u, i))
            records.append((domain, u, i))
    return records


def split_records(dataset, ratios=(7, 1, 2), seed=0):
    """Per-record split: (train records, validation rows, test rows) per domain.

    Each user's items (id order) are shuffled by one `rng.permutation` call
    and cut by a largest-remainder quota that always leaves train one item.
    """

    def quota(n):
        total = sum(ratios)
        raw = [n * r / total for r in ratios]
        counts = [int(np.floor(x)) for x in raw]
        order = sorted(range(3), key=lambda k: (-(raw[k] - counts[k]), k))
        for k in order[: n - sum(counts)]:
            counts[k] += 1
        if n >= 1 and counts[0] == 0:
            donor = int(np.argmax(counts[1:])) + 1
            counts[donor] -= 1
            counts[0] += 1
        return counts

    rng = np.random.default_rng(seed)
    train, validation, test = [], [], []
    for d, graph in enumerate(dataset.domains):
        val_rows, test_rows = [], []
        for u_loc in range(graph.n_users):
            lo, hi = graph.adj_indptr[u_loc], graph.adj_indptr[u_loc + 1]
            items = graph.item_ids[graph.adj_indices[lo:hi] - graph.n_users]
            items = items[rng.permutation(len(items))]
            n_train, n_val, _ = quota(len(items))
            user = int(graph.user_ids[u_loc])
            train.extend((d, user, int(i)) for i in items[:n_train])
            val_rows.extend((user, int(i)) for i in items[n_train : n_train + n_val])
            test_rows.extend((user, int(i)) for i in items[n_train + n_val :])
        validation.append(sorted(val_rows))
        test.append(sorted(test_rows))
    return train, validation, test


def eval_cases(graph, held_out, d, eval_seed, num_negatives=10):
    """Per-case (user, positive, sorted negatives) with negatives frozen by
    eval_seed; cases of users with fewer than `num_negatives` eligible items
    are left out."""
    positives = {}
    for u, i in graph.user_item_pairs():
        positives.setdefault(int(u), set()).add(int(i))
    cases = []
    for user, item in held_out:
        user, item = int(user), int(item)
        eligible = np.array(
            [i for i in graph.item_ids if int(i) not in positives.get(user, set())]
        )
        if len(eligible) < num_negatives:
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(eval_seed, d, user, item)))
        sampled = rng.choice(eligible, size=num_negatives, replace=False)
        cases.append((user, item, tuple(sorted(int(i) for i in sampled))))
    return cases


def auc_from_scored_cases(scored):
    """Macro AUC over (user_id, positive_score, negative_scores) cases, users in id order."""
    by_user = {}
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


def auc_by_user_blocks(users, pos, neg):
    """`evalkit.auc_from_scores` as first written: cases sorted by user, then
    one pairwise count per user block, users averaged in id order."""
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


def recall_at_1_from_scored_cases(scored):
    """Share of (positive_score, positive_id, negative_scores, negative_ids)
    cases whose positive tops its candidates, ties going to the smaller id."""
    hits = 0
    for pos_score, pos_id, neg_scores, neg_ids in scored:
        beats = (pos_score > neg_scores) | ((pos_score == neg_scores) & (pos_id < neg_ids))
        hits += bool(np.all(beats))
    return hits / len(scored)


def calibrate_intercept_200(z, target):
    """The intercept bisection as `synthgen` first ran it: always 200 steps.

    Returns `(b, fixed_step)`, where `fixed_step` counts the sigmoid sums up to
    and including the first step whose branch left `(lo, hi)` unchanged (None
    if no step did).
    """
    lo, hi = -60.0, 60.0
    fixed_step = None
    for step in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.sum(1.0 / (1.0 + np.exp(-(z + mid))))) < target:
            new = (mid, hi)
        else:
            new = (lo, mid)
        if fixed_step is None and new == (lo, hi):
            fixed_step = step + 1
        lo, hi = new
    return 0.5 * (lo + hi), fixed_step


def fill_by_stable_argsort(margin, chosen, k):
    """`chosen` plus the first k cells of a stable argsort of -margin, with
    already chosen cells sorted last: the budget fill as `synthgen` first ran it."""
    rest = margin.copy()
    rest[chosen] = -np.inf
    order = np.argsort(-rest, axis=None, kind="stable")
    out = chosen.copy()
    out[np.unravel_index(order[:k], out.shape)] = True
    return out


def allocate_ids_by_lists(users, items, overlap_fraction):
    """Per-domain user and item ids as `synthgen` first allocated them, with
    Python lists: each domain pair's shared block (sized to hit the overlap)
    in pair order, then each domain's private ids, every list sorted.

    Returns `(domain_users, domain_items, n_users, n_items)`; raises the
    allocation's SynthErrors, pairs first, then domains.
    """
    n = len(users)
    blocks = {}
    for d in range(n):
        for d_prime in range(d + 1, n):
            if overlap_fraction == 0.0:
                blocks[(d, d_prime)] = (0, 0)
                continue
            total = users[d] + users[d_prime] + items[d] + items[d_prime]
            s_total = int(round(overlap_fraction * total / (1.0 + overlap_fraction)))
            s_users = int(round(s_total * ((users[d] + users[d_prime]) / total)))
            blocks[(d, d_prime)] = (s_users, s_total - s_users)
    domain_users = [[] for _ in range(n)]
    domain_items = [[] for _ in range(n)]
    next_user = next_item = 0
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
    for d in range(n):
        if len(domain_users[d]) > users[d] or len(domain_items[d]) > items[d]:
            raise SynthError(f"domain {d}: shared blocks exceed its user/item budget")
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


def generate_reference(spec):
    """`synthgen.generate` as first written, with the references above.

    `spec` holds `SynthSpec`'s keyword arguments, with every count a tuple,
    so that a spec `SynthSpec` refuses to build can still be run. Returns
    `(records, intercepts, latents, forced)`: sorted (domain, user, item)
    tuples, the intercept per domain, the `write_dataset` latent arrays by
    name, and the number of coverage-forced cells per domain. Raises the
    SynthError the first generator raised, in its order of checks.
    """
    rng = np.random.default_rng(spec["seed"])
    domain_users, domain_items, n_users, n_items = allocate_ids_by_lists(
        spec["users_per_domain"], spec["items_per_domain"], spec["overlap_fraction"]
    )
    shared_dim, specific_dim = spec["shared_dim"], spec["specific_dim"]
    weight, gain = spec["shared_weight"], spec["affinity_gain"]
    boost = spec["anchor_specific_boost"]
    shared_user = rng.normal(size=(n_users, shared_dim))
    shared_item = rng.normal(size=(n_items, shared_dim))
    user_mult = np.zeros(n_users, dtype=np.int64)
    item_mult = np.zeros(n_items, dtype=np.int64)
    for d in range(len(domain_users)):
        user_mult[domain_users[d]] += 1
        item_mult[domain_items[d]] += 1
    latents = {
        "shared_user_ids": np.arange(n_users),
        "shared_user": shared_user,
        "shared_item_ids": np.arange(n_items),
        "shared_item": shared_item,
    }
    records, intercepts, forced_counts = [], [], []
    for d, budget in enumerate(spec["interactions_per_domain"]):
        u_ids, i_ids = domain_users[d], domain_items[d]
        n_u, n_i = len(u_ids), len(i_ids)
        if budget > n_u * n_i:
            raise SynthError(f"domain {d}: budget exceeds the number of pairs")
        if budget < max(n_u, n_i):
            raise SynthError(
                f"domain {d}: budget {budget} cannot cover {n_u} users and {n_i} items"
            )
        p_spec = rng.normal(size=(n_u, specific_dim))
        q_spec = rng.normal(size=(n_i, specific_dim))
        if boost != 1.0:
            p_spec[user_mult[u_ids] > 1] *= boost
            q_spec[item_mult[i_ids] > 1] *= boost
        latents[f"specific_user_ids_{d}"], latents[f"specific_user_{d}"] = u_ids, p_spec
        latents[f"specific_item_ids_{d}"], latents[f"specific_item_{d}"] = i_ids, q_spec

        shared_aff = shared_user[u_ids] @ shared_item[i_ids].T / np.sqrt(shared_dim)
        spec_aff = p_spec @ q_spec.T / np.sqrt(specific_dim)
        z = gain * (weight * shared_aff + (1.0 - weight) * spec_aff)
        b, _ = calibrate_intercept_200(z, budget)
        intercepts.append(b)
        margin = 1.0 / (1.0 + np.exp(-(z + b))) - rng.random((n_u, n_i))

        chosen = np.zeros((n_u, n_i), dtype=bool)
        chosen[np.arange(n_u), np.argmax(z, axis=1)] = True
        uncovered = np.nonzero(~chosen.any(axis=0))[0]
        chosen[np.argmax(z[:, uncovered], axis=0), uncovered] = True
        forced = int(chosen.sum())
        forced_counts.append(forced)
        if forced > budget:
            raise SynthError(f"domain {d}: budget below the coverage minimum {forced}")
        chosen = fill_by_stable_argsort(margin, chosen, budget - forced)
        records.extend(
            (d, int(u_ids[r]), int(i_ids[c])) for r, c in zip(*np.nonzero(chosen))
        )
    latents["intercepts"] = np.array(intercepts)
    return sorted(records), latents["intercepts"], latents, forced_counts


# -- interaction files with the loader's expected reading of each line ---------

_INT = st.one_of(st.integers(0, 10**6), st.just(2**62 - 1))


@st.composite
def _file_line(draw):
    """One line of an interaction file and what the loader must make of it:
    ("row", (d, u, i)), ("skip", None) or ("bad", None)."""
    d, u, i = draw(_INT), draw(_INT), draw(_INT)
    kind = draw(st.sampled_from(
        ["row", "extra", "comment", "indented", "blank", "spaces", "short", "word", "negative",
         "huge"]
    ))
    if kind == "row":
        return f"{d}\t{u}\t{i}", ("row", (d, u, i))
    if kind == "extra":
        extra = draw(st.sampled_from(["", "x", "7\t8", "# not a comment"]))
        return f"{d}\t{u}\t{i}\t{extra}", ("row", (d, u, i))
    if kind in ("comment", "indented"):
        indent = "" if kind == "comment" else draw(st.sampled_from([" ", "\t", "  \t "]))
        return indent + "#" + draw(st.sampled_from(["", " 0", "0\t1\t2"])), ("skip", None)
    if kind == "blank":
        return "", ("skip", None)
    if kind == "spaces":
        return draw(st.sampled_from([" ", "\t", " \t\t "])), ("skip", None)
    if kind == "short":
        return draw(st.sampled_from([f"{d}", f"{d}\t{u}", f"{d} {u} {i}"])), ("bad", None)
    if kind == "word":
        fields = [str(d), str(u), str(i)]
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(["x", "1.5", "0x1", f"{i} # x", ""]))
        return "\t".join(fields), ("bad", None)
    fields = [d, u, i]
    if kind == "huge":  # above the largest id a node key holds
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from([2**62, 2**63, 10**20]))
    else:
        fields[draw(st.integers(0, 2))] = -draw(st.integers(1, 10**6))
    return "\t".join(map(str, fields)), ("bad", None)


@st.composite
def interaction_files(draw, bad=False):
    """`(text, labels)`: a random interaction file and the label of each of its
    lines, in order; with `bad=True` at least one line is bad."""
    lines = draw(st.lists(_file_line(), max_size=30))
    if bad:
        lines.insert(draw(st.integers(0, len(lines))), draw(
            _file_line().filter(lambda line: line[1][0] == "bad")
        ))
    text = "\n".join(line for line, _ in lines) + draw(st.sampled_from(["", "\n"]))
    return text, [label for _, label in lines]


# -- texts for the `key = value` and pair-file readers -------------------------

_NUMBER_TEXT = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from([str(2**62), str(2**63), "99999999999999999999", "-0", " 7 "]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.lists(_NUMBER_TEXT, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", ",", "1,,2", "x", "1.5e3", "0x10", "true"]),
    st.text(max_size=8),
)


@st.composite
def key_value_texts(draw, keys):
    """Files of `key = value` lines over `keys` plus an unknown key, with
    numbers of every range, lists, garbage, comments and lines without `=`."""
    line = st.one_of(
        st.builds(
            "{} = {}".format, st.sampled_from([*keys, "bogus"]), _VALUE_TEXT
        ),
        st.sampled_from(["", "# comment", "  ", "no equals sign", "=", "= 1"]),
        st.text(max_size=12),
    )
    return "\n".join(draw(st.lists(line, max_size=14)))


@st.composite
def spec_texts(draw):
    """Synth spec files: the four required keys, each with a valid value or
    one from `_VALUE_TEXT`, a few optional keys, maybe a junk line, in any
    order."""
    required = {
        "num_domains": "2",
        "users_per_domain": "4",
        "items_per_domain": "4",
        "interactions_per_domain": "8",
    }
    lines = [f"{k} = {draw(st.one_of(st.just(v), _VALUE_TEXT))}" for k, v in required.items()]
    optional = st.sampled_from(
        ["overlap_fraction", "shared_dim", "specific_dim", "shared_weight", "affinity_gain",
         "anchor_specific_boost", "seed"]
    )
    lines += draw(st.lists(st.builds("{} = {}".format, optional, _VALUE_TEXT), max_size=3))
    lines += draw(st.lists(st.sampled_from(["# comment", "", "bogus = 1", "no equals"]), max_size=1))
    return "\n".join(draw(st.permutations(lines)))


_ID_TEXT = st.one_of(
    st.integers(-1, 9).map(str),
    st.sampled_from([str(2**62 - 1), str(2**62), str(2**63), "99999999999999999999"]),
    _NUMBER_TEXT,
)


@st.composite
def pair_texts(draw):
    """Pair-export files: lines of 6 tab-separated fields, each mostly valid
    but with ids and domains of every range, odd kinds and similarities, plus
    lines of other widths, comments and blank lines; some end in a newline."""
    six = st.tuples(
        _ID_TEXT,
        _ID_TEXT,
        st.sampled_from(["user", "item", "Item", ""]),
        _ID_TEXT,
        _ID_TEXT,
        st.one_of(st.floats(0.0, 1.0, exclude_min=True).map(repr), _NUMBER_TEXT),
    )
    line = st.one_of(
        six.map("\t".join),
        st.lists(_ID_TEXT, max_size=8).map("\t".join),
        st.sampled_from(["", "# comment"]),
    )
    return "\n".join(draw(st.lists(line, max_size=6))) + draw(st.sampled_from(["", "\n"]))
