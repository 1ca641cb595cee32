"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is written with dense matrices and explicit loops, on purpose:
these implementations must not share code paths with the library.
"""

import numpy as np
from hypothesis import strategies as st

from edda.mdgraph import NodeId, NodeKind
from edda.synthgen import SynthError, _allocate_ids


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
            rows = {n: model.intra[d].row(n) for n in graph.node_ids()}
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
            reps_inter = {n: model.inter.row(n) for n in dataset.all_nodes}
        else:
            for d, graph in enumerate(dataset.domains):
                rows = {n: model.inter.row(n) for n in graph.node_ids()}
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
                model.intra[d].row(p.source) @ model.proj[d]
                - model.intra[d_prime].row(p.target) @ model.proj[d_prime]
            )
            l_align += float(np.dot(diff, diff))

    reg = 0.0
    for _, arr in model.parameters():
        for value in arr.reshape(-1):
            reg += float(value) ** 2
    return l_bpr + cfg.beta * l_align + cfg.reg_lambda * reg


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


def generate_reference(spec):
    """`synthgen.generate` as first written, with the two references above.

    Returns `(records, intercepts, latents, forced)`: sorted (domain, user,
    item) tuples, the intercept per domain, the `write_dataset` latent arrays
    by name, and the number of coverage-forced cells per domain. Id
    allocation is the library's `_allocate_ids`, which this does not test.
    """
    rng = np.random.default_rng(spec.seed)
    domain_users, domain_items, n_users, n_items = _allocate_ids(spec)
    shared_user = rng.normal(size=(n_users, spec.shared_dim))
    shared_item = rng.normal(size=(n_items, spec.shared_dim))
    user_mult = np.zeros(n_users, dtype=np.int64)
    item_mult = np.zeros(n_items, dtype=np.int64)
    for d in range(spec.num_domains):
        user_mult[domain_users[d]] += 1
        item_mult[domain_items[d]] += 1
    latents = {
        "shared_user_ids": np.arange(n_users),
        "shared_user": shared_user,
        "shared_item_ids": np.arange(n_items),
        "shared_item": shared_item,
    }
    records, intercepts, forced_counts = [], [], []
    for d, budget in enumerate(spec.interactions()):
        u_ids, i_ids = domain_users[d], domain_items[d]
        n_u, n_i = len(u_ids), len(i_ids)
        if budget > n_u * n_i:
            raise SynthError(f"domain {d}: budget exceeds the number of pairs")
        if budget < max(n_u, n_i):
            raise SynthError(
                f"domain {d}: budget {budget} cannot cover {n_u} users and {n_i} items"
            )
        p_spec = rng.normal(size=(n_u, spec.specific_dim))
        q_spec = rng.normal(size=(n_i, spec.specific_dim))
        if spec.anchor_specific_boost != 1.0:
            p_spec[user_mult[u_ids] > 1] *= spec.anchor_specific_boost
            q_spec[item_mult[i_ids] > 1] *= spec.anchor_specific_boost
        latents[f"specific_user_ids_{d}"], latents[f"specific_user_{d}"] = u_ids, p_spec
        latents[f"specific_item_ids_{d}"], latents[f"specific_item_{d}"] = i_ids, q_spec

        shared_aff = shared_user[u_ids] @ shared_item[i_ids].T / np.sqrt(spec.shared_dim)
        spec_aff = p_spec @ q_spec.T / np.sqrt(spec.specific_dim)
        z = spec.affinity_gain * (
            spec.shared_weight * shared_aff + (1.0 - spec.shared_weight) * spec_aff
        )
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

_INT = st.integers(0, 10**6)


@st.composite
def _file_line(draw):
    """One line of an interaction file and what the loader must make of it:
    ("row", (d, u, i)), ("skip", None) or ("bad", None)."""
    d, u, i = draw(_INT), draw(_INT), draw(_INT)
    kind = draw(st.sampled_from(
        ["row", "extra", "comment", "indented", "blank", "spaces", "short", "word", "negative"]
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
