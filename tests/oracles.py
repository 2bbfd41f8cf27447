"""Independent brute-force oracles used to freeze expected values.

Each oracle deliberately avoids the implementation path it checks: matrix
products by explicit triple loops, normalization via dense matrices, losses
via direct softmax, selections via full sorts. The two ``*_composed``
losses are the compositions of tape ops that the fused loss ops replaced.
"""

import math

import numpy as np


def matmul_triple_loop(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def sddmm_loop(rows, cols, u, v):
    """out[e] = sum_t u[rows[e], t] * v[cols[e], t], one edge at a time."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(len(rows))
    for e, (i, j) in enumerate(zip(rows, cols)):
        acc = 0.0
        for t in range(u.shape[1]):
            acc += u[i, t] * v[j, t]
        out[e] = acc
    return out


def dense_normalize(adj_dense):
    """D^(-1/2) (A + I) D^(-1/2) with D_ii = 1 + sum_j A_ij."""
    adj_dense = np.asarray(adj_dense, dtype=np.float64)
    n = adj_dense.shape[0]
    deg = 1.0 + adj_dense.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    return dinv[:, None] * (adj_dense + np.eye(n)) * dinv[None, :]


def softmax_ce(logits_row, label):
    """Direct softmax-then-log cross entropy for one node (no LSE trick)."""
    e = np.exp(np.asarray(logits_row, dtype=np.float64))
    p = e / e.sum()
    return -math.log(p[label])


def ce_mean(logits, labels, idx):
    return float(np.mean([softmax_ce(logits[i], labels[i]) for i in idx]))


def topk_brute(sim_row, k, self_idx):
    """Indices of the k largest entries excluding self, ties to smaller j."""
    pairs = [(-v, j) for j, v in enumerate(sim_row) if j != self_idx]
    pairs.sort()
    return sorted(j for _, j in pairs[:k])


def topk_candidates_argsort(base, k):
    """Candidate selection by a full stable argsort of every negated
    similarity row (diagonal excluded, ties to the smaller column, NaN last),
    scored by the unblocked gather-multiply-sum. Returns the (n, k) sorted
    columns and the n*k edge values."""
    base = np.asarray(base, dtype=np.float64)
    n = base.shape[0]
    sim = base @ base.T
    np.fill_diagonal(sim, -np.inf)
    cols = np.sort(np.argsort(-sim, axis=1, kind="stable")[:, :k], axis=1)
    rows = np.repeat(np.arange(n), k)
    return cols, (base[rows] * base[cols.reshape(-1)]).sum(axis=1)


def kth_largest_lexsort(x, keep):
    """The keep-th entry of x ordered by value descending, then index."""
    x = np.asarray(x, dtype=np.float64)
    return float(x[np.lexsort((np.arange(x.size), -x))[keep - 1]])


def mi_naive(z_tilde, z, batch_ids):
    """Per-anchor loop over exp(cosine) ratios; positive always included."""
    z_tilde = np.asarray(z_tilde, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = z_tilde.shape[0]
    batch = set(int(b) for b in batch_ids)

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    total = 0.0
    for i in range(n):
        pos = math.exp(cos(z_tilde[i], z[i]))
        denom = sum(math.exp(cos(z_tilde[i], z[j])) for j in batch)
        if i not in batch:
            denom += pos
        total += -math.log(pos / denom)
    return total / n


def cross_entropy_composed(logits, rows, cols):
    """``tensor.softmax_cross_entropy`` as the composition of tape ops it
    replaces: gathered rows shifted by their detached max, then the mean of
    log-sum-exp minus the shifted logit of each target column."""
    from ingsl import tensor as T

    k = len(rows)
    sel = T.gather_rows(logits, rows)
    mx = sel.data.max(axis=1)
    shifted = T.sub(sel, T.constant(np.repeat(mx[:, None], sel.shape[1], axis=1)))
    lse = T.log(T.row_sum(T.exp(shifted)))
    true = T.gather_pairs(shifted, np.arange(k), cols)
    return T.mul(T.sum_all(T.sub(lse, true)), 1.0 / k)


def contrastive_composed(z_tilde, z, ids):
    """``tensor.contrastive_loss`` as the composition of tape ops it
    replaces: row-normalized views, positives by a row-wise dot, the batch
    cosines by a product with the transposed gathered rows."""
    from ingsl import tensor as T

    n = z_tilde.shape[0]
    zt = T.row_l2_normalize(z_tilde)
    zn = T.row_l2_normalize(z)
    pos = T.rowwise_dot(zt, zn)
    cos_batch = T.matmul(zt, T.transpose(T.gather_rows(zn, ids)))
    denom = T.row_sum(T.exp(cos_batch))
    outside = np.ones(n)
    outside[ids] = 0.0
    denom = T.add(denom, T.mul(T.exp(pos), T.constant(outside)))
    return T.mul(T.sum_all(T.sub(T.log(denom), pos)), 1.0 / n)


def adam_reference(params, grads_by_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Sequential textbook Adam over a list of per-step gradients."""
    p = np.array(params, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_by_step, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def pairwise_cos_loop(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            vi = vectors[i] / np.linalg.norm(vectors[i])
            vj = vectors[j] / np.linalg.norm(vectors[j])
            vals.append(float(vi @ vj))
    return float(np.mean(vals))


def edge_stats_loop(rows, cols, original_edges):
    """Directed (i, j) entries whose undirected pair is not an original edge,
    and the count of distinct undirected pairs among them, by a set lookup
    per entry."""
    original = {(int(i), int(j)) for i, j in original_edges}
    directed = 0
    undirected = set()
    for i, j in zip(rows, cols):
        pair = (int(i), int(j)) if i < j else (int(j), int(i))
        if pair not in original:
            directed += 1
            undirected.add(pair)
    return directed, len(undirected)


def cone_sample_row(anchor, c, w):
    """One cone point c*anchor + sqrt(1-c^2)*w_hat, w_hat being w projected
    ⟂ the unit anchor and normalised; the anchor when that projection is
    shorter than 1e-12."""
    w = np.array(w, dtype=np.float64)
    w -= (w @ anchor) * anchor
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        return anchor.copy()
    w /= norm
    return c * anchor + np.sqrt(max(0.0, 1.0 - c * c)) * w


def sbm_unblocked(block_sizes, p_in, p_out, feature_dim, feature_noise, seed):
    """Edges, features and (train, val, test) masks of a stochastic block
    model drawn over all of ``np.triu_indices`` in one call, the way
    ``graph.generate_sbm`` drew them before it worked in row blocks."""
    rng = np.random.default_rng(seed)
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.shape[0]) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)
    features = rng.normal(0.0, 1.0, size=(n, feature_dim)) * float(feature_noise)
    features[np.arange(n), labels % feature_dim] += 1.0
    masks = [np.zeros(n, bool) for _ in range(3)]
    for c in range(len(block_sizes)):
        ids = np.flatnonzero(labels == c)
        rng.shuffle(ids)
        n_tr = max(1, int(0.1 * ids.size))
        n_va = max(1, int(0.1 * ids.size))
        masks[0][ids[:n_tr]] = True
        masks[1][ids[n_tr : n_tr + n_va]] = True
        masks[2][ids[n_tr + n_va :]] = True
    return edges, features, tuple(masks)


def redundancy_profile_argsort(e, k_values):
    """Mean over non-zero rows of the pairwise cosine among each row's top-k
    cosine neighbours, ranked by a full stable argsort of every similarity
    row (ties to the smaller column) and averaged by ``pairwise_cos_loop``."""
    data = np.asarray(e, dtype=np.float64)
    data = data[np.linalg.norm(data, axis=1) >= 1e-12]
    unit = data / np.linalg.norm(data, axis=1)[:, None]
    sim = unit @ unit.T
    np.fill_diagonal(sim, -np.inf)
    order = np.argsort(-sim, axis=1, kind="stable")
    return [
        (k, float(np.mean([pairwise_cos_loop(data[row[:k]]) for row in order])))
        if k >= 2 else (k, float("nan"))
        for k in k_values
    ]


def _unit_sphere_draw(rng, dim):
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def lemma1_margins_loop(trials, dim_range=(2, 32), n_range=(2, 50), eps_range=(0.0, 0.99), seed=0):
    """Per-trial margins (mean pairwise cosine - (n*eps^2 - 1)/(n - 1)) of
    ``analysis.lemma1_check``, one trial at a time: the same draws from
    ``default_rng([seed, t])``, cone points by ``cone_sample_row`` and the
    mean over the upper triangle of the Gram matrix."""
    margins = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        eps = rng.uniform(eps_range[0], eps_range[1])
        anchor = _unit_sphere_draw(rng, dim)
        c = rng.uniform(eps, 1.0, n)
        w = rng.standard_normal((n, dim))
        u = np.stack([cone_sample_row(anchor, c[i], w[i]) for i in range(n)])
        unit = u / np.linalg.norm(u, axis=1)[:, None]
        observed = (unit @ unit.T)[np.triu_indices(n, k=1)].mean()
        margins.append(observed - (n * eps * eps - 1.0) / (n - 1.0))
    return np.array(margins)


def lemma2_margins_loop(
    trials, dim_range=(2, 16), class_range=(2, 8), eps_range=(0.0, 0.99), b_range=(0.1, 5.0),
    seed=0, max_neighbors=8,
):
    """Per-trial margins (2*B*||W_c||_2*sqrt(1 - eps) - |loss change|) of
    ``analysis.lemma2_check``, one trial at a time: the same draws from
    ``default_rng([seed, 1, t])``, cone points by ``cone_sample_row``, losses
    by ``softmax_ce`` and the norm from a full SVD."""
    margins = []
    for t in range(trials):
        rng = np.random.default_rng([seed, 1, t])
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        classes = int(rng.integers(class_range[0], class_range[1] + 1))
        n = int(rng.integers(1, max_neighbors + 1))
        eps = rng.uniform(eps_range[0], eps_range[1])
        b_norm = rng.uniform(b_range[0], b_range[1])
        rho = rng.uniform(0.0, 1.0) * b_norm
        anchor = _unit_sphere_draw(rng, dim)
        c = rng.uniform(eps, 1.0, n)
        w = rng.standard_normal((n, dim))
        neighbors = rho * np.stack([cone_sample_row(anchor, c[i], w[i]) for i in range(n)])
        weights = rng.uniform(0.0, 1.0, n)
        total = weights.sum()
        weights = np.full(n, 1.0 / n) if total <= 0 else weights / total
        z_next = weights @ neighbors
        z_i = rho * anchor
        w_c = rng.standard_normal((dim, classes))
        label = int(rng.integers(classes))
        lhs = abs(softmax_ce(z_next @ w_c, label) - softmax_ce(z_i @ w_c, label))
        norm = np.linalg.svd(w_c, compute_uv=False)[0]
        margins.append(2.0 * b_norm * norm * np.sqrt(1.0 - eps) - lhs)
    return np.array(margins)
