import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingsl import tensor as T
from ingsl.errors import ConfigError, NumericError, ShapeError
from ingsl import pruning
from ingsl.gnn import (
    GcnParams,
    TrainState,
    accuracy,
    adam_step,
    gcn_forward,
    make_gcn_params,
    task_loss,
)
from ingsl.graph import Graph, SparseAdjacency, generate_sbm, normalize_adjacency
from ingsl.gsl import CandidateGraph, build_candidates, encode_structure, fuse_with_original
from ingsl.pruning import (
    KEEP_ALL,
    MODES,
    SCORER_KINDS,
    DiversityScorer,
    TrainConfig,
    diversity_scores,
    keep_count,
    make_scorer,
    mi_loss,
    prune,
    sample_batch,
    select_threshold,
    train_ingsl,
)

from oracles import edge_stats_loop, kth_largest_lexsort, mi_naive


def candidate_fixture(rng, n=10, k=3, h=4):
    e = T.constant(rng.normal(size=(n, h)))
    return build_candidates(e, k)


class TestDiversityScores:
    def test_identity_bilinear_is_inner_product(self):
        rng = np.random.default_rng(0)
        e = T.constant(rng.normal(size=(5, 3)))
        scorer = DiversityScorer("bilinear", {"scorer.bilinear": T.parameter(np.eye(3))})
        src, dst = np.array([0, 1, 2]), np.array([1, 2, 3])
        w = diversity_scores(e, src, dst, scorer)
        want = (e.data[src] * e.data[dst]).sum(axis=1)
        assert np.abs(w.data - want).max() < 1e-15

    def test_zero_embeddings_zero_scores(self):
        e = T.constant(np.zeros((4, 3)))
        src, dst = np.array([0, 1]), np.array([1, 2])
        rng = np.random.default_rng(1)
        for kind in ("bilinear", "mlp"):
            scorer = make_scorer(kind, 3, rng)
            assert not diversity_scores(e, src, dst, scorer).data.any()

    def test_bilinear_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(6, 4))
        w1 = rng.normal(size=(4, 4))
        scorer = DiversityScorer("bilinear", {"scorer.bilinear": T.parameter(w1)})
        src = np.array([0, 1, 2, 3, 4, 5, 0])
        dst = np.array([1, 2, 3, 4, 5, 0, 3])
        got = diversity_scores(T.constant(e), src, dst, scorer).data
        full = e @ w1 @ e.T
        assert np.abs(got - full[src, dst]).max() < 1e-12

    def test_mlp_shape_and_grads(self):
        rng = np.random.default_rng(3)
        e = T.parameter(rng.uniform(0.3, 1.0, (5, 3)))
        scorer = make_scorer("mlp", 3, rng)
        scorer.params["scorer.mlp_hidden"].data *= 3.0  # keep hidden pre-activations off the kink
        src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])
        out = diversity_scores(e, src, dst, scorer)
        assert out.shape == (3,)
        err = T.gradient_check(
            lambda *_: T.sum_all(diversity_scores(e, src, dst, scorer)),
            [e, *scorer.params.values()],
        )
        assert err < 1e-4

    def test_unpopulated_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_scorer("quadratic", 3, np.random.default_rng(0))


class TestPrune:
    def test_keep_all_sentinel(self):
        rng = np.random.default_rng(4)
        cand = candidate_fixture(rng)
        w = T.constant(rng.normal(size=cand.sparse.nnz))
        out = prune(cand, w, KEEP_ALL)
        x = cand.sparse.values.data * w.data
        assert out.nnz == cand.sparse.nnz
        assert np.abs(out.values.data - 1 / (1 + np.exp(-x))).max() < 1e-15

    def test_zero_product_at_zero_threshold(self):
        sparse = SparseAdjacency([0], [1], T.constant([0.0]), 2)
        cand = CandidateGraph(sparse=sparse)
        out = prune(cand, T.constant([5.0]), 0.0)
        assert out.nnz == 1 and out.values.data[0] == 0.5

    def test_survivors_match_direct_scan(self):
        rng = np.random.default_rng(5)
        cand = candidate_fixture(rng, n=10, k=5)  # 50 candidate edges
        w = T.constant(rng.normal(size=50))
        x = cand.sparse.values.data * w.data
        eps = float(np.median(x))
        out = prune(cand, w, eps)
        want = np.flatnonzero(x >= eps)
        rows, cols = out.directed_pairs()
        crows, ccols = cand.pairs()
        got_pairs = set(zip(rows.tolist(), cols.tolist()))
        want_pairs = {(int(crows[i]), int(ccols[i])) for i in want}
        assert got_pairs == want_pairs
        assert ((out.values.data > 0) & (out.values.data < 1)).all()

    def test_monotone_on_kept_set(self):
        # Larger kept product -> larger surviving weight.
        rng = np.random.default_rng(6)
        cand = candidate_fixture(rng, n=8, k=4)
        w = T.constant(rng.normal(size=32))
        x = cand.sparse.values.data * w.data
        eps = float(np.quantile(x, 0.4))
        out = prune(cand, w, eps)
        kept_x = x[x >= eps]
        order = np.argsort(kept_x)
        assert (np.diff(out.values.data[order]) >= 0).all()

    def test_misaligned_scores(self):
        rng = np.random.default_rng(7)
        cand = candidate_fixture(rng)
        with pytest.raises(ShapeError):
            prune(cand, T.constant(np.ones(cand.sparse.nnz + 1)), 0.0)

    def test_discarded_entries_get_zero_gradient(self):
        rng = np.random.default_rng(8)
        n, k = 6, 2
        vals = T.parameter(rng.uniform(0.2, 1.0, n * k))
        cols = np.sort(np.array([[(i + 1) % n, (i + 2) % n] for i in range(n)]), axis=1)
        sparse = SparseAdjacency(np.repeat(np.arange(n), k), cols.reshape(-1), vals, n)
        cand = CandidateGraph(sparse=sparse)
        w = T.parameter(rng.uniform(0.2, 1.0, n * k))
        x = vals.data * w.data
        eps = float(np.median(x))
        with T.Tape() as tape:
            out = prune(cand, w, eps)
            T.backward(T.sum_all(out.values), tape)
        discarded = np.flatnonzero(x < eps)
        assert discarded.size > 0
        assert not vals.grad[discarded].any()
        assert not w.grad[discarded].any()
        kept = np.flatnonzero(x >= eps)
        assert vals.grad[kept].all() and w.grad[kept].all()


class TestSelectThreshold:
    def test_r_zero_keeps_everything(self):
        x = np.array([3.0, -1.0, 2.0])
        eps = select_threshold(x, 0.0)
        assert eps == -1.0 and (x >= eps).sum() == 3

    def test_four_values_half(self):
        eps = select_threshold(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
        assert eps == 3.0
        assert (np.array([1.0, 2.0, 3.0, 4.0]) >= eps).sum() == 2

    def test_thousand_random_thirty_percent(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=1000)
        eps = select_threshold(x, 0.3)
        assert (x >= eps).sum() == 700
        assert eps == np.sort(x)[::-1][699]  # full sort cross-check

    def test_empty_and_bounds(self):
        with pytest.raises(ConfigError):
            select_threshold(np.array([]), 0.5)
        with pytest.raises(ConfigError):
            select_threshold(np.array([1.0]), 1.0)

    def test_deterministic_under_ties(self):
        x = np.array([2.0, 1.0, 2.0, 1.0])
        assert select_threshold(x, 0.5) == select_threshold(x.copy(), 0.5) == 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 200), st.floats(0.0, 0.99))
    def test_exact_survivor_count(self, seed, m, r):
        x = np.random.default_rng(seed).normal(size=m)
        eps = select_threshold(x, r)
        assert (x >= eps).sum() == keep_count(m, r)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]), min_size=1, max_size=40),
        st.floats(0.0, 0.99),
    )
    def test_equals_full_sort_under_ties(self, x, r):
        x = np.array(x)
        got = select_threshold(x, r)
        want = kth_largest_lexsort(x, keep_count(x.size, r))
        assert got == want or (np.isnan(got) and np.isnan(want))
        assert np.array_equal(x >= got, x >= want)

    def test_keep_count_boundaries(self):
        assert keep_count(60, 1 - 1 / 60) == 1  # float overshoot guarded
        assert keep_count(10, 0.1) == 9  # 0.9*10 floats to 9.000000000000002
        assert keep_count(4, 0.5) == 2
        assert keep_count(7, 0.0) == 7

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 100.0))
    def test_scale_invariance_of_survivor_set(self, seed, c):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=50)
        eps = select_threshold(x, 0.4)
        base = x >= eps
        scaled = (c * x) >= (c * eps)
        assert np.array_equal(base, scaled)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_reduction_nesting(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=80)
        r1, r2 = sorted(rng.uniform(0, 0.99, 2))
        s1 = set(np.flatnonzero(x >= select_threshold(x, r1)))
        s2 = set(np.flatnonzero(x >= select_threshold(x, r2)))
        assert s2 <= s1


class TestMiLoss:
    def test_orthonormal_closed_form(self):
        n = 5
        z = np.eye(n)
        loss = float(mi_loss(T.constant(z), T.constant(z), np.arange(n)).data)
        want = -math.log(math.e / (math.e + n - 1))
        assert abs(loss - want) < 1e-12

    def test_single_node_zero(self):
        # Zero up to log(exp(x)) round-off in the single-term softmax.
        z = np.array([[1.0, 2.0]])
        got = float(mi_loss(T.constant(z), T.constant(z), np.array([0])).data)
        assert abs(got) < 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(10)
        zt = rng.normal(size=(10, 4))
        z = rng.normal(size=(10, 4))
        ids = sample_batch(10, 5, np.random.default_rng(3))
        got = float(mi_loss(T.constant(zt), T.constant(z), ids).data)
        assert abs(got - mi_naive(zt, z, ids)) < 1e-12

    def test_batch_validation(self):
        z = T.constant(np.ones((3, 2)))
        with pytest.raises(ConfigError):
            mi_loss(z, z, np.arange(4))  # |B| > n
        with pytest.raises(ConfigError):
            mi_loss(z, z, np.array([0, 0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(1, 10))
    def test_nonnegative(self, seed, n, b):
        rng = np.random.default_rng(seed)
        zt = rng.normal(size=(n, 3)) + 0.1
        z = rng.normal(size=(n, 3)) + 0.1
        ids = sample_batch(n, min(b, n), rng)
        assert float(mi_loss(T.constant(zt), T.constant(z), ids).data) >= 0.0

    def test_gradients(self):
        rng = np.random.default_rng(12)
        zt = T.parameter(rng.uniform(0.3, 1.0, (6, 3)))
        z = T.parameter(rng.uniform(0.3, 1.0, (6, 3)))
        ids = np.array([1, 3, 5])
        assert T.gradient_check(lambda *_: mi_loss(zt, z, ids), [zt, z]) < 1e-4


class TestThresholdPruneComposition:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.9))
    def test_exact_survivor_count_through_prune(self, seed, r):
        rng = np.random.default_rng(seed)
        cand = candidate_fixture(rng, n=9, k=4)
        w = T.constant(rng.normal(size=cand.sparse.nnz))
        x = cand.sparse.values.data * w.data
        eps = select_threshold(x, r)
        out = prune(cand, w, eps)
        assert out.nnz == keep_count(cand.sparse.nnz, r)

    def test_gradient_of_total_loss_wrt_bilinear_weight(self):
        # Full objective on a <= 10-node instance with the kept set frozen.
        rng = np.random.default_rng(13)
        g = generate_sbm([4, 4], 0.8, 0.2, 3, 0.3, seed=2)
        a_hat = normalize_adjacency(g)
        x = T.constant(g.features)
        params_t = make_gcn_params(rng, [g.d, 4, 4], g.classes)
        params_s = make_gcn_params(rng, [g.d, 4, 4])
        scorer = make_scorer("bilinear", 4, rng)
        e0 = encode_structure(a_hat, x, params_s)
        cand0 = build_candidates(e0, 2)
        src, dst = cand0.pairs()
        w0 = diversity_scores(e0, src, dst, scorer)
        eps = select_threshold(cand0.sparse.values.data * w0.data, 0.5) - 1e-3
        ids = np.array([0, 3, 6])

        def f(*_):
            e = encode_structure(a_hat, x, params_s)
            cand = build_candidates(e, 2)
            s, t_ = cand.pairs()
            w = diversity_scores(e, s, t_, scorer)
            s_t = prune(cand, w, eps)
            adj_t = fuse_with_original(g, s_t, 1.0)
            z_t, logits = gcn_forward(adj_t, x, params_t)
            base = task_loss(logits, g.labels, g.train_mask)
            adj_f = fuse_with_original(g, cand.sparse, 1.0)
            z_f, _ = gcn_forward(adj_f, x, params_t)
            return T.add(base, T.mul(mi_loss(z_t, z_f, ids), 0.5))

        leaves = [scorer.params["scorer.bilinear"], params_s.layer_weights[0], params_t.layer_weights[0]]
        assert T.gradient_check(f, leaves) < 1e-4


def sparse_from_pairs(n, pairs):
    rows, cols = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    return SparseAdjacency(rows, cols, T.constant(np.ones(len(pairs))), n)


def graph_with_edges(n, edges):
    masks = np.arange(n) % 3
    return Graph(
        features=np.zeros((n, 2)),
        labels=np.zeros(n, dtype=np.int64),
        edges=sorted(edges),
        train_mask=masks == 0,
        val_mask=masks == 1,
        test_mask=masks == 2,
        classes=2,
    )


@st.composite
def pruned_and_original(draw):
    """Directed kept pairs and an undirected original edge set that holds
    all of their pairs, none of them, or a random mix."""
    n = draw(st.integers(3, 9))
    directed = draw(st.sets(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j])))
    touched = {(min(p), max(p)) for p in directed}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in touched]
    extra = draw(st.sets(st.sampled_from(others))) if others else set()
    kind = draw(st.sampled_from(["all_original", "all_new", "mixed"]))
    if kind == "all_original":
        edges = touched | extra
    elif kind == "all_new":
        edges = extra
    else:
        edges = draw(st.sets(st.sampled_from(sorted(touched)))) | extra if touched else extra
    return n, directed, edges


class TestEdgeStats:
    @settings(max_examples=300, deadline=None)
    @given(pruned_and_original())
    def test_matches_loop(self, case):
        n, directed, edges = case
        s = sparse_from_pairs(n, directed)
        g = graph_with_edges(n, edges)
        rows, cols = s.directed_pairs()
        assert pruning._edge_stats(s, g) == edge_stats_loop(rows, cols, g.edges)

    def test_hand_cases(self):
        mutual = [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2)]
        cases = [
            ([], [(0, 1)], (0, 0)),  # empty pruned graph
            (mutual, [(0, 1), (0, 2), (2, 3)], (0, 0)),  # all original
            (mutual, [], (5, 3)),  # all new; mutual pairs count once undirected
            (mutual, [(0, 2)], (4, 2)),
        ]
        for pairs, edges, want in cases:
            assert pruning._edge_stats(sparse_from_pairs(4, pairs), graph_with_edges(4, edges)) == want


FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_train_config_rejects_nan(name):
    # A config file cannot hold a NaN, but a library caller can pass one,
    # and every range check must fail it.
    with pytest.raises(ConfigError):
        TrainConfig(**{name: float("nan")})


class TestTraining:
    def small_graph(self):
        return generate_sbm([8, 8], 0.5, 0.05, 4, 0.3, seed=5)

    def config(self, **kw):
        base = dict(
            mode="ingsl", reduction=0.5, beta=0.5, seed=1,
            k=4, hidden=8, lr=1e-2, epochs=15, patience=8,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_repeat(self):
        g = self.small_graph()
        a = train_ingsl(g, self.config())
        b = train_ingsl(g, self.config())
        assert a.report.test_acc == b.report.test_acc
        assert np.array_equal(a.pruned.col_indices, b.pruned.col_indices)
        assert np.array_equal(a.pruned.row_indices, b.pruned.row_indices)
        assert np.array_equal(a.pruned.values.data, b.pruned.values.data)

    def test_all_modes_complete(self):
        g = self.small_graph()
        h = self.config().hidden
        shapes = {
            "bilinear": {"scorer.bilinear": (h, h)},
            "mlp": {"scorer.mlp_hidden": (2 * h, h), "scorer.mlp_out": (h, 1)},
        }
        runs = [("ingsl", kind) for kind in SCORER_KINDS]
        runs += [(mode, "bilinear") for mode in MODES if mode != "ingsl"]
        for mode, kind in runs:
            res = train_ingsl(g, self.config(mode=mode, scorer_kind=kind))
            rep = res.report
            # The report names the scorer's tensors as make_scorer does.
            got = {n: p.shape for n, p in res.params.items() if n.startswith("scorer.")}
            if mode == "ingsl":
                made = make_scorer(kind, h, np.random.default_rng(0)).params
                assert got == {n: p.shape for n, p in made.items()} == shapes[kind], kind
            else:
                assert not got, mode
            assert not res.pruned.values.requires_grad, mode
            assert 0.0 <= rep.test_acc <= 1.0
            assert rep.edges_candidate == g.n * 4
            if mode == "no_reduction":
                assert rep.edges_final == rep.edges_candidate
            else:
                assert rep.edges_final == keep_count(rep.edges_candidate, 0.5)

    def test_survivor_count_matches_reduction(self):
        g = self.small_graph()
        for r in (0.25, 0.5, 0.75):
            res = train_ingsl(g, self.config(reduction=r))
            assert res.report.edges_final == keep_count(g.n * 4, r)

    @pytest.mark.parametrize("epoch", [0, 1, 7])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_random_prune_keeps_the_epoch_draw(self, epoch, r):
        # random_prune keeps keep_count(m, r) distinct candidates drawn by the
        # generator (seed, 2, epoch), in candidate order. The benchmark's
        # recorded random_prune accuracies rest on this draw.
        g = self.small_graph()
        cfg = self.config(mode="random_prune", reduction=r, seed=4)
        params_s = make_gcn_params(np.random.default_rng(0), [g.d, 8, 8])
        x = T.constant(g.features)
        _, cand, s = pruning._structure_for_epoch(
            x, normalize_adjacency(g), params_s, None, cfg, epoch
        )
        m = cand.nnz
        draw = np.random.default_rng([cfg.seed, 2, epoch]).choice(m, keep_count(m, r), replace=False)
        want = np.sort(draw)
        rows, cols = cand.directed_pairs()
        got_rows, got_cols = s.directed_pairs()
        assert np.array_equal(got_rows, rows[want])
        assert np.array_equal(got_cols, cols[want])
        assert np.array_equal(s.values.data, cand.values.data[want])

    def test_random_prune_single_survivor_completes(self):
        g = self.small_graph()
        m = g.n * 2
        cfg = self.config(mode="random_prune", k=2, reduction=1 - 1 / m)
        rep = train_ingsl(g, cfg).report
        assert rep.edges_final == 1

    def test_smoothness_regularizer_trains(self):
        g = self.small_graph()
        res = train_ingsl(g, self.config(lam=0.5))
        base = train_ingsl(g, self.config())
        assert 0.0 <= res.report.test_acc <= 1.0
        # the regularizer changes the trajectory
        assert not np.array_equal(
            res.params["gnn_t.layer0"].data, base.params["gnn_t.layer0"].data
        )

    def test_zero_reduction_zero_beta_matches_reweighted_baseline(self, monkeypatch):
        # Independent re-orchestration: keep-all pruning with a frozen
        # identity scorer must reproduce the training trajectory of the base
        # loop with sigmoid(S_ij * <E_i, E_j>) edge weights, bit for bit. A
        # constant weight gets zero gradient, so Adam leaves it unchanged.
        # The exact sddmm kernel scores edges as the gather chain below does.
        monkeypatch.setattr(T, "_DENSE_CELLS", 0)
        identity = DiversityScorer("bilinear", {"scorer.bilinear": T.constant(np.eye(8))})
        monkeypatch.setattr(pruning, "make_scorer", lambda kind, h, rng: identity)
        g = self.small_graph()
        cfg = self.config(reduction=0.0, beta=0.0, epochs=4, patience=4)
        res = train_ingsl(g, cfg)

        seed = 1
        rng = np.random.default_rng([seed, 0])
        params_t = make_gcn_params(rng, [g.d, 8, 8], g.classes)
        params_s = make_gcn_params(rng, [g.d, 8, 8])
        named = {**params_t.named("gnn_t"), **params_s.named("gnn_s")}
        state = TrainState(dict(named))
        a_hat = normalize_adjacency(g)
        x = T.constant(g.features)
        for _ in range(4):
            with T.Tape() as tape:
                e = encode_structure(a_hat, x, params_s)
                cand = build_candidates(e, 4)
                src, dst = cand.pairs()
                w = T.rowwise_dot(T.gather_rows(e, src), T.gather_rows(e, dst))
                s_t = prune(cand, w, KEEP_ALL)
                adj_t = fuse_with_original(g, s_t, 1.0)
                _, logits = gcn_forward(adj_t, x, params_t)
                loss = task_loss(logits, g.labels, g.train_mask)
                T.backward(loss, tape)
            grads = {n: (p.grad if p.grad is not None else np.zeros(p.shape)) for n, p in state.params.items()}
            adam_step(state, grads, 1e-2)
            T.zero_grads(named.values())
        for name, p in named.items():
            assert np.array_equal(p.data, res.params[name].data), name
        assert np.array_equal(res.params["scorer.bilinear"].data, np.eye(8))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_epoch(self):
        g = self.small_graph()
        g_bad = Graph(
            features=np.full((g.n, 2), 1e308),
            labels=g.labels,
            edges=g.edges,
            train_mask=g.train_mask,
            val_mask=g.val_mask,
            test_mask=g.test_mask,
            classes=g.classes,
        )
        with pytest.raises(NumericError, match="epoch 0"):
            train_ingsl(g_bad, self.config())

    def test_best_epoch_params_restored(self):
        g = self.small_graph()
        res = train_ingsl(g, self.config())
        assert res.report.best_epoch < res.report.epochs_run
        assert set(res.params) >= {"gnn_t.layer0", "gnn_t.classifier", "gnn_s.layer0"}
        assert res.embeddings.shape == (g.n, 8)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("patience", [1, 3, 30])
    def test_best_epoch_replays(self, monkeypatch, mode, patience):
        # Validation is scored from the next epoch's forward; the restored
        # parameters must be those the best epoch's update left, and one
        # untaped forward on them must reproduce the reported best epoch. The
        # epoch argument seeds only random_prune's draw, which for the best
        # parameters is that of epoch best_epoch + 1.
        after_step = []
        real_adam = pruning.adam_step

        def recording_adam(state, grads, lr):
            real_adam(state, grads, lr)
            after_step.append({n: t.data.copy() for n, t in state.params.items()})
            return state

        monkeypatch.setattr(pruning, "adam_step", recording_adam)
        g = generate_sbm([10, 10, 10], 0.4, 0.05, 4, 1.0, seed=3)
        # Early stopping fires at patience 1 in every mode here.
        cfg = self.config(mode=mode, k=5, lr=5e-2, epochs=30, patience=patience)
        res = train_ingsl(g, cfg)
        rep = res.report
        assert len(after_step) == rep.epochs_run
        for name, data in after_step[rep.best_epoch].items():
            assert np.array_equal(res.params[name].data, data), name
        p = res.params
        params_s = GcnParams([p["gnn_s.layer0"], p["gnn_s.layer1"]])
        params_t = GcnParams([p["gnn_t.layer0"], p["gnn_t.layer1"]], p["gnn_t.classifier"])
        scorer = None
        if mode == "ingsl":
            scorer = DiversityScorer("bilinear", {"scorer.bilinear": p["scorer.bilinear"]})
        x = T.constant(g.features)
        e, _, s = pruning._structure_for_epoch(
            x, normalize_adjacency(g), params_s, scorer, cfg, rep.best_epoch + 1
        )
        _, logits = gcn_forward(fuse_with_original(g, s, cfg.residual_weight), x, params_t)
        assert accuracy(logits, g.labels, g.test_mask) == rep.test_acc
        assert s.nnz == rep.edges_final
        assert np.array_equal(s.col_indices, res.pruned.col_indices)
        assert np.array_equal(s.values.data, res.pruned.values.data)
        assert np.array_equal(e.data, res.embeddings)
        assert rep.epochs_run == cfg.epochs or rep.epochs_run - 1 - rep.best_epoch == patience

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("patience", [1, 30])
    def test_one_forward_per_epoch_and_one_after(self, monkeypatch, mode, patience):
        # Every mode scores epoch e - 1 from epoch e's taped forward, so a
        # cell runs epochs_run taped forwards plus the one that scores the
        # last epoch, whether or not early stopping ends it.
        calls = []
        real = pruning._structure_for_epoch

        def counting(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(pruning, "_structure_for_epoch", counting)
        g = generate_sbm([10, 10, 10], 0.4, 0.05, 4, 1.0, seed=3)
        cfg = self.config(mode=mode, k=5, lr=5e-2, epochs=30, patience=patience)
        rep = train_ingsl(g, cfg).report
        assert (rep.epochs_run < cfg.epochs) == (patience == 1)
        assert len(calls) == rep.epochs_run + 1

    @pytest.mark.parametrize(
        "mode,unreachable",
        [("ingsl", 0), ("similarity_only", 0), ("random_prune", 0), ("no_reduction", 0)],
    )
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_tape_holds_only_loss_nodes(self, monkeypatch, mode, unreachable, lam):
        # Scoring validation from the taped forward must record nothing on
        # the training tape, and ingsl's full-graph pass records no logits.
        counts = []
        real_backward = T.backward

        def counting_backward(loss, tape):
            needed = {id(loss)}
            dead = 0
            for node in reversed(tape.nodes):
                if id(node.output) in needed:
                    needed.update(id(t) for t in node.inputs)
                else:
                    dead += 1
            counts.append(dead)
            real_backward(loss, tape)

        monkeypatch.setattr(T, "backward", counting_backward)
        cfg = self.config(mode=mode, lam=lam, epochs=6, patience=6)
        train_ingsl(self.small_graph(), cfg)
        assert counts == [unreachable] * cfg.epochs

    @pytest.mark.parametrize("mode", MODES)
    def test_nothing_of_the_last_epoch_survives_into_the_next_forward(self, monkeypatch, mode):
        # When a forward starts, the previous taped epoch's tape, encoder
        # output and everything built from them have been freed.
        real = pruning._structure_for_epoch
        probes, alive = [], []

        def probing(*args):
            alive.append([p() is not None for p in probes])
            out = real(*args)
            if T.active_tape() is not None:
                probes[:] = [weakref.ref(T.active_tape()), weakref.ref(out[0].data)]
            return out

        monkeypatch.setattr(pruning, "_structure_for_epoch", probing)
        train_ingsl(self.small_graph(), self.config(mode=mode, epochs=4, patience=4))
        assert len(alive) >= 5 and not any(any(a) for a in alive)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad_epoch", [4, 9])
    def test_divergence_names_the_epoch_of_the_parameters(self, monkeypatch, mode, bad_epoch):
        # A NaN written by epoch t's update is met when epoch t is scored:
        # in epoch t + 1's forward, or in the final pass after the last
        # epoch. Each must name epoch t.
        real_adam = pruning.adam_step

        def poisoning_adam(state, grads, lr):
            real_adam(state, grads, lr)
            if state.step == bad_epoch + 1:
                state.params["gnn_t.layer0"].data[0, 0] = np.nan
            return state

        monkeypatch.setattr(pruning, "adam_step", poisoning_adam)
        cfg = self.config(mode=mode, epochs=10, patience=10)
        with pytest.raises(NumericError) as info:
            train_ingsl(self.small_graph(), cfg)
        msg = str(info.value)
        assert msg.startswith(f"training diverged at epoch {bad_epoch}: ")
        assert "\n" not in msg and msg.count("diverged") == 1
