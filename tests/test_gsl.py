import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingsl import gsl
from ingsl import tensor as T
from ingsl.errors import ConfigError, NumericError
from ingsl.gnn import GcnParams, make_gcn_params
from ingsl.gsl import (
    METRICS,
    _first_k,
    build_candidates,
    encode_structure,
    feature_smoothness,
    fuse_with_original,
)
from ingsl.graph import SparseAdjacency, generate_sbm, normalize_adjacency
from test_gnn import identity_adjacency
from test_graph import random_graph, tiny_graph

from oracles import dense_normalize, topk_brute, topk_candidates_argsort


def empty_adjacency(n):
    return SparseAdjacency([], [], T.constant(np.zeros(0)), n)


@st.composite
def tie_heavy_embeddings(draw):
    """Low-resolution integer embeddings drawn from a small pool of rows, so
    similarity rows tie often; some rows are zeroed and one may hold a NaN."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4))
    res = draw(st.sampled_from([1, 2, 50]))
    pool = draw(st.lists(
        st.lists(st.integers(-res, res), min_size=d, max_size=d), min_size=1, max_size=n
    ))
    pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    e = np.array([pool[i] for i in pick], dtype=np.float64)
    e[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    if draw(st.booleans()):
        e[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = np.nan
    return e, draw(st.integers(1, n - 1)), draw(st.sampled_from(METRICS))


class TestEncode:
    def test_degenerate_aggregation(self):
        x = np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 0.0]])
        params = GcnParams([T.parameter(np.eye(2)), T.parameter(np.eye(2))])
        e = encode_structure(identity_adjacency(3), T.constant(x), params)
        assert np.array_equal(e.data, np.maximum(x, 0.0))  # relu is idempotent

    def test_zero_features(self):
        rng = np.random.default_rng(0)
        params = make_gcn_params(rng, [3, 4, 4])
        e = encode_structure(identity_adjacency(4), T.constant(np.zeros((4, 3))), params)
        assert not e.data.any()

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 8)
        dense = np.zeros((8, 8))
        for i, j in g.edges:
            dense[i, j] = dense[j, i] = 1.0
        a_norm = dense_normalize(dense)
        x = rng.normal(size=(8, 3))
        params = make_gcn_params(rng, [3, 4, 4])
        e = encode_structure(normalize_adjacency(g), T.constant(x), params)
        h = np.maximum(a_norm @ x @ params.layer_weights[0].data, 0.0)
        want = np.maximum(a_norm @ h @ params.layer_weights[1].data, 0.0)
        assert np.abs(e.data - want).max() < 1e-12


class TestBuildCandidates:
    def test_orthonormal_tie_break_smallest_j(self):
        e = T.constant(np.eye(4))
        cand = build_candidates(e, 1)
        rows, cols = cand.pairs()
        # all off-diagonal products are 0: each row ties, picks smallest j != i
        assert cols.tolist() == [1, 0, 0, 0]
        assert np.allclose(cand.sparse.values.data, 0.0)

    def test_duplicate_pair_selects_each_other(self):
        e = np.full((4, 2), 0.1)
        e[0] = e[1] = [10.0, 0.0]
        cand = build_candidates(T.constant(e), 1)
        _, cols = cand.pairs()
        assert cols[0] == 1 and cols[1] == 0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(12, 4))
        cand = build_candidates(T.constant(e), 3)
        sim = e @ e.T
        rows, cols = cand.pairs()
        for i in range(12):
            got = sorted(cols[rows == i].tolist())
            assert got == topk_brute(sim[i], 3, i)

    def test_k_bounds(self):
        e = T.constant(np.ones((3, 2)))
        with pytest.raises(ConfigError):
            build_candidates(e, 3)
        with pytest.raises(ConfigError):
            build_candidates(e, 0)

    def test_cosine_metric(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(0.1, 1.0, (6, 3))
        cand = build_candidates(T.constant(e), 2, metric="cosine")
        unit = e / np.linalg.norm(e, axis=1)[:, None]
        sim = unit @ unit.T
        rows, cols = cand.pairs()
        for i in range(6):
            assert sorted(cols[rows == i].tolist()) == topk_brute(sim[i], 2, i)
        assert cand.sparse.values.data.max() <= 1.0 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(4, 30))
    def test_topk_correct_for_every_k(self, seed, n):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, 3))
        sim = e @ e.T
        for k in range(1, n):
            cand = build_candidates(T.constant(e), k)
            rows, cols = cand.pairs()
            for i in range(n):
                assert sorted(cols[rows == i].tolist()) == topk_brute(sim[i], k, i)

    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_embeddings())
    def test_matches_stable_argsort_oracle_under_ties(self, case):
        e, k, metric = case
        base = T.row_l2_normalize_or_zero(T.constant(e)).data if metric == "cosine" else e
        cols, values = topk_candidates_argsort(base, k)
        try:
            cand = build_candidates(T.constant(e), k, metric)
        except NumericError:  # a NaN row under "inner" scores NaN edges
            assert not np.isfinite(values).all()
        else:
            assert np.array_equal(cand.sparse.col_indices, cols.reshape(-1))
            # The same products, summed in the GEMM's order or the oracle's.
            assert np.all(np.abs(cand.sparse.values.data - values) <= 1e-12)
        # The selection alone, NaN similarities included.
        neg = -(base @ base.T)
        np.fill_diagonal(neg, np.inf)
        assert np.array_equal(np.sort(_first_k(neg, k), axis=1), cols)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, 5, 13])
    def test_row_blocks_match_stable_argsort_oracle(self, monkeypatch, rows_per_block):
        # Zero rows (tied at 0 with every column), a NaN row and tied integer
        # rows sit on both sides of the block edges.
        n, k = 13, 4
        base = np.random.default_rng(6).integers(-1, 2, size=(n, 3)).astype(np.float64)
        base[[2, 3, 9]] = 0.0
        base[5, 1] = np.nan
        monkeypatch.setattr(gsl, "_RANK_BLOCK", rows_per_block * n)
        cols, _ = topk_candidates_argsort(base, k)
        neg = -(base @ base.T)
        np.fill_diagonal(neg, np.inf)
        assert np.array_equal(np.sort(_first_k(neg, k), axis=1), cols)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_embeddings(), st.integers(1, 4))
    def test_row_blocks_match_stable_argsort_oracle_under_ties(self, case, rows_per_block):
        e, k, metric = case
        base = T.row_l2_normalize_or_zero(T.constant(e)).data if metric == "cosine" else e
        cols, _ = topk_candidates_argsort(base, k)
        neg = -(base @ base.T)
        np.fill_diagonal(neg, np.inf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gsl, "_RANK_BLOCK", rows_per_block * e.shape[0])
            assert np.array_equal(np.sort(_first_k(neg, k), axis=1), cols)

    def test_peak_memory_is_one_similarity(self):
        # The n x n similarity is the one quadratic array: ranking it a block
        # of rows at a time keeps the rest well under another n^2 of int64
        # (unblocked, the peak read 2.18 x 8 n^2 here).
        n = 600
        e = T.constant(np.random.default_rng(3).normal(size=(n, 16)))
        tracemalloc.start()
        try:
            build_candidates(e, 10, "cosine")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * n * n

    @pytest.mark.parametrize("cells", [0, 1 << 60], ids=["exact", "dense"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_mutual_pairs_share_one_value(self, monkeypatch, cells, metric):
        # select_threshold's tie rule relies on i->j and j->i scoring the
        # same bits, on either sddmm path. At this width a multithreaded
        # OpenBLAS GEMM of e with a copy of e is not symmetric; u @ u.T is.
        monkeypatch.setattr(T, "_DENSE_CELLS", cells)
        e = np.random.default_rng(9).normal(size=(60, 400))
        cand = build_candidates(T.constant(e), 12, metric)
        rows, cols = cand.pairs()
        where = {(i, j): p for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
        ij, ji = np.array([(p, where[j, i]) for (i, j), p in where.items() if (j, i) in where]).T
        values = cand.sparse.values.data.view(np.int64)
        assert ij.size > 100 and np.array_equal(values[ij], values[ji])

    @pytest.mark.parametrize("cells", [0, 1 << 60], ids=["exact", "dense"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_scores_are_the_ranked_similarities(self, monkeypatch, cells, metric):
        # Each kept entry scores the bits of the u u^T its row was ranked
        # from, on either path (test_mutual_pairs_share_one_value checks
        # the symmetry); at these sizes the default rule sends sddmm exact.
        e = T.constant(np.random.default_rng(2).normal(size=(150, 16)))
        k = 4
        assert not T._dense_pays(150, 150, 150 * k)
        monkeypatch.setattr(T, "_DENSE_CELLS", cells)
        cand = build_candidates(e, k, metric)
        b = T.row_l2_normalize_or_zero(e) if metric == "cosine" else e
        src, dst = cand.pairs()
        bits = cand.sparse.values.data.view(np.int64)
        assert np.array_equal(bits, (b.data @ b.data.T)[src, dst].view(np.int64))
        if cells:  # the dense sddmm forms the same symmetric product
            assert np.array_equal(bits, T.sddmm(src, dst, b, b).data.view(np.int64))

    def test_gradient_flows_into_kept_entries(self):
        rng = np.random.default_rng(4)
        e = T.parameter(rng.normal(size=(6, 3)))

        def f(p):
            cand = build_candidates(p, 2)
            return T.sum_all(cand.sparse.values)

        assert T.gradient_check(f, [e]) < 1e-4

    def test_additional_edge_accounting(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 10)
        e = rng.normal(size=(10, 3))
        cand = build_candidates(T.constant(e), 4)
        rows, cols = cand.pairs()
        original = set(map(tuple, g.edges.tolist()))
        additional = sum(
            1 for i, j in zip(rows, cols)
            if (min(i, j), max(i, j)) not in original
        )
        overlaps = sum(
            1 for i, j in zip(rows, cols)
            if (min(i, j), max(i, j)) in original
        )
        assert additional == 10 * 4 - overlaps


class TestObjective:
    def test_feature_smoothness(self):
        x = np.array([[0.0], [1.0], [3.0]])
        vals = T.constant(np.array([2.0, 1.0]))
        out = feature_smoothness(vals, np.array([0, 1]), np.array([1, 2]), x)
        # (2*1^2 + 1*2^2) / 2 = 3
        assert abs(float(out.data) - 3.0) < 1e-15


class TestFusion:
    def test_empty_candidates_recovers_original(self):
        # Same entries and value bits, on a small graph and the benchmark SBM.
        for g in (random_graph(np.random.default_rng(7), 6), generate_sbm([50] * 4, 0.1, 0.01, 8, 1.0, 0)):
            fused = fuse_with_original(g, empty_adjacency(g.n))
            want = normalize_adjacency(g)
            assert np.array_equal(fused.row_indices, want.row_indices)
            assert np.array_equal(fused.col_indices, want.col_indices)
            assert np.array_equal(fused.values.data.view(np.int64), want.values.data.view(np.int64))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        g = tiny_graph(
            n=5,
            edges=[(0, 1), (1, 2), (3, 4)],
            labels=[0, 1, 0, 1, 0],
            features=rng.normal(size=(5, 2)),
        )
        e = rng.uniform(0.1, 1.0, (5, 3))
        cand = build_candidates(T.constant(e), 2)
        fused = fuse_with_original(g, cand.sparse)

        a = np.zeros((5, 5))
        for i, j in g.edges:
            a[i, j] = a[j, i] = 1.0
        s = np.zeros((5, 5))
        rows, cols = cand.pairs()
        s[rows, cols] = cand.sparse.values.data
        assert np.abs(fused.to_dense() - dense_normalize(a + s)).max() < 1e-12

    def test_gradient_through_fusion(self):
        rng = np.random.default_rng(9)
        g = tiny_graph(
            n=5,
            edges=[(0, 1), (1, 2), (3, 4)],
            labels=[0, 1, 0, 1, 0],
            features=rng.normal(size=(5, 2)),
        )
        e = T.parameter(rng.uniform(0.3, 1.0, (5, 3)))

        def f(p):
            cand = build_candidates(p, 2)
            fused = fuse_with_original(g, cand.sparse)
            return T.sum_all(T.mul(fused.values, T.constant(np.arange(1.0, fused.nnz + 1.0))))

        assert T.gradient_check(f, [e]) < 1e-4
