import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingsl import analysis
from ingsl.analysis import (
    BOUND_TOL,
    avg_pairwise_similarity,
    complexity_estimate,
    cone_points,
    lemma1_bound,
    lemma1_check,
    lemma2_check,
    redundancy_profile,
    sample_cone,
)
from ingsl.errors import ConfigError, DomainError, MetricError
from ingsl.gnn import spectral_norm

from oracles import (
    cone_sample_row,
    lemma1_margins_loop,
    lemma2_margins_loop,
    pairwise_cos_loop,
    redundancy_profile_argsort,
    softmax_ce,
)


class TestAvgPairwiseSimilarity:
    def test_identical_unit_vectors(self):
        v = np.array([[0.6, 0.8], [0.6, 0.8]])
        assert abs(avg_pairwise_similarity(v) - 1.0) < 1e-12

    def test_orthogonal_vectors(self):
        v = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert abs(avg_pairwise_similarity(v)) < 1e-15

    def test_matches_pair_loop_oracle(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(8, 3))
        assert abs(avg_pairwise_similarity(v) - pairwise_cos_loop(v)) < 1e-12

    def test_needs_two_vectors(self):
        with pytest.raises(MetricError):
            avg_pairwise_similarity(np.ones((1, 3)))

    def test_zero_row_rejected(self):
        with pytest.raises(MetricError):
            avg_pairwise_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestBoundFormula:
    def test_two_neighbors_full_similarity(self):
        assert lemma1_bound(2, 1.0) == 1.0

    def test_zero_eps(self):
        for n in (2, 5, 17):
            assert abs(lemma1_bound(n, 0.0) - (-1.0 / (n - 1))) < 1e-15

    def test_hand_evaluation(self):
        assert abs(lemma1_bound(10, 0.9) - 7.1 / 9.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma1_bound(1, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.floats(0.0, 0.98), st.floats(0.005, 0.02))
    def test_increasing_in_eps(self, n, eps, step):
        assert lemma1_bound(n, eps + step) > lemma1_bound(n, eps)


def _unit(v):
    return v / np.linalg.norm(v)


class TestConeSampler:
    @pytest.mark.parametrize("dim,n,eps", [(2, 1, 0.0), (3, 7, 0.5), (16, 50, 0.9), (32, 20, 1.0)])
    def test_matches_scalar_oracle(self, dim, n, eps):
        rng = np.random.default_rng([dim, n])
        anchor = _unit(rng.standard_normal(dim))
        c = rng.uniform(eps, 1.0, n)
        w = rng.standard_normal((n, dim))
        w[0] = 0.0  # degenerate direction: falls back to the anchor
        got = cone_points(anchor, c, w)
        want = np.stack([cone_sample_row(anchor, c[i], w[i]) for i in range(n)])
        assert np.abs(got - want).max() <= 1e-12

    def test_sampler_draws_c_then_w(self):
        anchor = _unit(np.array([1.0, -2.0, 0.5, 3.0]))
        got = sample_cone(np.random.default_rng(7), anchor, 0.3, 11)
        rng = np.random.default_rng(7)
        c = rng.uniform(0.3, 1.0, 11)
        w = rng.standard_normal((11, 4))
        assert np.array_equal(got, cone_points(anchor, c, w))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 32),
        st.integers(1, 50),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-10.0, 10.0), max_size=50),
    )
    def test_rows_unit_and_in_cone(self, dim, n, eps, seed, multiples):
        rng = np.random.default_rng(seed)
        anchor = _unit(rng.standard_normal(dim))
        c = rng.uniform(eps, 1.0, n)
        w = rng.standard_normal((n, dim))
        parallel = np.arange(min(n, len(multiples)))
        w[parallel] = np.outer(multiples[: parallel.size], anchor)
        u = cone_points(anchor, c, w)
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-12
        assert (u @ anchor).min() >= eps - 1e-12
        assert np.array_equal(u[parallel], np.tile(anchor, (parallel.size, 1)))

    def test_distribution(self):
        eps, draws = 0.3, 20000
        rng = np.random.default_rng(11)
        anchor = _unit(rng.standard_normal(6))
        u = sample_cone(rng, anchor, eps, draws)
        cos = u @ anchor
        width = 1.0 - eps
        mean, var = (1.0 + eps) / 2.0, width**2 / 12.0
        # Standard errors of the sample mean and variance of uniform[eps, 1].
        assert abs(cos.mean() - mean) < 5.0 * np.sqrt(var / draws)
        assert abs(cos.var() - var) < 5.0 * width**2 * np.sqrt((1 / 80 - 1 / 144) / draws)
        perp = u - np.outer(cos, anchor)
        assert np.abs(perp @ anchor).max() < 1e-12
        # The direction ⟂ anchor is isotropic, so its mean is near 0.
        assert np.linalg.norm(perp.mean(axis=0)) < 5.0 * np.sqrt((perp**2).sum(axis=1).mean() / draws)


class TestSimilarityFloor:
    def test_thousand_trials_no_violations(self):
        rep = lemma1_check(1000, seed=0)
        assert rep.trials == 1000
        assert rep.violations == 0
        assert rep.max_slack >= -1e-9

    def test_equality_case_all_neighbors_equal_anchor(self):
        # eps = 1 forces every neighbor onto the anchor: s_bar = bound = 1.
        v = np.tile(np.array([[0.0, 1.0, 0.0]]), (5, 1))
        assert abs(avg_pairwise_similarity(v) - lemma1_bound(5, 1.0)) < 1e-12

    def test_two_neighbors_zero_eps_bound(self):
        assert lemma1_bound(2, 0.0) == -1.0  # always satisfied by cosines

    def test_determinism(self):
        a = lemma1_check(50, seed=4)
        b = lemma1_check(50, seed=4)
        assert a.max_slack == b.max_slack and a.violations == b.violations

    def test_infeasible_range(self):
        with pytest.raises(ConfigError):
            lemma1_check(10, n_range=(1, 5), seed=0)
        with pytest.raises(ConfigError):
            lemma1_check(0, seed=0)


class TestLossChangeCeiling:
    def test_thousand_trials_no_violations(self):
        rep = lemma2_check(1000, seed=0)
        assert rep.violations == 0
        assert rep.max_slack >= -1e-9

    def test_identity_aggregation_zero_change(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=4)
        w = rng.normal(size=(4, 3))
        lhs = abs(softmax_ce(z @ w, 1) - softmax_ce(z @ w, 1))
        assert lhs == 0.0
        # eps = 1 makes the ceiling 0 as well
        assert 2.0 * np.linalg.norm(z) * spectral_norm(w) * np.sqrt(1.0 - 1.0) == 0.0

    def test_zero_classifier_both_losses_ln_c(self):
        z = np.array([1.0, -2.0, 0.5])
        w = np.zeros((3, 4))
        assert abs(softmax_ce(z @ w, 2) - np.log(4)) < 1e-12
        assert spectral_norm(w) == 0.0

    def test_determinism(self):
        a = lemma2_check(50, seed=9)
        b = lemma2_check(50, seed=9)
        assert a.max_slack == b.max_slack and a.violations == b.violations


LEMMA1_RANGES = {"dim_range": (2, 32), "n_range": (2, 50), "eps_range": (0.0, 0.99)}
LEMMA2_RANGES = {"dim_range": (2, 16), "class_range": (2, 8), "eps_range": (0.0, 0.99), "b_range": (0.1, 5.0)}


def block_margins(lemma: int, trials: int, seed: int, **ranges) -> np.ndarray:
    """Per-trial margins of the blocked evaluation, in trial order."""
    if lemma == 1:
        r = {**LEMMA1_RANGES, **ranges}
        blocks = analysis._lemma1_margins(trials, r["dim_range"], r["n_range"], r["eps_range"], seed)
    else:
        r = {**LEMMA2_RANGES, **ranges}
        blocks = analysis._lemma2_margins(
            trials, r["dim_range"], r["class_range"], r["eps_range"], r["b_range"], seed
        )
    return np.concatenate(list(blocks))


def assert_matches_trial_loop(lemma: int, trials: int, seed: int, max_neighbors: int = 8, **ranges):
    got = block_margins(lemma, trials, seed, **ranges)
    if lemma == 1:
        want = lemma1_margins_loop(trials, seed=seed, **{**LEMMA1_RANGES, **ranges})
        rep = lemma1_check(trials, seed=seed, **ranges)
    else:
        want = lemma2_margins_loop(
            trials, seed=seed, max_neighbors=max_neighbors, **{**LEMMA2_RANGES, **ranges}
        )
        rep = lemma2_check(trials, seed=seed, **ranges)
    assert got.shape == (trials,)
    assert np.abs(got - want).max() <= 1e-12
    assert rep.violations == np.count_nonzero(want < -BOUND_TOL)
    assert abs(rep.max_slack - want.min()) <= 1e-12


class TestLemmaBlocks:
    """Trials drawn one by one and evaluated in blocks against the one-trial-
    at-a-time loop in tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("lemma", [1, 2])
    def test_margins_match_trial_loop(self, lemma, seed):
        assert_matches_trial_loop(lemma, 250, seed)

    @pytest.mark.parametrize(
        "ranges",
        [
            {"n_range": (2, 2)},
            {"dim_range": (2, 2)},
            {"eps_range": (0.0, 0.0)},
            {"eps_range": (0.99, 0.99)},
            {"n_range": (2, 2), "dim_range": (2, 2), "eps_range": (0.99, 0.99)},
        ],
    )
    def test_lemma1_edge_ranges(self, ranges):
        for seed in (0, 1):
            assert_matches_trial_loop(1, 120, seed, **ranges)

    @pytest.mark.parametrize(
        "ranges",
        [
            {"dim_range": (2, 2)},
            {"class_range": (2, 2)},
            {"eps_range": (0.0, 0.0)},
            {"eps_range": (0.99, 0.99)},
            {"dim_range": (2, 2), "class_range": (2, 2), "eps_range": (0.99, 0.99)},
        ],
    )
    @pytest.mark.parametrize("max_neighbors", [1, 8])
    def test_lemma2_edge_ranges(self, monkeypatch, ranges, max_neighbors):
        monkeypatch.setattr(analysis, "_LEMMA2_MAX_NEIGHBORS", max_neighbors)
        for seed in (0, 1):
            assert_matches_trial_loop(2, 120, seed, max_neighbors, **ranges)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
        st.integers(2, 12).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 12))),
        st.integers(2, 12).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 20))),
        st.floats(0.0, 1.0).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo, 1.0))),
        st.floats(0.01, 5.0).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo, 10.0))),
        st.sampled_from([1 << 4, 1 << 9, analysis._BLOCK_CELLS]),
    )
    def test_any_ranges_and_block_size_match_trial_loop(
        self, lemma, trials, seed, dims, counts, eps, b, cells
    ):
        if lemma == 1:
            ranges = {"dim_range": dims, "n_range": counts, "eps_range": eps}
        else:
            ranges = {"dim_range": dims, "class_range": counts, "eps_range": eps, "b_range": b}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BLOCK_CELLS", cells)
            assert_matches_trial_loop(lemma, trials, seed, **ranges)

    def test_peak_memory_stays_at_block_size(self):
        # Evaluating all 10000 trials at once would hold arrays of about
        # 10000 x 26 x 32 cells (66 MB each); blocks keep the peak below
        # 16 arrays of the block budget whatever the trial count.
        lemma1_check(10, seed=0)
        tracemalloc.start()
        try:
            lemma1_check(10000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * analysis._BLOCK_CELLS


class TestNanMargins:
    """A NaN or infinite margin fails the check: no comparison or minimum
    may drop it."""

    def test_nan_margin_is_a_violation_and_the_worst_slack(self):
        def margins(trials, seed):
            yield np.array([0.1, np.nan])
            yield np.array([-1.0, np.inf])

        rep = analysis._run_lemma(margins, 4, 0)
        assert rep.violations == 3 and np.isnan(rep.max_slack)

    def test_overflowing_trials_are_violations(self):
        # At B = 1e308 every ceiling overflows to inf, so each of the 50
        # margins is +inf, or NaN where the loss change is not finite either.
        with np.errstate(all="ignore"):
            rep = lemma2_check(50, b_range=(1e308, 1e308), seed=0)
        assert rep.violations == 50 and np.isnan(rep.max_slack)


INFEASIBLE_RANGES = [
    (lemma1_check, "dim_range", (5, 3)),
    (lemma1_check, "n_range", (9, 4)),
    (lemma1_check, "eps_range", (0.6, 0.2)),
    (lemma2_check, "dim_range", (5, 3)),
    (lemma2_check, "class_range", (6, 2)),
    (lemma2_check, "eps_range", (0.6, 0.2)),
    (lemma2_check, "eps_range", (0.5, 1.5)),
    (lemma2_check, "b_range", (3.0, 1.0)),
]


@pytest.mark.parametrize(
    "check,name,bounds",
    INFEASIBLE_RANGES,
    ids=[f"{c.__name__}-{n}-{b[0]}-{b[1]}" for c, n, b in INFEASIBLE_RANGES],
)
def test_infeasible_sampling_range_is_config_error_naming_it(check, name, bounds):
    with pytest.raises(ConfigError, match=f"infeasible {name} "):
        check(10, seed=0, **{name: bounds})


class TestRedundancyProfile:
    def test_identical_rows_profile_one(self):
        e = np.tile(np.array([[1.0, 2.0]]), (6, 1))
        for k, v in redundancy_profile(e, [2, 3, 5]):
            assert abs(v - 1.0) < 1e-12

    def test_orthogonal_rows_profile_zero(self):
        e = np.eye(5)
        for k, v in redundancy_profile(e, [2, 3]):
            assert abs(v) < 1e-15

    def test_clustered_embeddings_weakly_decreasing(self):
        rng = np.random.default_rng(2)
        centers = np.eye(4)
        e = np.vstack([c + rng.normal(scale=0.05, size=(6, 4)) for c in centers])
        profile = redundancy_profile(e, [2, 5, 12, 20])
        values = [v for _, v in profile]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(4, 30), st.integers(1, 3))
    def test_matches_full_argsort_oracle_under_ties(self, seed, n, d):
        # Low-resolution integer rows tie often, at the top-k boundary and
        # inside it, so the order of the selected columns matters for every
        # k below the largest.
        rng = np.random.default_rng(seed)
        e = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        e[rng.integers(0, n)] = 0.0
        kept = int((np.linalg.norm(e, axis=1) >= 1e-12).sum())
        if kept < 3:
            return
        k_values = sorted({1, 2, (kept + 1) // 2, kept - 1})
        got = redundancy_profile(e, k_values)
        want = redundancy_profile_argsort(e, k_values)
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert (np.isnan(a) and np.isnan(b)) or abs(a - b) <= 1e-12

    def test_invariant_under_row_rescaling(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(10, 4))
        scales = rng.uniform(0.1, 10.0, 10)
        a = redundancy_profile(e, [2, 4])
        b = redundancy_profile(e * scales[:, None], [2, 4])
        for (_, va), (_, vb) in zip(a, b):
            assert abs(va - vb) < 1e-9

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            redundancy_profile(np.eye(4), [4])

    def test_empty_k_values_is_config_error_naming_them(self):
        with pytest.raises(ConfigError, match=r"k values .*got \[\]"):
            redundancy_profile(np.eye(4), [])

    def test_zero_rows_left_out(self):
        # A zero row is neither a node nor anyone's neighbor: the profile is
        # the profile over the other rows, exactly.
        rng = np.random.default_rng(4)
        e = rng.normal(size=(8, 3))
        with_zeros = np.insert(e, [0, 5], 0.0, axis=0)
        assert redundancy_profile(with_zeros, [2, 3, 7]) == redundancy_profile(e, [2, 3, 7])

    def test_k_bound_counts_non_zero_rows(self):
        e = np.vstack([np.eye(4), np.zeros((2, 4))])
        assert len(redundancy_profile(e, [3])) == 1
        with pytest.raises(ConfigError, match="non-zero rows"):
            redundancy_profile(e, [4])


class TestComplexityEstimate:
    def test_formula_collapse(self):
        assert complexity_estimate(7, 3, 0, 0.0, 0, 0) == 7 * 3 * (3 + 1)

    def test_doubling_m_doubles_second_term(self):
        base = complexity_estimate(10, 4, 0, 0.3, 2, 8)
        one = complexity_estimate(10, 4, 6, 0.3, 2, 8) - base
        two = complexity_estimate(10, 4, 12, 0.3, 2, 8) - base
        assert two == 2 * one

    def test_hand_evaluation(self):
        # n*d*(d+b+L*d+1) = 100*8*75 = 60000; m*(L*r*d+d+1) = 500*17 = 8500
        assert complexity_estimate(100, 8, 500, 0.5, 2, 50) == 68500.0

    def test_monotone_in_each_argument(self):
        base = complexity_estimate(10, 4, 20, 0.5, 2, 8)
        assert complexity_estimate(11, 4, 20, 0.5, 2, 8) >= base
        assert complexity_estimate(10, 5, 20, 0.5, 2, 8) >= base
        assert complexity_estimate(10, 4, 21, 0.5, 2, 8) >= base
        assert complexity_estimate(10, 4, 20, 0.6, 2, 8) >= base
        assert complexity_estimate(10, 4, 20, 0.5, 3, 8) >= base
        assert complexity_estimate(10, 4, 20, 0.5, 2, 9) >= base

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            complexity_estimate(-1, 1, 1, 0.5, 1, 1)
        with pytest.raises(ConfigError):
            complexity_estimate(1, 1, 1, 1.0, 1, 1)
