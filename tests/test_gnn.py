import numpy as np
import pytest

from ingsl import tensor as T
from ingsl.errors import ConfigError, NumericError, ShapeError
from ingsl.gnn import (
    GcnParams,
    TrainState,
    accuracy,
    adam_step,
    flops_estimate,
    gcn_forward,
    make_gcn_params,
    spectral_norm,
    task_loss,
)
from ingsl.graph import SparseAdjacency, normalize_adjacency
from test_graph import random_graph

from oracles import adam_reference, ce_mean, dense_normalize


def identity_adjacency(n):
    # Isolated nodes normalized: self-loops only, all weights 1.
    return SparseAdjacency(np.arange(n), np.arange(n), T.constant(np.ones(n)), n)


class TestForward:
    def test_identity_aggregation_is_relu(self):
        x = np.array([[1.0, -2.0], [-0.5, 3.0]])
        params = GcnParams([T.parameter(np.eye(2))])
        z, logits = gcn_forward(identity_adjacency(2), T.constant(x), params)
        assert np.array_equal(z.data, np.maximum(x, 0.0))
        assert logits is None

    def test_zero_features(self):
        rng = np.random.default_rng(0)
        params = make_gcn_params(rng, [3, 4, 4], 2)
        z, logits = gcn_forward(identity_adjacency(5), T.constant(np.zeros((5, 3))), params)
        assert not z.data.any() and not logits.data.any()

    def test_one_layer_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 8)
        dense = np.zeros((8, 8))
        for i, j in g.edges:
            dense[i, j] = dense[j, i] = 1.0
        a_hat = normalize_adjacency(g)
        x = rng.normal(size=(8, 4))
        w = rng.normal(size=(4, 3))
        z, _ = gcn_forward(a_hat, T.constant(x), GcnParams([T.parameter(w)]))
        want = np.maximum(dense_normalize(dense) @ x @ w, 0.0)
        assert np.abs(z.data - want).max() < 1e-12

    def test_dimension_mismatch(self):
        params = GcnParams([T.parameter(np.ones((3, 2)))])
        with pytest.raises(ShapeError):
            gcn_forward(identity_adjacency(4), T.constant(np.zeros((5, 3))), params)
        with pytest.raises(ShapeError):
            GcnParams([T.parameter(np.ones((3, 2))), T.parameter(np.ones((3, 2)))])

    def test_gradients_reach_params_features_and_edges(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6)
        a_hat = normalize_adjacency(g)
        values = T.parameter(a_hat.values.data.copy())
        adj = SparseAdjacency(a_hat.row_indices, a_hat.col_indices, values, 6)
        x = T.parameter(rng.uniform(0.5, 1.5, (6, 3)))
        params = make_gcn_params(rng, [3, 4, 4], 2)
        leaves = [values, x, *params.layer_weights, params.classifier]

        def f(*_):
            _, logits = gcn_forward(adj, x, params)
            return T.sum_all(T.sigmoid(logits))

        assert T.gradient_check(f, leaves) < 1e-4


class TestTaskLoss:
    def test_uniform_logits_ln_c(self):
        logits = T.constant(np.zeros((4, 5)))
        loss = task_loss(logits, np.array([0, 1, 2, 3]), np.ones(4, bool))
        assert abs(float(loss.data) - np.log(5)) < 1e-12

    def test_saturated_margin(self):
        logits = np.zeros((3, 4))
        labels = np.array([1, 2, 0])
        logits[np.arange(3), labels] = 1000.0
        loss = task_loss(T.constant(logits), labels, np.ones(3, bool))
        assert float(loss.data) < 1e-6

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, 5)
        mask = np.array([True, False, True, True, False])
        got = float(task_loss(T.constant(logits), labels, mask).data)
        want = ce_mean(logits, labels, np.flatnonzero(mask))
        assert abs(got - want) < 1e-12

    def test_empty_mask(self):
        with pytest.raises(ConfigError):
            task_loss(T.constant(np.zeros((2, 2))), np.zeros(2, int), np.zeros(2, bool))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(scale=5, size=(6, 3))
            labels = rng.integers(0, 3, 6)
            assert float(task_loss(T.constant(logits), labels, np.ones(6, bool)).data) >= 0.0


class TestAccuracy:
    def test_one_hot_perfect(self):
        labels = np.array([2, 0, 1])
        logits = np.eye(3)[labels]
        assert accuracy(T.constant(logits), labels, np.ones(3, bool)) == 1.0

    def test_constant_logits_tie_break_to_class_zero(self):
        labels = np.array([0, 1, 0, 2])
        logits = np.ones((4, 3))
        got = accuracy(T.constant(logits), labels, np.ones(4, bool))
        assert got == 0.5  # class 0 frequency in the mask

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(20, 4))
        labels = rng.integers(0, 4, 20)
        mask = rng.random(20) < 0.6
        mask[0] = True
        want = np.mean(
            [float(np.argmax(logits[i]) == labels[i]) for i in np.flatnonzero(mask)]
        )
        assert accuracy(T.constant(logits), labels, mask) == want

    def test_empty_mask(self):
        with pytest.raises(ConfigError):
            accuracy(T.constant(np.zeros((2, 2))), np.zeros(2, int), np.zeros(2, bool))


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = T.parameter([1.0, -2.0])
        state = TrainState({"p": p})
        adam_step(state, {"p": np.zeros(2)}, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        g = np.array([0.3, -0.7, 2.0])
        p = T.parameter(np.zeros(3))
        state = TrainState({"p": p})
        adam_step(state, {"p": g}, lr=0.05)
        want = adam_reference(np.zeros(3), [g], lr=0.05)
        assert np.abs(p.data - want).max() < 1e-15
        # bias-corrected first step is -lr * g/(|g| + eps) ~ -lr*sign(g)
        assert np.abs(p.data + 0.05 * np.sign(g)).max() < 1e-6

    def test_two_steps_match_reference(self):
        rng = np.random.default_rng(6)
        p0 = rng.normal(size=(3, 2))
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        p = T.parameter(p0)
        state = TrainState({"p": p})
        adam_step(state, {"p": g1}, lr=0.01)
        adam_step(state, {"p": g2}, lr=0.01)
        want = adam_reference(p0, [g1, g2], lr=0.01)
        assert np.abs(p.data - want).max() < 1e-12

    def test_two_identical_steps_match_reference(self):
        rng = np.random.default_rng(7)
        p0 = rng.normal(size=4)
        g = rng.normal(size=4)
        p = T.parameter(p0)
        state = TrainState({"p": p})
        adam_step(state, {"p": g}, lr=0.02)
        adam_step(state, {"p": g}, lr=0.02)
        want = adam_reference(p0, [g, g], lr=0.02)
        assert np.abs(p.data - want).max() < 1e-12

    def test_nan_gradient_aborts(self):
        state = TrainState({"p": T.parameter([1.0])})
        with pytest.raises(NumericError):
            adam_step(state, {"p": np.array([np.nan])}, lr=0.1)

    def test_shape_mismatch(self):
        state = TrainState({"p": T.parameter([1.0, 2.0])})
        with pytest.raises(ShapeError):
            adam_step(state, {"p": np.zeros(3)}, lr=0.1)


class TestFlops:
    def test_zero_edges_pure_dense(self):
        dims = [7, 5, 3]
        assert flops_estimate(0, dims, 10) == 2 * 10 * 7 * 5 + 2 * 10 * 5 * 3

    def test_halving_m_strictly_decreases(self):
        dims = [7, 5, 3]
        assert flops_estimate(50, dims, 10) < flops_estimate(100, dims, 10)

    def test_reduction_ratio_matches_hand_formula(self):
        dims = [8, 4]
        full = flops_estimate(200, dims, 20)
        half = flops_estimate(100, dims, 20)
        # hand: 2*m*8 + 2*20*8*4 -> (3200 + 1280) vs (1600 + 1280)
        assert full == 4480 and half == 2880

    def test_linear_in_m(self):
        dims = [6, 6, 2]
        base = flops_estimate(0, dims, 9)
        slope = flops_estimate(1, dims, 9) - base
        for m in (3, 17, 40):
            assert flops_estimate(m, dims, 9) == base + slope * m


class TestSpectralNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(7)
        for shape in ((4, 4), (6, 3), (2, 8)):
            w = rng.normal(size=shape)
            want = np.linalg.svd(w, compute_uv=False)[0]
            assert abs(spectral_norm(w) - want) < 1e-8

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError):
                spectral_norm(np.array([[1.0, bad], [0.0, 2.0]]))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 4, 5, 3))
        w[1, 2] = 0.0
        got = spectral_norm(w)
        assert got.shape == (2, 4)
        assert got[1, 2] == 0.0
        for i in np.ndindex(2, 4):
            assert abs(got[i] - spectral_norm(w[i])) <= 1e-12 * max(got[i], 1.0)

    def test_stack_of_padded_matrices_keeps_each_norm(self):
        # Zero rows and columns add only zero singular values.
        rng = np.random.default_rng(6)
        mats = [rng.normal(size=(int(rng.integers(2, 17)), int(rng.integers(2, 9)))) for _ in range(40)]
        stack = np.zeros((40, 16, 8))
        for s, m in zip(stack, mats):
            s[: m.shape[0], : m.shape[1]] = m
        got = spectral_norm(stack)
        for g, m in zip(got, mats):
            assert abs(g - spectral_norm(m)) <= 1e-12 * g

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            spectral_norm(np.ones(3))

    def test_exact_on_random_shapes(self):
        # Power iteration with an absolute stopping rule understated this by
        # up to 2e-3 relative on such matrices; the norm must be exact.
        rng = np.random.default_rng(11)
        for _ in range(300):
            shape = tuple(int(d) for d in rng.integers(1, 17, size=2))
            w = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            got = spectral_norm(w)
            assert abs(got - np.linalg.svd(w, compute_uv=False)[0]) <= 1e-12 * got
            assert abs(got - np.sqrt(np.linalg.eigvalsh(w.T @ w)[-1])) <= 1e-12 * got
