import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingsl import tensor as T
from ingsl.errors import (
    DegenerateRowError,
    DomainError,
    NumericError,
    RankError,
    ShapeError,
    StateError,
)

from oracles import matmul_triple_loop


class TestMatmul:
    def test_identity(self):
        a = T.constant(np.eye(2))
        b = T.constant([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.matmul(a, b).data, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        out = T.matmul(T.constant([[1.0, 2.0]]), T.constant([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-10, 10, (5, 4))
        b = rng.uniform(-10, 10, (4, 3))
        got = T.matmul(T.constant(a), T.constant(b)).data
        assert np.abs(got - matmul_triple_loop(a, b)).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_triple_loop_property(self, seed, n, k, m):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-10, 10, (n, k))
        b = rng.uniform(-10, 10, (k, m))
        got = T.matmul(T.constant(a), T.constant(b)).data
        assert np.abs(got - matmul_triple_loop(a, b)).max() < 1e-12


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_relu_definition(self):
        out = T.relu(T.constant([-3.0, 3.0]))
        assert out.data.tolist() == [0.0, 3.0]

    def test_sigmoid_gradient_at_zero(self):
        x = T.parameter(np.zeros((2, 2)))
        err = T.gradient_check(lambda p: T.sum_all(T.sigmoid(p)), [x])
        assert err < 1e-6
        with T.Tape() as tape:
            loss = T.sum_all(T.sigmoid(x))
            T.backward(loss, tape)
        assert np.allclose(x.grad, 0.25, atol=1e-15)

    def test_log_domain_error_reports_index(self):
        with pytest.raises(DomainError, match="index 2"):
            T.log(T.constant([1.0, 2.0, -1.0]))

    def test_relu_derivative_zero_at_kink(self):
        x = T.parameter([0.0, 1.0])
        with T.Tape() as tape:
            loss = T.sum_all(T.relu(x))
            T.backward(loss, tape)
        assert x.grad.tolist() == [0.0, 1.0]

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            T.exp(T.constant([1000.0]))


class TestRowNormalize:
    def test_three_four_five(self):
        out = T.row_l2_normalize(T.constant([[3.0, 4.0]]))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_unit_rows_unchanged(self):
        rows = np.array([[1.0, 0.0], [0.0, -1.0]])
        out = T.row_l2_normalize(T.constant(rows))
        assert np.allclose(out.data, rows, atol=1e-15)

    def test_random_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        out = T.row_l2_normalize(T.constant(x))
        norms = np.linalg.norm(out.data, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_degenerate_row_reports_index(self):
        with pytest.raises(DegenerateRowError, match="row 1"):
            T.row_l2_normalize(T.constant([[1.0, 0.0], [0.0, 0.0]]))

    def test_or_zero_variant_maps_dead_rows_to_zero(self):
        out = T.row_l2_normalize_or_zero(T.constant([[3.0, 4.0], [0.0, 0.0]]))
        assert np.allclose(out.data[0], [0.6, 0.8], atol=1e-15)
        assert not out.data[1].any()
        # gradient agrees with the strict op away from dead rows
        rng = np.random.default_rng(7)
        x = T.parameter(rng.uniform(0.5, 1.5, (4, 3)))
        weight = T.constant(np.arange(12.0).reshape(4, 3))
        err = T.gradient_check(
            lambda p: T.sum_all(T.mul(T.row_l2_normalize_or_zero(p), weight)), [x]
        )
        assert err < 1e-4
        # dead rows contribute exactly zero gradient
        y = T.parameter(np.array([[1.0, 2.0], [0.0, 0.0]]))
        with T.Tape() as tape:
            T.backward(T.sum_all(T.row_l2_normalize_or_zero(y)), tape)
        assert not y.grad[1].any()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.parameter(np.arange(6.0).reshape(2, 3))
        with T.Tape() as tape:
            T.backward(T.sum_all(x), tape)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_composite_layer_matches_finite_differences(self):
        # One aggregation + transform + relu + loss, checked coordinate-wise.
        rng = np.random.default_rng(2)
        adj = T.parameter(rng.uniform(0.2, 1.0, (4, 4)))
        x = T.parameter(rng.uniform(0.5, 1.5, (4, 3)))
        w = T.parameter(rng.uniform(0.2, 1.0, (3, 2)))

        def f(a, xx, ww):
            return T.sum_all(T.sigmoid(T.relu(T.matmul(T.matmul(a, xx), ww))))

        assert T.gradient_check(f, [adj, x, w]) < 1e-4

    def test_non_scalar_loss_rank_error(self):
        x = T.parameter([1.0, 2.0])
        with T.Tape() as tape:
            y = T.relu(x)
            with pytest.raises(RankError):
                T.backward(y, tape)

    def test_double_backward_state_error(self):
        x = T.parameter([1.0])
        with T.Tape() as tape:
            loss = T.sum_all(x)
            T.backward(loss, tape)
            with pytest.raises(StateError):
                T.backward(loss, tape)

    def test_backward_without_zeroing_state_error(self):
        x = T.parameter([1.0])
        with T.Tape() as tape:
            T.backward(T.sum_all(x), tape)
        with T.Tape() as tape2:
            loss2 = T.sum_all(x)
            with pytest.raises(StateError):
                T.backward(loss2, tape2)

    def test_loss_not_on_tape(self):
        x = T.parameter([1.0])
        with T.Tape() as tape:
            loss = T.sum_all(x)
        with T.Tape() as other:
            T.mul(x, 2.0)
            with pytest.raises(StateError):
                T.backward(loss, other)

    def test_each_node_visited_exactly_once(self):
        x = T.parameter(np.ones(3))
        with T.Tape() as tape:
            a = T.mul(x, 2.0)
            b = T.relu(a)
            c = T.add(a, b)  # "a" consumed twice; node still visited once
            loss = T.sum_all(c)
            n_nodes = len(tape)
            T.backward(loss, tape)
        assert tape.backward_visits == n_nodes
        assert np.array_equal(x.grad, np.full(3, 4.0))

    def test_shared_operand_accumulates(self):
        x = T.parameter([3.0])
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
            T.backward(loss, tape)
        assert x.grad[0] == 6.0

    def test_dead_branch_leaf_gets_zeros(self):
        x = T.parameter([-5.0])
        with T.Tape() as tape:
            T.backward(T.sum_all(T.relu(x)), tape)
        assert np.array_equal(x.grad, [0.0])


class TestGradientCheck:
    def test_identity_is_exact(self):
        # Zero up to the round-off of the central difference itself.
        x = T.parameter([[2.0]])
        assert T.gradient_check(lambda p: T.sum_all(p), [x]) < 1e-10

    def test_matmul_chain(self):
        rng = np.random.default_rng(3)
        a = T.parameter(rng.uniform(-1, 1, (4, 4)))
        b = T.parameter(rng.uniform(-1, 1, (4, 4)))
        err = T.gradient_check(lambda p, q: T.sum_all(T.matmul(p, q)), [a, b])
        assert err < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(4)
        x = T.parameter(rng.uniform(0.15, 1.0, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3)))
        assert T.gradient_check(lambda p: T.sum_all(T.relu(p)), [x]) < 1e-6

    def test_step_bounds(self):
        x = T.parameter([1.0])
        with pytest.raises(DomainError):
            T.gradient_check(lambda p: T.sum_all(p), [x], step=1e-2)
        with pytest.raises(DomainError):
            T.gradient_check(lambda p: T.sum_all(p), [x], step=1e-9)

    def test_non_scalar_target_rank_error(self):
        x = T.parameter([1.0, 2.0])
        with pytest.raises(RankError):
            T.gradient_check(lambda p: T.relu(p), [x])

    _OPS = {
        "relu": lambda p: T.sum_all(T.relu(p)),
        "sigmoid": lambda p: T.sum_all(T.sigmoid(p)),
        "exp": lambda p: T.sum_all(T.exp(p)),
        "log": lambda p: T.sum_all(T.log(p)),
        "normalize": lambda p: T.sum_all(
            T.mul(T.row_l2_normalize(p), T.constant(np.arange(float(p.size)).reshape(p.shape)))
        ),
        "matmul": lambda p: T.sum_all(T.matmul(p, T.transpose(p))),
    }

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(sorted(_OPS)),
        st.integers(0, 2**31 - 1),
        st.integers(2, 4),
        st.integers(2, 4),
    )
    def test_random_inputs_battery(self, op, seed, rows, cols):
        # Inputs bounded away from relu kinks and log/normalize domains.
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.05, 1.0, (rows, cols))
        if op not in ("log", "normalize"):
            data = data * rng.choice([-1.0, 1.0], (rows, cols))
        x = T.parameter(data)
        assert T.gradient_check(self._OPS[op], [x], step=1e-5) < 1e-4


class TestStructureOps:
    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(5)
        offs = np.array([0, 2, 3, 5])
        cols = np.array([1, 2, 0, 0, 2])
        vals = T.constant(rng.uniform(0.1, 1.0, 5))
        dense = T.constant(rng.normal(size=(3, 4)))
        full = np.zeros((3, 3))
        full[np.repeat(np.arange(3), np.diff(offs)), cols] = vals.data
        got = T.spmm(offs, cols, vals, dense).data
        assert np.abs(got - full @ dense.data).max() < 1e-12

    def test_spmm_gradients(self):
        rng = np.random.default_rng(6)
        offs = np.array([0, 2, 4, 6])
        cols = np.array([1, 2, 0, 2, 0, 1])
        vals = T.parameter(rng.uniform(0.1, 1.0, 6))
        dense = T.parameter(rng.normal(size=(3, 2)))
        weight = T.constant(np.arange(6.0).reshape(3, 2))

        def f(v, d):
            return T.sum_all(T.mul(T.spmm(offs, cols, v, d), weight))

        assert T.gradient_check(f, [vals, dense]) < 1e-4

    def test_segment_sum(self):
        x = T.constant([1.0, 2.0, 3.0, 4.0])
        out = T.segment_sum(x, [0, 1, 0, 2], 3)
        assert out.data.tolist() == [4.0, 2.0, 4.0]

    def test_gather_and_pairs(self):
        x = T.constant(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(T.gather_rows(x, [2, 0]).data, x.data[[2, 0]])
        assert T.gather_pairs(x, [1, 2], [3, 0]).data.tolist() == [7.0, 8.0]
        with pytest.raises(DomainError):
            T.gather_rows(x, [3])

    def test_concat_and_reshape(self):
        a = T.constant([[1.0], [2.0]])
        b = T.constant([[3.0, 4.0], [5.0, 6.0]])
        assert T.concat_cols(a, b).data.shape == (2, 3)
        assert T.concat_vec(T.constant([1.0]), T.constant([2.0, 3.0])).data.tolist() == [1.0, 2.0, 3.0]
        assert T.reshape(b, (4,)).data.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_binary_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.constant([1.0]), T.constant([1.0, 2.0]))


class TestFiniteOutputs:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_forward_finite_for_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = T.constant(rng.uniform(-5, 5, (3, 3)))
        y = T.constant(rng.uniform(0.1, 5, (3, 3)))
        for out in (
            T.relu(x),
            T.sigmoid(x),
            T.exp(x),
            T.log(y),
            T.matmul(x, y),
            T.row_l2_normalize(y),
        ):
            assert np.isfinite(out.data).all()
