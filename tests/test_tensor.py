import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ingsl import tensor as T
from ingsl.errors import (
    DegenerateRowError,
    DomainError,
    NumericError,
    RankError,
    ShapeError,
    StateError,
)
from ingsl.gnn import gcn_forward, make_gcn_params
from ingsl.graph import SparseAdjacency, generate_sbm
from ingsl.gsl import build_candidates

from oracles import matmul_triple_loop, sddmm_loop

# Values of the dense-path constant that send every spmm and sddmm call with
# at least one entry to the exact kernels, or to the GEMMs.
EXACT, DENSE = 0, 1 << 60


@pytest.fixture
def exact_path(monkeypatch):
    """Pin spmm and sddmm to the exact kernels, whatever the operand sizes."""
    monkeypatch.setattr(T, "_DENSE_CELLS", EXACT)


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


class TestMatmulRelu:
    @staticmethod
    def run(op, a0, w0, g):
        a, w = T.parameter(a0), T.parameter(w0)
        with T.Tape() as tape:
            out = op(a, w)
            T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
        return out.data, a.grad, w.grad

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_relu_of_matmul_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        a0, w0 = rng.normal(size=(7, 5)), rng.normal(size=(5, 6))
        if seed % 2:
            # Small integers: many products are exactly 0, where relu's
            # derivative is taken as 0.
            a0, w0 = np.round(a0 * 1.5), np.round(w0 * 1.5)
        a0[2] = 0.0
        g = rng.normal(size=(7, 6))
        fused = self.run(T.matmul_relu, a0, w0, g)
        chain = self.run(lambda a, w: T.relu(T.matmul(a, w)), a0, w0, g)
        assert (fused[0] == 0.0).any() and (fused[0] > 0.0).any()
        for x, y in zip(fused, chain):
            assert x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))

    def test_product_overflowing_to_minus_inf_raises(self):
        # The guard runs before the clamp, which would map -inf to 0.
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="^matmul_relu produced non-finite values$"):
                T.matmul_relu(T.constant([[1e200]]), T.constant([[-1e200]]))

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match=r"^matmul_relu: .*\(2, 3\).*\(2, 3\)"):
            T.matmul_relu(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="^matmul_relu requires 2-D"):
            T.matmul_relu(T.constant(np.ones(3)), T.constant(np.ones((3, 2))))

    def test_gcn_forward_tapes_no_pre_activation(self):
        rng = np.random.default_rng(0)
        adj = SparseAdjacency([0, 1, 1, 2], [1, 0, 2, 1], T.constant(np.full(4, 0.5)), 3)
        params = make_gcn_params(rng, [4, 5, 3], classes=2)
        with T.Tape() as tape:
            gcn_forward(adj, T.parameter(rng.normal(size=(3, 4))), params)
        assert [n.name for n in tape.nodes] == [
            "spmm", "matmul_relu", "spmm", "matmul_relu", "matmul"
        ]


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

    def test_objective_error_restores_the_perturbed_leaf(self):
        # The step below 5e-6 leaves log's domain; the error must not leave
        # the coordinate there.
        x = T.parameter([1.0, 5e-6])
        with pytest.raises(DomainError):
            T.gradient_check(lambda p: T.sum_all(T.log(p)), [x])
        assert np.array_equal(x.data, [1.0, 5e-6])

    def test_leaf_from_fortran_ordered_array_is_perturbed(self):
        # A leaf built from a transpose must still see every finite-difference
        # step; the values keep their logical layout.
        rng = np.random.default_rng(8)
        a = rng.uniform(-1.0, 1.0, (3, 4))
        x = T.parameter(a.T)
        assert x.data.flags.c_contiguous and np.array_equal(x.data, a.T)
        assert T.gradient_check(lambda p: T.sum_all(T.mul(p, p)), [x]) < 1e-8

    def test_fortran_ordered_leaves_in_an_op_row(self):
        # The weighted objective of a gradcheck battery row, on matmul.
        rng = np.random.default_rng(9)
        a = T.parameter(np.asfortranarray(rng.uniform(-1.0, 1.0, (4, 3))))
        b = T.parameter(rng.uniform(-1.0, 1.0, (2, 3)).T)
        w = T.constant(np.arange(1.0, 9.0).reshape(4, 2))
        err = T.gradient_check(lambda p, q: T.sum_all(T.mul(T.matmul(p, q), w)), [a, b])
        assert err < 1e-6

    def test_fortran_ordered_leaves_in_a_composite_check(self):
        from ingsl.gnn import gcn_forward, make_gcn_params, task_loss
        from ingsl.graph import normalize_adjacency

        g = generate_sbm([4, 4], 0.6, 0.1, 3, 0.5, 2)
        adj = normalize_adjacency(g)
        rng = np.random.default_rng(10)
        x = T.parameter(rng.uniform(0.5, 1.5, (3, g.n)).T)
        params = make_gcn_params(rng, [3, 4], 2)
        params.classifier = T.parameter(np.asfortranarray(params.classifier.data))
        mask = np.ones(g.n, dtype=bool)

        def f(*_):
            _, logits = gcn_forward(adj, x, params)
            return task_loss(logits, g.labels, mask)

        assert T.gradient_check(f, [x, *params.layer_weights, params.classifier]) < 1e-6

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
        rows = np.array([0, 0, 1, 2, 2])
        cols = np.array([1, 2, 0, 0, 2])
        vals = T.constant(rng.uniform(0.1, 1.0, 5))
        dense = T.constant(rng.normal(size=(3, 4)))
        full = np.zeros((3, 3))
        full[rows, cols] = vals.data
        got = T.spmm(rows, cols, vals, dense, 3).data
        assert np.abs(got - full @ dense.data).max() < 1e-12

    def test_spmm_gradients(self):
        rng = np.random.default_rng(6)
        rows = np.array([0, 0, 1, 1, 2, 2])
        cols = np.array([1, 2, 0, 2, 0, 1])
        vals = T.parameter(rng.uniform(0.1, 1.0, 6))
        dense = T.parameter(rng.normal(size=(3, 2)))
        weight = T.constant(np.arange(6.0).reshape(3, 2))

        def f(v, d):
            return T.sum_all(T.mul(T.spmm(rows, cols, v, d, 3), weight))

        assert T.gradient_check(f, [vals, dense]) < 1e-4

    @pytest.mark.parametrize("learn_values", [True, False])
    def test_spmm_backward_skips_constant_operand(self, monkeypatch, exact_path, learn_values):
        # Only the operand that needs a gradient gets one computed, and its
        # bits are those of the run where both operands are learned.
        rng = np.random.default_rng(7)
        rows = np.array([0, 0, 1, 1, 2, 2])
        cols = np.array([1, 2, 0, 2, 0, 1])
        vals0, dense0 = rng.uniform(0.1, 1.0, 6), rng.normal(size=(3, 2))
        g = T.constant(rng.normal(size=(3, 2)))

        def grads(learn_v, learn_d, patch=False):
            v = T.parameter(vals0) if learn_v else T.constant(vals0)
            d = T.parameter(dense0) if learn_d else T.constant(dense0)
            with T.Tape() as tape:
                loss = T.sum_all(T.mul(T.spmm(rows, cols, v, d, 3), g))
                if patch:
                    for name in ("_edge_dot", "_scatter_add"):
                        real = getattr(T, name)
                        monkeypatch.setattr(
                            T, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a)
                        )
                T.backward(loss, tape)
            return v.grad, d.grad

        calls = []
        both = grads(True, True)
        got = grads(learn_values, not learn_values, patch=True)
        assert calls == (["_edge_dot"] if learn_values else ["_scatter_add"])
        i = 0 if learn_values else 1
        assert same_bits(got[i], both[i]) and got[1 - i] is None

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


_M3x2, _M4x2, _V2, _V3 = (T.constant(np.ones(s)) for s in ((3, 2), (4, 2), 2, 3))

# (op, index argument, its bound, the op called with that argument's second
# index set to i). Where an op takes two index arrays, their bounds differ.
INDEX_ARGUMENTS = [
    ("gather_rows", "idx", 3, lambda i: T.gather_rows(_M3x2, [0, i])),
    ("take", "idx", 3, lambda i: T.take(_V3, [0, i])),
    ("gather_pairs", "rows", 3, lambda i: T.gather_pairs(_M3x2, [0, i], [0, 1])),
    ("gather_pairs", "cols", 2, lambda i: T.gather_pairs(_M3x2, [0, 1], [0, i])),
    ("segment_sum", "seg_ids", 4, lambda i: T.segment_sum(_V2, [0, i], 4)),
    ("spmm", "rows", 5, lambda i: T.spmm([0, i], [0, 1], _V2, _M3x2, 5)),
    ("spmm", "cols", 3, lambda i: T.spmm([0, 1], [0, i], _V2, _M3x2, 5)),
    ("sddmm", "rows", 3, lambda i: T.sddmm([0, i], [0, 1], _M3x2, _M4x2)),
    ("sddmm", "cols", 4, lambda i: T.sddmm([0, 1], [0, i], _M3x2, _M4x2)),
]


@pytest.mark.parametrize(
    "op,arg,bound,call", INDEX_ARGUMENTS, ids=[f"{op}-{arg}" for op, arg, *_ in INDEX_ARGUMENTS]
)
def test_index_out_of_range_domain_error(op, arg, bound, call):
    for bad in (-1, bound):
        with pytest.raises(DomainError, match=rf"^{op}: index out of range \[0, {bound}\)$"):
            call(bad)
    call(bound - 1)


@st.composite
def scatter_cases(draw):
    """(idx, vals, n): repeated or all-unique targets in any order, possibly
    none, with 1-D or 2-D values."""
    n = draw(st.integers(0, 8))
    if n and draw(st.booleans()):
        idx = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    else:
        idx = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=200 if n else 0))
    width = draw(st.sampled_from([None, 1, 3, T._WIDE]))
    shape = (len(idx),) if width is None else (len(idx), min(width, 3))
    vals = draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    if width == T._WIDE:  # the prefix-loop kernel; columns repeat
        vals = np.tile(vals, (1, T._WIDE // 3 + 1))
    return np.array(idx, dtype=np.int64), vals, n


def add_at(idx, vals, n):
    out = np.zeros((n,) + vals.shape[1:])
    np.add.at(out, idx, vals)
    return out


class TestScatterAdd:
    @settings(max_examples=300, deadline=None)
    @given(scatter_cases())
    def test_equals_add_at_bit_for_bit(self, case):
        idx, vals, n = case
        got = T._scatter_add(idx, vals, n)
        want = add_at(idx, vals, n)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("width", [None, 2, T._WIDE])
    def test_adds_in_entry_order(self, width):
        # 1e16 + 1 rounds to 1e16, so entry order sums target 2 to 0; adding
        # the two large entries first would give 1.
        idx = np.array([2, 0, 2, 2])
        vals = np.array([1e16, 5.0, 1.0, -1e16])
        if width:
            vals = np.repeat(vals[:, None], width, axis=1)
        got = T._scatter_add(idx, vals, 4)
        assert np.array_equal(got, add_at(idx, vals, 4))
        assert np.all(got[2] == 0.0) and np.all(got[0] == 5.0)

    @pytest.mark.parametrize("width", [None, 4, T._WIDE])
    def test_many_repeats_equal_add_at(self, width):
        # Long runs per target, so an unstable grouping would reorder sums.
        rng = np.random.default_rng(8)
        idx = rng.integers(3, size=2000)
        vals = rng.normal(size=2000 if width is None else (2000, width))
        vals *= 10.0 ** rng.integers(-8, 8, vals.shape)
        assert np.array_equal(T._scatter_add(idx, vals, 5), add_at(idx, vals, 5))

    @pytest.mark.parametrize("width", [None, 3, T._WIDE])
    def test_unique_targets_sum_onto_positive_zero(self, width):
        # add.at computes 0.0 + (-0.0) = +0.0; a plain copy would keep -0.0.
        idx = np.array([3, 0, 2])
        vals = np.array([-0.0, 1.5, -0.0])
        if width:
            vals = np.repeat(vals[:, None], width, axis=1)
        got = T._scatter_add(idx, vals, 4)
        assert np.array_equal(got, add_at(idx, vals, 4)) and not np.signbit(got).any()

    @pytest.mark.parametrize("width", [None, 3, T._WIDE])
    def test_empty_index_gives_zeros(self, width):
        vals = np.zeros((0,) if width is None else (0, width))
        got = T._scatter_add(np.zeros(0, dtype=np.int64), vals, 5)
        assert got.dtype == np.float64 and not got.any()
        assert got.shape == (5,) + vals.shape[1:]


SIGNED_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0])


def columns(base, width):
    """Widen a 3-column draw to ``width`` by repeating its columns, so the
    wide kernel branches are reached without drawing every value."""
    return np.tile(base, (1, -(-width // 3)))[:, :width]


@st.composite
def message_cases(draw):
    """(idx, dense, n, src, scale): sorted, unsorted or all-unique targets,
    possibly none and some targets with no entries, with repeated sources,
    optional scale, and -0.0 among the dense and scale values."""
    n = draw(st.integers(0, 8))
    order = draw(st.sampled_from(["sorted", "unsorted", "unique"]))
    if n and order == "unique":
        idx = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    else:
        idx = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=120 if n else 0))
        if order == "sorted":
            idx.sort()
    m = len(idx)
    width = draw(st.sampled_from([3, T._WIDE, 130]))
    src = None
    if draw(st.booleans()):
        rows = draw(st.integers(1, 5))
        src = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=m, max_size=m)),
                       dtype=np.int64)
    else:
        rows = m
    dense = columns(draw(arrays(np.float64, (rows, 3), elements=SIGNED_VALUES)), width)
    scale = None
    if draw(st.booleans()):
        scale = draw(arrays(np.float64, (m,), elements=SIGNED_VALUES))
    return np.array(idx, dtype=np.int64), dense, n, src, scale


def messages_add_at(idx, dense, n, src=None, scale=None):
    """np.add.at over the materialized messages scale[e] * dense[src[e]]."""
    msg = dense if src is None else dense[src]
    if scale is not None:
        msg = scale[:, None] * msg
    return add_at(idx, msg, n)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFusedMessageScatter:
    """_scatter_add with ``src``/``scale`` gathers and scales each message
    itself; it must equal np.add.at over the materialized messages."""

    @settings(max_examples=400, deadline=None)
    @given(message_cases())
    def test_equals_add_at_of_messages_bit_for_bit(self, case):
        idx, dense, n, src, scale = case
        got = T._scatter_add(idx, dense, n, src, scale)
        want = messages_add_at(idx, dense, n, src, scale)
        assert got.dtype == np.float64 and same_bits(got, want)

    @pytest.mark.parametrize("width", [3, T._WIDE, 130])
    @pytest.mark.parametrize("sort", [False, True])
    def test_many_repeats_with_scale(self, width, sort):
        # Long runs per target and scales spanning 16 decades, so grouping
        # out of entry order, or scaling partial sums, changes the bits.
        rng = np.random.default_rng([width, sort])
        idx = rng.integers(4, size=3000)
        if sort:
            idx.sort()
        src = rng.integers(50, size=3000)
        dense = rng.normal(size=(50, width))
        scale = rng.normal(size=3000) * 10.0 ** rng.integers(-8, 8, 3000)
        got = T._scatter_add(idx, dense, 6, src, scale)
        assert same_bits(got, messages_add_at(idx, dense, 6, src, scale))

    @staticmethod
    def spmm_operands(width, seed):
        rng = np.random.default_rng([width, seed])
        counts = rng.integers(0, 9, size=12)
        counts[3] = 0  # a row with no edges
        rows = np.repeat(np.arange(12), counts)
        cols = rng.integers(10, size=rows.size)
        vals = rng.normal(size=rows.size)
        vals[::7] = -0.0
        dense = rng.normal(size=(10, width))
        dense[2] = -0.0
        return rows, cols, vals, dense, rng.normal(size=(12, width))

    @pytest.mark.parametrize("width", [3, T._WIDE, 130])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_spmm_equals_materialized_messages(self, exact_path, width, seed):
        rows, cols, vals, dense0, g = self.spmm_operands(width, seed)
        values, dense = T.parameter(vals), T.parameter(dense0)
        with T.Tape() as tape:
            out = T.spmm(rows, cols, values, dense, 12)
            T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
        assert same_bits(out.data, add_at(rows, vals[:, None] * dense0[cols], 12))
        assert same_bits(dense.grad, add_at(cols, vals[:, None] * g[rows], 10))

    @pytest.mark.parametrize("width", [3, T._WIDE, 130])
    @pytest.mark.parametrize("candidates", [False, True])
    def test_sddmm_gradients_equal_materialized_messages(self, exact_path, width, candidates):
        # candidates: rows laid out as build_candidates does, k per node.
        rng = np.random.default_rng([width, candidates])
        if candidates:
            ra = np.repeat(np.arange(9), 4)
        else:
            ra = rng.integers(9, size=36)
        ca = rng.integers(7, size=36)
        u0, v0 = rng.normal(size=(9, width)), rng.normal(size=(7, width))
        v0[1] = -0.0
        g = rng.normal(size=36)
        g[::5] = -0.0
        u, v = T.parameter(u0), T.parameter(v0)
        with T.Tape() as tape:
            out = T.sddmm(ra, ca, u, v)
            T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
        assert same_bits(u.grad, add_at(ra, g[:, None] * v0[ca], 9))
        assert same_bits(v.grad, add_at(ca, g[:, None] * u0[ra], 7))


class TestZeroGradientSkips:
    """The exact kernels leave out the entries whose messages are zero, in
    the forward and in the backward; the scattered results keep the bits of
    np.add.at over every entry, and a left-out inner product reads 0.0."""

    @staticmethod
    def spmm_case(width, seed):
        # 200 x 200 with 3 entries per row: 40000 cells against 30 * 600.
        rng = np.random.default_rng([width, seed])
        n, k = 200, 3
        rows = np.repeat(np.arange(n), k)
        cols = rng.integers(n, size=n * k)
        assert not T._dense_pays(n, n, rows.size)
        vals, dense = rng.normal(size=rows.size), rng.normal(size=(n, width))
        g = rng.normal(size=(n, width))
        g[rng.random(n) < 0.8] = 0.0
        g[::7] = -0.0  # all-zero rows holding -0.0
        g[1::10, 0] = -0.0  # -0.0 inside rows that stay live
        return rows, cols, vals, dense, g

    @pytest.mark.parametrize("width", [3, 130])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_spmm_gradients(self, monkeypatch, width, seed):
        rows, cols, vals, dense0, g = self.spmm_case(width, seed)
        live = g.any(axis=1)[rows]
        assert 0 < live.sum() < rows.size
        seen = []
        real = T._edge_dot
        monkeypatch.setattr(
            T, "_edge_dot", lambda a, b, ra, ca: seen.append(ra.size) or real(a, b, ra, ca)
        )
        values, dense = T.parameter(vals), T.parameter(dense0)
        with T.Tape() as tape:
            out = T.spmm(rows, cols, values, dense, 200)
            T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
        assert seen == [live.sum()]
        assert same_bits(dense.grad, add_at(cols, vals[:, None] * g[rows], 200))
        assert np.array_equal(values.grad, (g[rows] * dense0[cols]).sum(axis=1))
        assert same_bits(values.grad[~live], np.zeros((~live).sum()))

    @pytest.mark.parametrize("width", [3, 130])
    def test_spmm_forward_leaves_out_zero_messages(self, monkeypatch, width):
        rows, cols, vals, dense, _ = self.spmm_case(width, 2)
        vals[::5], vals[1::5] = 0.0, -0.0
        dense[::6], dense[1::6] = 0.0, -0.0
        live = (vals != 0) & dense.any(axis=1)[cols]
        assert 0 < live.sum() < rows.size
        seen = []
        real = T._scatter_add
        monkeypatch.setattr(T, "_scatter_add", lambda idx, *a: seen.append(idx.size) or real(idx, *a))
        out = T.spmm(rows, cols, T.constant(vals), T.constant(dense), 200)
        assert seen == [live.sum()]
        assert same_bits(out.data, add_at(rows, vals[:, None] * dense[cols], 200))

    @pytest.mark.parametrize("width", [3, 130])
    def test_sddmm_forward_scores_zero_rows_positive_zero(self, monkeypatch, width):
        rng = np.random.default_rng([width, 5])
        ra = np.repeat(np.arange(120), 3)
        ca = rng.integers(120, size=360)
        assert not T._dense_pays(120, 120, 360)
        u0, v0 = rng.normal(size=(120, width)), np.abs(rng.normal(size=(120, width)))
        u0[::7] = -0.0  # its dot products with v0 would sum to -0.0
        v0[::11], v0[5::11] = 0.0, -0.0
        live = u0.any(axis=1)[ra] & v0.any(axis=1)[ca]
        assert 0 < live.sum() < ra.size
        seen = []
        real = T._edge_dot
        monkeypatch.setattr(
            T, "_edge_dot", lambda a, b, r, c: seen.append(r.size) or real(a, b, r, c)
        )
        out = T.sddmm(ra, ca, T.constant(u0), T.constant(v0)).data
        assert seen == [live.sum()]
        assert same_bits(out[~live], np.zeros((~live).sum()))
        assert same_bits(out[live], (u0[ra] * v0[ca]).sum(axis=1)[live])

    @staticmethod
    def sddmm_grads(ra, ca, u0, v0, g):
        u, v = T.parameter(u0), T.parameter(v0)
        with T.Tape() as tape:
            out = T.sddmm(ra, ca, u, v)
            T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
        return u.grad, v.grad

    @pytest.mark.parametrize("width", [3, 130])
    def test_sddmm_gradients(self, width):
        # Rows laid out as build_candidates does: 120 nodes, k = 3.
        rng = np.random.default_rng(width)
        ra = np.repeat(np.arange(120), 3)
        ca = rng.integers(120, size=360)
        assert not T._dense_pays(120, 120, 360)
        u0, v0 = rng.normal(size=(120, width)), rng.normal(size=(120, width))
        g = rng.normal(size=360)
        g[rng.random(360) < 0.5] = 0.0
        g[::9] = -0.0
        gu, gv = self.sddmm_grads(ra, ca, u0, v0, g)
        assert same_bits(gu, add_at(ra, g[:, None] * v0[ca], 120))
        assert same_bits(gv, add_at(ca, g[:, None] * u0[ra], 120))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([3, 130]),
        st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=1, max_size=80),
    )
    def test_sddmm_gradients_under_zero_masks(self, seed, width, mask):
        # mask[e] 1.0 keeps a random gradient, 0.0 or -0.0 replaces it.
        rng = np.random.default_rng(seed)
        m = len(mask)
        n_u, n_v = 40, 50
        ra, ca = rng.integers(n_u, size=m), rng.integers(n_v, size=m)
        assert not T._dense_pays(n_u, n_v, m)
        u0, v0 = rng.normal(size=(n_u, width)), rng.normal(size=(n_v, width))
        v0[0] = -0.0
        mask = np.array(mask)
        g = np.where(mask == 1.0, rng.normal(size=m), mask)
        gu, gv = self.sddmm_grads(ra, ca, u0, v0, g)
        assert same_bits(gu, add_at(ra, g[:, None] * v0[ca], n_u))
        assert same_bits(gv, add_at(ca, g[:, None] * u0[ra], n_v))


@st.composite
def sparse_product_cases(draw):
    """(rows, cols, n_rows, n_cols, width, seed): entries with repeated
    (row, col) cells, empty rows, rectangular shapes and possibly none."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    entries = draw(st.lists(cells, max_size=30))
    if entries and draw(st.booleans()):  # repeat some cells
        entries += draw(st.lists(st.sampled_from(entries), max_size=10))
    rows = np.array([i for i, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j in entries], dtype=np.int64)
    return rows, cols, n_rows, n_cols, draw(st.integers(1, 5)), draw(st.integers(0, 2**31 - 1))


LEARN = st.sampled_from([(True, True), (True, False), (False, True), (False, False)])


def assert_paths_agree(run):
    """run(cells) -> (out, grads...) under _DENSE_CELLS = cells; the exact
    and dense paths must agree to 1e-12, and the dense run must densify."""
    calls = []
    real = T._densify
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_densify", lambda *a: calls.append(1) or real(*a))
        exact = run(EXACT)
        assert not calls
        dense = run(DENSE)
    for a, b in zip(exact, dense):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and np.all(np.abs(a - b) <= 1e-12)
    return calls


class TestDensePath:
    """spmm and sddmm as GEMMs over a densified operand against the exact
    kernels, forced to either side by the module constant."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_product_cases(), LEARN)
    def test_spmm_paths_agree(self, case, learn):
        rows, cols, n_rows, n_cols, h, seed = case
        rng = np.random.default_rng(seed)
        vals0, dense0 = rng.uniform(-1, 1, rows.size), rng.uniform(-1, 1, (n_cols, h))
        g = T.constant(rng.uniform(-1, 1, (n_rows, h)))

        def run(cells):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "_DENSE_CELLS", cells)
                v, d = T.Tensor(vals0, learn[0]), T.Tensor(dense0, learn[1])
                with T.Tape() as tape:
                    out = T.spmm(rows, cols, v, d, n_rows)
                    if any(learn):
                        T.backward(T.sum_all(T.mul(out, g)), tape)
            return out.data, v.grad, d.grad

        calls = assert_paths_agree(run)
        assert bool(calls) == bool(rows.size)  # no entries: nothing to densify

    @settings(max_examples=300, deadline=None)
    @given(sparse_product_cases(), LEARN, st.booleans())
    def test_sddmm_paths_agree(self, case, learn, shared):
        rows, cols, n_u, n_v, d, seed = case
        if shared:  # sddmm(r, c, u, u), as build_candidates calls it
            n_v = n_u = max(n_u, n_v)
        rng = np.random.default_rng(seed)
        u0, v0 = rng.uniform(-1, 1, (n_u, d)), rng.uniform(-1, 1, (n_v, d))
        g = T.constant(rng.uniform(-1, 1, rows.size))

        def run(cells):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "_DENSE_CELLS", cells)
                u = T.Tensor(u0, learn[0])
                v = u if shared else T.Tensor(v0, learn[1])
                with T.Tape() as tape:
                    out = T.sddmm(rows, cols, u, v)
                    if u.requires_grad or v.requires_grad:
                        T.backward(T.sum_all(T.mul(out, g)), tape)
            return out.data, u.grad, v.grad

        calls = assert_paths_agree(run)
        backward_ran = learn[0] or (learn[1] and not shared)
        assert bool(calls) == bool(rows.size and backward_ran)

    @staticmethod
    def kernels(monkeypatch):
        """Record the names of the kernels that spmm and sddmm call."""
        calls = []
        for name in ("_densify", "_scatter_add", "_edge_dot"):
            real = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
        return calls

    def test_size_rule_keeps_a_sparse_wide_graph_exact(self, monkeypatch):
        # The 1000-node benchmark's shape: 30 entries per row.
        rng = np.random.default_rng(0)
        n, k = 1000, 30
        cols = np.concatenate([np.sort(rng.choice(n, k, replace=False)) for _ in range(n)])
        values, dense = T.parameter(rng.uniform(size=n * k)), T.parameter(rng.normal(size=(n, 2)))
        calls = self.kernels(monkeypatch)
        with T.Tape() as tape:
            out = T.spmm(np.repeat(np.arange(n), k), cols, values, dense, n)
            T.backward(T.sum_all(out), tape)
        assert calls == ["_scatter_add", "_edge_dot", "_scatter_add"]

    def test_size_rule_sends_the_benchmark_candidate_graph_dense(self, monkeypatch):
        # build_candidates' sddmm and the spmm over its graph, on the 200-node
        # benchmark SBM with k = 30.
        g = generate_sbm([50] * 4, 0.1, 0.01, 8, 1.0, 0)
        x = T.parameter(g.features)
        calls = self.kernels(monkeypatch)
        with T.Tape() as tape:
            cand = build_candidates(x, 30, "cosine")
            out = cand.sparse.matmul(x)
            T.backward(T.sum_all(out), tape)
        assert cand.sparse.nnz == 6000
        assert calls and set(calls) == {"_densify"}


class TestSddmm:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(0, 20))
    def test_matches_loop_oracle(self, seed, n_u, n_v, m):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-10, 10, (n_u, 4))
        v = rng.uniform(-10, 10, (n_v, 4))
        rows, cols = rng.integers(n_u, size=m), rng.integers(n_v, size=m)
        got = T.sddmm(rows, cols, T.constant(u), T.constant(v)).data
        assert got.shape == (m,)
        if m:
            assert np.abs(got - sddmm_loop(rows, cols, u, v)).max() < 1e-12

    def test_equals_gather_chain_bit_for_bit(self, exact_path):
        rng = np.random.default_rng(3)
        rows, cols = rng.integers(5, size=40), rng.integers(7, size=40)
        u0, v0, g = rng.normal(size=(5, 6)), rng.normal(size=(7, 6)), rng.normal(size=40)

        def run(op):
            u, v = T.parameter(u0), T.parameter(v0)
            with T.Tape() as tape:
                out = op(u, v)
                T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
            return out.data, u.grad, v.grad

        fused = run(lambda u, v: T.sddmm(rows, cols, u, v))
        chain = run(lambda u, v: T.rowwise_dot(T.gather_rows(u, rows), T.gather_rows(v, cols)))
        for a, b in zip(fused, chain):
            assert np.array_equal(a, b)

    def test_gradients_with_shared_operand(self):
        rng = np.random.default_rng(4)
        rows = np.array([0, 1, 1, 3, 2, 0])
        cols = np.array([1, 0, 2, 3, 3, 0])
        u = T.parameter(rng.uniform(-1, 1, (4, 3)))
        w = T.constant(np.arange(1.0, 7.0))
        assert T.gradient_check(lambda p: T.sum_all(T.mul(T.sddmm(rows, cols, p, p), w)), [u]) < 1e-8

    # spmm, the adjoint, is held to sddmm's shape checks here and to its
    # index checks by test_index_out_of_range_domain_error.
    def test_shape_errors(self):
        with pytest.raises(ShapeError, match=r"\(3, 2\).*\(3, 4\)"):
            T.sddmm([0], [0], T.constant(np.ones((3, 2))), T.constant(np.ones((3, 4))))
        u = T.constant(np.ones((3, 2)))
        for bad in (
            lambda: T.sddmm([0, 1], [0], u, u),
            lambda: T.spmm([1, 1, 2], [0, 1], T.constant(np.ones(2)), u, 3),
            lambda: T.spmm([0, 1], [0, 1], T.constant(np.ones(3)), u, 3),
            lambda: T.spmm([0, 1], [0, 1], T.constant(np.ones((2, 1))), u, 3),
            lambda: T.spmm([0, 1], [0, 1], T.constant(np.ones(2)), T.constant(np.ones(3)), 3),
        ):
            with pytest.raises(ShapeError):
                bad()


def edge_counts(h):
    """0, 1, B-1, B, B+1 and three blocks plus a remainder, for the
    _edge_dot block of B edges at width h."""
    b = T._EDGE_BLOCK // h
    return [0, 1, b - 1, b, b + 1, 3 * b + 7]


EDGE_CASES = [(h, m) for h in (3, 128) for m in edge_counts(h)]


class TestBlockedEdgeDot:
    """_edge_dot runs over blocks of edges; every path through it must equal
    the unblocked (a[ra] * b[ca]).sum(axis=1) bit for bit."""

    @staticmethod
    def operands(h, m, seed=0):
        rng = np.random.default_rng([seed, h, m])
        a = rng.normal(size=(40, h)) * 10.0 ** rng.uniform(-6, 6, (40, 1))
        b = rng.normal(size=(30, h))
        return a, b, rng.integers(40, size=m), rng.integers(30, size=m)

    @pytest.mark.parametrize("h,m", EDGE_CASES)
    def test_edge_dot_equals_unblocked(self, h, m):
        a, b, ra, ca = self.operands(h, m)
        got = T._edge_dot(a, b, ra, ca)
        want = (a[ra] * b[ca]).sum(axis=1)
        assert got.shape == (m,) and np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("h,m", EDGE_CASES)
    def test_sddmm_forward_and_backward_equal_unblocked(self, exact_path, h, m):
        a, b, ra, ca = self.operands(h, m)
        g = np.random.default_rng(m).normal(size=m)

        def run(op):
            u, v = T.parameter(a), T.parameter(b)
            with T.Tape() as tape:
                out = op(u, v)
                T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
            return out.data, u.grad, v.grad

        fused = run(lambda u, v: T.sddmm(ra, ca, u, v))
        chain = run(lambda u, v: T.rowwise_dot(T.gather_rows(u, ra), T.gather_rows(v, ca)))
        assert np.array_equal(fused[0], (a[ra] * b[ca]).sum(axis=1))
        for x, y in zip(fused, chain):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))

    @pytest.mark.parametrize("h,m", EDGE_CASES)
    def test_spmm_edge_value_gradient_equals_unblocked(self, exact_path, h, m):
        a, dense0, _, cols = self.operands(h, m)
        rng = np.random.default_rng(m)
        rows = np.sort(rng.integers(12, size=m))
        values, dense = T.parameter(rng.normal(size=m)), T.parameter(dense0)
        g = rng.normal(size=(12, h))
        with T.Tape() as tape:
            out = T.spmm(rows, cols, values, dense, 12)
            T.backward(T.sum_all(T.mul(out, T.constant(g))), tape)
        want = (g[rows] * dense0[cols]).sum(axis=1)
        assert np.array_equal(values.grad.view(np.int64), want.view(np.int64))


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


class TestFiniteGuard:
    """Every op output passes through one finiteness check."""

    @pytest.mark.parametrize(
        "values",
        [[1.0, np.nan], [np.inf, 2.0], [-np.inf, 2.0], [np.inf, -np.inf], [np.nan, np.inf]],
        ids=["nan", "+inf", "-inf", "+inf-inf", "nan+inf"],
    )
    @pytest.mark.parametrize("op", ["add", "mul", "reshape"])
    def test_non_finite_output_raises(self, op, values):
        x = T.constant(np.array(values))
        run = {
            "add": lambda: T.add(x, 0.0),
            "mul": lambda: T.mul(x, 1.0),
            "reshape": lambda: T.reshape(x, (2, 1)),
        }[op]
        with pytest.raises(NumericError, match=f"^{op} produced non-finite values$"):
            run()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_output_raises(self, value):
        with pytest.raises(NumericError, match="^mul produced non-finite values$"):
            T.mul(T.constant(value), 1.0)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, -1e308, -1e308], [1e308, -1e308]])
    def test_finite_output_with_overflowing_sum_passes_without_warning(self, values):
        import warnings

        x = T.constant(np.array(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.mul(x, 1.0)
        assert np.array_equal(out.data, np.array(values))
