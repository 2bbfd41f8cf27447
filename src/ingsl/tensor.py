"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Values are 64-bit numpy arrays. Every differentiable operation executed while
a Tape is active records a node (operands, output, backward rule) onto that
tape; ``backward`` replays the tape in reverse creation order, which is a
valid topological order by construction. Tapes are rebuilt per forward pass,
so data-dependent structure (e.g. which edges survive pruning) may change
between passes.

No general broadcasting: binary ops take equal shapes, or a tensor and a
Python scalar treated as a constant.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateRowError,
    DomainError,
    NumericError,
    RankError,
    ShapeError,
    StateError,
)


class _Local(threading.local):
    """Per-thread stack of active tapes, created empty on a thread's first use."""

    def __init__(self):
        self.stack: list["Tape"] = []


_LOCAL = _Local()


def active_tape() -> "Tape | None":
    stack = _LOCAL.stack
    return stack[-1] if stack else None


class Tensor:
    """Dense 64-bit real array with optional accumulated gradient. A tensor
    built from an array holds a C-contiguous copy of it."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class _Node:
    __slots__ = ("output", "inputs", "backward_fn", "name")

    def __init__(self, output, inputs, backward_fn, name):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name


class Tape:
    """Ordered record of executed operations for one forward pass.

    Usable as a context manager; nesting is allowed (innermost tape records).
    ``backward_visits`` counts nodes visited by ``backward`` (instrumentation).
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self.backward_visits = 0

    def __enter__(self) -> "Tape":
        _LOCAL.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LOCAL.stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def record_op(
    output: Tensor,
    inputs: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], tuple],
    name: str = "custom",
) -> Tensor:
    """Register a differentiable op on the active tape.

    ``backward_fn`` maps the output gradient to one gradient (or None) per
    input. Recording happens only when some input requires grad and a tape
    is active; the output's requires_grad flag is set either way.
    """
    for t in inputs:
        if t.requires_grad:
            output.requires_grad = True
            stack = _LOCAL.stack
            if stack:
                stack[-1].nodes.append(_Node(output, tuple(inputs), backward_fn, name))
            return output
    output.requires_grad = False
    return output


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    # isfinite raises no floating-point flag, unlike a test on the sum.
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericError(f"{op} produced non-finite values")


def _out(data: np.ndarray, inputs, backward_fn, name: str) -> Tensor:
    _ensure_finite(data, name)
    return _recorded(data, inputs, backward_fn, name)


def _recorded(data: np.ndarray, inputs, backward_fn, name: str) -> Tensor:
    """``_out`` for an op that has run the finite guard on its own."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = False
    t.grad = None
    return record_op(t, inputs, backward_fn, name)


def _as_operands(a, b, op: str):
    """Split a binary op's second operand into tensor or scalar constant."""
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
        return b, None
    return None, float(b)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    bt, c = _as_operands(a, b, "add")
    if bt is not None:
        return _out(a.data + bt.data, (a, bt), lambda g: (g, g), "add")
    return _out(a.data + c, (a,), lambda g: (g,), "add")


def sub(a: Tensor, b) -> Tensor:
    bt, c = _as_operands(a, b, "sub")
    if bt is not None:
        return _out(a.data - bt.data, (a, bt), lambda g: (g, -g), "sub")
    return _out(a.data - c, (a,), lambda g: (g,), "sub")


def mul(a: Tensor, b) -> Tensor:
    bt, c = _as_operands(a, b, "mul")
    if bt is not None:
        ad, bd = a.data, bt.data
        return _out(ad * bd, (a, bt), lambda g: (g * bd, g * ad), "mul")
    return _out(a.data * c, (a,), lambda g: (g * c,), "mul")


def _matmul_operands(a: Tensor, b: Tensor, op: str) -> tuple[np.ndarray, np.ndarray]:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{op} requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: inner dimensions differ for {a.shape} x {b.shape}")
    return a.data, b.data


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _matmul_operands(a, b, "matmul")
    return _out(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g), "matmul")


def matmul_relu(a: Tensor, w: Tensor) -> Tensor:
    """``relu(matmul(a, w))`` as one op, with the same values and gradients
    bit for bit. The clamp runs in place on the product, and the backward
    reads ReLU's mask from the output (positive exactly where the product
    is), so no pre-activation outlives the call."""
    ad, wd = _matmul_operands(a, w, "matmul_relu")
    out = ad @ wd
    _ensure_finite(out, "matmul_relu")  # before the clamp maps -inf to 0
    np.maximum(out, 0.0, out=out)

    def bwd(g):
        gz = g * (out > 0.0)
        return (gz @ wd.T, ad.T @ gz)

    return _recorded(out, (a, w), bwd, "matmul_relu")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D operand, got {a.shape}")
    return _out(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size and -1 not in shape:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return _out(a.data.reshape(shape).copy(), (a,), lambda g: (g.reshape(old),), "reshape")


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    # Derivative at exactly 0 is taken as 0.
    d = x.data
    return _out(np.maximum(d, 0.0), (x,), lambda g: (g * (d > 0.0),), "relu")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return _out(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NumericError
        out = np.exp(x.data)
    return _out(out, (x,), lambda g: (g * out,), "exp")


def log(x: Tensor) -> Tensor:
    d = x.data
    bad = np.flatnonzero(d.reshape(-1) <= 0.0)
    if bad.size:
        raise DomainError(f"log of non-positive value at flat index {int(bad[0])}")
    return _out(np.log(d), (x,), lambda g: (g / d,), "log")


def pow_const(x: Tensor, p: float) -> Tensor:
    """x**p with constant exponent; non-integer p requires x > 0."""
    d = x.data
    if p != int(p) and (d <= 0.0).any():
        raise DomainError(f"pow_const: non-integer exponent {p} on non-positive input")
    out = d**p
    return _out(out, (x,), lambda g: (g * p * d ** (p - 1.0),), "pow_const")


ZERO_ROW_NORM = 1e-12


def nonzero_rows(data: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Mask of the rows with L2 ``norms`` (computed if not given) at least
    ZERO_ROW_NORM; every other row is a zero row and has no direction."""
    if norms is None:
        norms = np.linalg.norm(data, axis=1)
    return norms >= ZERO_ROW_NORM


def row_l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of a 2-D tensor to unit Euclidean norm; a zero row
    (see ``nonzero_rows``) raises."""
    if x.data.ndim != 2:
        raise ShapeError(f"row_l2_normalize requires a 2-D operand, got {x.shape}")
    norms = np.sqrt((x.data**2).sum(axis=1))
    tiny = np.flatnonzero(~nonzero_rows(x.data, norms))
    if tiny.size:
        raise DegenerateRowError(f"row {int(tiny[0])} has norm below {ZERO_ROW_NORM:g}")
    out = x.data / norms[:, None]

    def bwd(g):
        # Jacobian of x/||x|| per row: (I - y y^T)/||x||.
        dots = (g * out).sum(axis=1)
        return ((g - out * dots[:, None]) / norms[:, None],)

    return _out(out, (x,), bwd, "row_l2_normalize")


def row_l2_normalize_or_zero(x: Tensor) -> Tensor:
    """Like row_l2_normalize, but zero rows map to zero (with zero gradient)
    instead of raising. Directionless rows then have cosine 0 to everything."""
    if x.data.ndim != 2:
        raise ShapeError(f"row_l2_normalize_or_zero requires a 2-D operand, got {x.shape}")
    norms = np.sqrt((x.data**2).sum(axis=1))
    good = nonzero_rows(x.data, norms)
    safe = np.where(good, norms, 1.0)
    out = np.where(good[:, None], x.data / safe[:, None], 0.0)

    def bwd(g):
        dots = (g * out).sum(axis=1)
        gx = (g - out * dots[:, None]) / safe[:, None]
        gx[~good] = 0.0
        return (gx,)

    return _out(out, (x,), bwd, "row_l2_normalize_or_zero")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _out(
        np.asarray(x.data.sum()), (x,), lambda g: (np.full(shape, float(g)),), "sum_all"
    )


def row_sum(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"row_sum requires a 2-D operand, got {x.shape}")
    m = x.shape[1]
    return _out(
        x.data.sum(axis=1),
        (x,),
        lambda g: (np.repeat(g[:, None], m, axis=1),),
        "row_sum",
    )


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row inner product of two equal-shape 2-D tensors -> 1-D tensor."""
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"rowwise_dot: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _out(
        (ad * bd).sum(axis=1),
        (a, b),
        lambda g: (g[:, None] * bd, g[:, None] * ad),
        "rowwise_dot",
    )


# ---------------------------------------------------------------------------
# indexing / structure
# ---------------------------------------------------------------------------


# Row width from which the prefix loop in _scatter_add beats one bincount
# over (row, column) cells: the loop's cost is per step, the bincount's per
# cell. Measured on 7000 and 30000 entries, the two tie at width 64; at 9000
# to 30000 entries x 128 columns the loop is 2.5-3x faster.
_WIDE = 64


def _scatter_add(
    idx: np.ndarray,
    dense: np.ndarray,
    n: int,
    src: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Sum the message ``scale[e] * dense[src[e]]`` into row ``idx[e]`` of an
    n-row zero array, adding in ascending e, so the result equals
    ``np.add.at(out, idx, scale[:, None] * dense[src])`` bit for bit. Without
    ``src`` entry e reads ``dense[e]``; without ``scale`` nothing is scaled.

    Narrow values go through one ``np.bincount`` over (row, column) cells,
    which adds each cell's entries in e order. For wide 2-D values, entries
    are grouped by target (stable, so e order holds within a target; already
    non-decreasing targets are grouped as they stand) and the targets ordered
    by descending entry count; step p then adds the p-th entry of every
    target with more than p entries, and those targets form a prefix of the
    order, so each step is one vectorized row add. A step gathers and scales
    only its own messages, so the m x h message array is never formed.
    """
    if idx.size == 0:
        return np.zeros((n,) + dense.shape[1:])
    if dense.ndim == 1 or dense.shape[1] < _WIDE:
        msg = dense if src is None else dense[src]
        if scale is not None:
            msg = (scale if msg.ndim == 1 else scale[:, None]) * msg
        if msg.ndim == 1:
            return np.bincount(idx, weights=msg, minlength=n)
        h = msg.shape[1]
        cells = (idx[:, None] * h + np.arange(h)).reshape(-1)
        return np.bincount(cells, weights=msg.reshape(-1), minlength=n * h).reshape(n, h)
    h = dense.shape[1]
    counts = np.bincount(idx, minlength=n)
    if (idx[1:] < idx[:-1]).any():
        order = np.argsort(idx, kind="stable")
        src = order if src is None else src[order]
        scale = None if scale is None else scale[order]
    targets = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    starts = (np.cumsum(counts) - counts)[targets]
    active = targets.size - np.cumsum(np.bincount(counts[targets]))
    acc = np.zeros((targets.size, h))
    buf = np.empty((targets.size, h))
    for p, c in enumerate(active[:-1]):
        e = starts[:c] + p
        # Callers validate their indices; "clip" lets take write into buf
        # directly, where the default "raise" gathers into a temporary first.
        np.take(dense, e if src is None else src[e], axis=0, out=buf[:c], mode="clip")
        if scale is not None:
            buf[:c] *= scale[e, None]
        acc[:c] += buf[:c]
    out = np.zeros((n, h))
    out[targets] = acc
    return out


# Float64 elements per gathered block in _edge_dot. The two 256 KB blocks
# stay in L2 cache; at 30000 edges x 128 columns on a Xeon with 2 MB of L2
# per core, blocking takes the call from about 11 ms to 5 ms.
_EDGE_BLOCK = 1 << 15


def _edge_dot(a: np.ndarray, b: np.ndarray, ra: np.ndarray, ca: np.ndarray) -> np.ndarray:
    """Per-edge inner products <a[ra[e]], b[ca[e]]>, over blocks of edges.
    Each row sum is the one ``(a[ra] * b[ca]).sum(axis=1)`` computes, so the
    result is the same bit for bit."""
    step = max(1, _EDGE_BLOCK // max(1, a.shape[1]))
    out = np.empty(ra.shape[0])
    for s in range(0, ra.shape[0], step):
        e = slice(s, s + step)
        out[e] = (a[ra[e]] * b[ca[e]]).sum(axis=1)
    return out


def _index_array(idx, bound: int, op: str) -> np.ndarray:
    arr = np.asarray(idx, dtype=np.int64)
    if arr.ndim != 1:
        raise ShapeError(f"{op}: index array must be 1-D")
    # A negative index reads as a huge unsigned one, so one max bounds it.
    if arr.size and int(np.maximum.reduce(arr.view(np.uint64))) >= bound:
        raise DomainError(f"{op}: index out of range [0, {bound})")
    return arr


def gather_rows(x: Tensor, idx) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows requires a 2-D operand, got {x.shape}")
    ia = _index_array(idx, x.shape[0], "gather_rows")
    n = x.shape[0]
    return _out(
        x.data[ia], (x,), lambda g: (_scatter_add(ia, g, n),), "gather_rows"
    )


def take(x: Tensor, idx) -> Tensor:
    """Gather entries of a 1-D tensor; backward scatter-adds."""
    if x.data.ndim != 1:
        raise ShapeError(f"take requires a 1-D operand, got {x.shape}")
    ia = _index_array(idx, x.shape[0], "take")
    n = x.shape[0]
    return _out(x.data[ia], (x,), lambda g: (_scatter_add(ia, g, n),), "take")


def gather_pairs(x: Tensor, rows, cols) -> Tensor:
    """Gather x[rows[k], cols[k]] for each k from a 2-D tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_pairs requires a 2-D operand, got {x.shape}")
    ra = _index_array(rows, x.shape[0], "gather_pairs")
    ca = _index_array(cols, x.shape[1], "gather_pairs")
    if ra.shape != ca.shape:
        raise ShapeError("gather_pairs: row and column index lengths differ")
    shape = x.shape
    flat = ra * shape[1] + ca
    return _out(
        x.data[ra, ca],
        (x,),
        lambda g: (_scatter_add(flat, g, x.size).reshape(shape),),
        "gather_pairs",
    )


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    p = a.shape[1]
    return _out(
        np.concatenate([a.data, b.data], axis=1),
        (a, b),
        lambda g: (g[:, :p], g[:, p:]),
        "concat_cols",
    )


def concat_vec(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ShapeError("concat_vec requires 1-D operands")
    p = a.shape[0]
    return _out(
        np.concatenate([a.data, b.data]), (a, b), lambda g: (g[:p], g[p:]), "concat_vec"
    )


def segment_sum(x: Tensor, seg_ids, num_segments: int) -> Tensor:
    """Sum entries of a 1-D tensor into ``num_segments`` buckets."""
    if x.data.ndim != 1:
        raise ShapeError(f"segment_sum requires a 1-D operand, got {x.shape}")
    sa = _index_array(seg_ids, num_segments, "segment_sum")
    if sa.shape[0] != x.shape[0]:
        raise ShapeError("segment_sum: segment ids must align with values")
    out = _scatter_add(sa, x.data, num_segments)
    return _out(out, (x,), lambda g: (g[sa],), "segment_sum")


# spmm and sddmm run as BLAS GEMMs when their sparse operand has at most
# this many cells per entry: a GEMM costs per cell, the exact kernels per
# entry. At one BLAS thread the GEMMs win per call up to 40-50 cells per
# entry (n 200 and 1000, widths 8 and 128), but a 1000-node operand is 8 MB,
# and GEMMs on the 1000-node benchmark graph (33-106 cells per entry) raised
# its peak RSS from 84 to 100 MB. 30 puts every product on the 200-node
# benchmark graph (6-27) on the GEMMs.
_DENSE_CELLS = 30


def _dense_pays(n_rows: int, n_cols: int, nnz: int) -> bool:
    return n_rows * n_cols <= _DENSE_CELLS * nnz


def _densify(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """n_rows x n_cols zero matrix with each vals[e] added into cell
    (rows[e], cols[e]) in ascending e, as ``np.add.at`` would."""
    flat = np.bincount(rows * n_cols + cols, weights=vals, minlength=n_rows * n_cols)
    return flat.reshape(n_rows, n_cols)


def _spmm(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dense: np.ndarray, n_out: int) -> np.ndarray:
    """Sum the message ``vals[e] * dense[cols[e]]`` into row ``rows[e]`` of an
    n_out-row zero array: a GEMM over the densified entries when
    ``_dense_pays``, else ``_scatter_add`` in entry order. On that exact path
    an entry whose value is 0 or whose dense row is all zero sends +-0, and
    adding +-0 never changes a sum that starts at +0.0, so it is left out."""
    n_in = dense.shape[0]
    if _dense_pays(n_out, n_in, rows.size):
        return _densify(rows, cols, vals, n_out, n_in) @ dense
    live = (vals != 0) & dense.any(axis=1)[cols]
    if not live.all():
        rows, cols, vals = rows[live], cols[live], vals[live]
    return _scatter_add(rows, dense, n_out, cols, vals)


def _sddmm(rows: np.ndarray, cols: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-edge inner products <u[rows[e]], v[cols[e]]>: gathered from the GEMM
    u v^T when ``_dense_pays``, else one ``_edge_dot`` per edge. On that exact
    path an edge with an all-zero row at either end scores +0.0 without a
    dot product."""
    if _dense_pays(u.shape[0], v.shape[0], rows.size):
        return (u @ v.T)[rows, cols]
    live = u.any(axis=1)[rows] & v.any(axis=1)[cols]
    if live.all():
        return _edge_dot(u, v, rows, cols)
    out = np.zeros(rows.size)
    out[live] = _edge_dot(u, v, rows[live], cols[live])
    return out


def spmm(rows, cols, values: Tensor, dense: Tensor, n_rows: int) -> Tensor:
    """Sparse times dense: out[rows[e]] += values[e] * dense[cols[e]], into
    an n_rows-row zero array. Entries may come in any order and repeat a
    cell; row-sorted entries skip ``_scatter_add``'s sort.

    Gradient flows to each of the edge values and the dense operand that
    requires it; the other's is not computed. The backward is the adjoint
    pair: the edge-value gradient is ``_sddmm`` of the output gradient with
    the dense operand, and the dense gradient is ``_spmm`` over the
    transposed entries.
    """
    if dense.data.ndim != 2:
        raise ShapeError(f"spmm: dense operand must be 2-D, got {dense.shape}")
    ra = _index_array(rows, n_rows, "spmm")
    ca = _index_array(cols, dense.shape[0], "spmm")
    if ra.shape != ca.shape:
        raise ShapeError("spmm: row and column index lengths differ")
    if values.data.ndim != 1 or values.shape != ca.shape:
        raise ShapeError("spmm: values must be 1-D and aligned with the indices")
    vd, dd = values.data, dense.data

    def bwd(g):
        gv = _sddmm(ra, ca, g, dd) if values.requires_grad else None
        gd = _spmm(ca, ra, vd, g, dd.shape[0]) if dense.requires_grad else None
        return (gv, gd)

    return _out(_spmm(ra, ca, vd, dd, n_rows), (values, dense), bwd, "spmm")


def sddmm(rows, cols, u: Tensor, v: Tensor, product: np.ndarray | None = None) -> Tensor:
    """Sampled dense-dense product: out[e] = <u[rows[e]], v[cols[e]]>.

    Gradient flows to both operands, each as the ``_spmm`` of the edge
    gradients with the other operand. On the dense path ``sddmm(r, c, u, u)``
    takes numpy's symmetric product, so edges (i, j) and (j, i) score the
    same bits. A caller that already holds u v^T passes it as ``product``,
    and the forward gathers from it on either path; the backward is the same.
    """
    if u.data.ndim != 2 or v.data.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ShapeError(f"sddmm: incompatible operands {u.shape} and {v.shape}")
    ra = _index_array(rows, u.shape[0], "sddmm")
    ca = _index_array(cols, v.shape[0], "sddmm")
    if ra.shape != ca.shape:
        raise ShapeError("sddmm: row and column index lengths differ")
    ud, vd = u.data, v.data
    n_u, n_v = ud.shape[0], vd.shape[0]
    if product is not None and product.shape != (n_u, n_v):
        raise ShapeError(f"sddmm: product shape {product.shape} is not {(n_u, n_v)}")

    def bwd(g):
        return (_spmm(ra, ca, g, vd, n_u), _spmm(ca, ra, g, ud, n_v))

    out = _sddmm(ra, ca, ud, vd) if product is None else product[ra, ca]
    return _out(out, (u, v), bwd, "sddmm")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate dLoss/dLeaf into every participating leaf's ``grad``.

    The tape is consumed; calling backward twice on it raises StateError, as
    does backward onto a leaf whose grad was not reset since the last call.
    """
    if loss.data.ndim != 0:
        raise RankError(f"backward requires a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise StateError("tape already consumed by a previous backward call")
    produced = {id(n.output) for n in tape.nodes}
    if id(loss) not in produced:
        raise StateError("loss was not produced on this tape")
    tape.consumed = True

    leaves: dict[int, Tensor] = {}
    for node in tape.nodes:
        for t in node.inputs:
            if t.requires_grad and id(t) not in produced:
                leaves[id(t)] = t

    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(tape.nodes):
        tape.backward_visits += 1
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for t, ig in zip(node.inputs, input_grads):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + ig
            else:
                grads[key] = ig

    for key, leaf in leaves.items():
        if leaf.grad is not None:
            raise StateError("leaf gradient already set; zero grads before backward")
        g = grads.get(key)
        leaf.grad = np.zeros(leaf.shape) if g is None else np.asarray(g, dtype=np.float64)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


def gradient_check(f, inputs: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map the given leaf tensors to a scalar tensor deterministically
    and every input must have requires_grad set. The error per coordinate is
    |analytic - numeric| / max(1, |numeric|); one maximum over every leaf's
    coordinates, NaN if any error is NaN, is the result.
    """
    if not (1e-8 < step < 1e-3):
        raise DomainError(f"step {step} outside (1e-8, 1e-3)")
    inputs = list(inputs)
    for t in inputs:
        if not t.requires_grad:
            raise DomainError("gradient_check inputs must require grad")
        t.zero_grad()

    with Tape() as tape:
        out = f(*inputs)
        if out.data.ndim != 0:
            raise RankError(f"gradient_check target must be scalar, got {out.shape}")
        backward(out, tape)
    analytic = np.concatenate(
        [np.zeros(0)] + [np.zeros(t.size) if t.grad is None else t.grad.reshape(-1) for t in inputs]
    )
    zero_grads(inputs)

    numeric = []
    for t in inputs:
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                fp = float(f(*inputs).data)
                flat[i] = orig - step
                fm = float(f(*inputs).data)
            finally:
                flat[i] = orig
            numeric.append((fp - fm) / (2.0 * step))
    numeric = np.array(numeric)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)), initial=0.0))
