"""Two-layer GCN forward pass, task loss, accuracy, Adam, and a FLOP model.

Each GCN layer aggregates over the normalized adjacency, then applies a
dense transform and ReLU as one tape op (``tensor.matmul_relu``); a
separate linear classifier maps the final representations to logits with
no activation in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .graph import SparseAdjacency

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class GcnParams:
    """Stacked layer weights plus an optional linear classifier."""

    layer_weights: list[T.Tensor]
    classifier: T.Tensor | None = None

    def __post_init__(self):
        dims = [w.shape for w in self.layer_weights]
        for a, b in zip(dims, dims[1:]):
            if a[1] != b[0]:
                raise ShapeError(f"layer dims do not chain: {a} then {b}")
        if self.classifier is not None and dims:
            if dims[-1][1] != self.classifier.shape[0]:
                raise ShapeError(
                    f"classifier input {self.classifier.shape[0]} does not match "
                    f"final hidden dim {dims[-1][1]}"
                )

    def named(self, prefix: str) -> dict[str, T.Tensor]:
        out = {f"{prefix}.layer{i}": w for i, w in enumerate(self.layer_weights)}
        if self.classifier is not None:
            out[f"{prefix}.classifier"] = self.classifier
        return out


def make_gcn_params(
    rng: np.random.Generator, dims: list[int], classes: int | None = None
) -> GcnParams:
    """Glorot-uniform initialized parameters for the dim chain ``dims``."""
    weights = [
        T.parameter(glorot(rng, dims[i], dims[i + 1])) for i in range(len(dims) - 1)
    ]
    clf = T.parameter(glorot(rng, dims[-1], classes)) if classes else None
    return GcnParams(weights, clf)


def gcn_forward(
    adj: SparseAdjacency, x: T.Tensor, params: GcnParams
) -> tuple[T.Tensor, T.Tensor | None]:
    """Representations and (if a classifier is present) logits.

    Gradient flows to the layer weights, the input features, and the
    adjacency edge values.
    """
    if adj.n != x.shape[0]:
        raise ShapeError(f"adjacency rows {adj.n} != feature rows {x.shape[0]}")
    h = x
    for w in params.layer_weights:
        h = T.matmul_relu(adj.matmul(h), w)
    logits = T.matmul(h, params.classifier) if params.classifier is not None else None
    return h, logits


def _node_labels(labels, n: int, op: str) -> np.ndarray:
    """``labels`` as an array of one entry per logits row; any other shape
    raises ``ShapeError``, its message starting with ``op``. The entries
    are checked as ids by ``tensor.index_array`` where they are read."""
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise ShapeError(f"{op}: labels must hold one entry per logits row ({n}), got shape {arr.shape}")
    return arr


def task_loss(logits: T.Tensor, labels: np.ndarray, mask: np.ndarray) -> T.Tensor:
    """Mean cross-entropy of the masked nodes via the log-sum-exp trick, as
    one tape op, ``tensor.softmax_cross_entropy``."""
    n = logits.shape[0]
    idx = T.mask_ids(mask, n, "task_loss")
    if idx.size == 0:
        raise ConfigError("task_loss mask selects no nodes")
    return T.softmax_cross_entropy(logits, idx, _node_labels(labels, n, "task_loss")[idx])


def accuracy(logits: T.Tensor, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked nodes whose argmax logit matches the label.

    Ties break toward the smallest class index.
    """
    n = logits.shape[0]
    idx = T.mask_ids(mask, n, "accuracy")
    if idx.size == 0:
        raise ConfigError("accuracy mask selects no nodes")
    true = T.index_array(_node_labels(labels, n, "accuracy")[idx], logits.shape[1], "accuracy labels")
    return float((logits.data[idx].argmax(axis=1) == true).mean())


@dataclass
class TrainState:
    """Named parameters with Adam first/second moments and a step counter."""

    params: dict[str, T.Tensor]
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        for name, p in self.params.items():
            self.m.setdefault(name, np.zeros(p.shape))
            self.v.setdefault(name, np.zeros(p.shape))


def adam_step(state: TrainState, grads: dict[str, np.ndarray], lr: float) -> TrainState:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected)."""
    state.step += 1
    t = state.step
    for name, p in state.params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, want {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def flops_estimate(adj_edge_count: int, layer_dims: list[int], n: int) -> int:
    """Multiply-add count of the GCN layers, which compute (A H) W: per layer
    2*m*d_{l-1} for the aggregation plus 2*n*d_{l-1}*d_l for the transform.

    The aggregation term counts the model's sparse aggregation over the m
    entries, whichever spmm kernel ran it; the dense path's GEMM performs
    2*n*n*d_{l-1} for the same product."""
    total = 0
    for lo, hi in zip(layer_dims, layer_dims[1:]):
        total += 2 * adj_edge_count * lo + 2 * n * lo * hi
    return total


def spectral_norm(w: np.ndarray):
    """Largest singular value, exact to rounding: a float for a matrix, an
    array over the leading axes for a stack of matrices (one SVD call). An
    all-zero or empty matrix has norm 0."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2:
        raise ShapeError("spectral_norm requires a matrix or a stack of matrices")
    if not np.isfinite(w).all():
        raise NumericError("spectral_norm requires finite entries")
    live = w.any(axis=(-2, -1))
    norms = np.zeros(w.shape[:-2])
    if live.any():
        norms[live] = np.linalg.svd(w[live], compute_uv=False)[..., 0]
    return float(norms) if w.ndim == 2 else norms
