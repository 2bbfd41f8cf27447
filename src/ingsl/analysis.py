"""Randomized verification of the two redundancy bounds, the neighbor-
similarity diagnostic, and the closed-form cost model.

Bound 1: if N unit vectors all have cosine >= eps with a common anchor, their
average pairwise cosine is at least (N*eps^2 - 1)/(N - 1).

Bound 2: if a node's neighbors share its representation norm and have cosine
>= eps with it, one extra convex aggregation step changes the cross-entropy
loss by at most 2*B*||W_c||_2*sqrt(1-eps).

Trials derive their randomness from (seed, trial index), so results are
independent of execution order. Each trial draws all of its neighbors in one
``sample_cone`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, MetricError
from .gnn import spectral_norm
from .gsl import _first_k

BOUND_TOL = 1e-9
_LEMMA2_MAX_NEIGHBORS = 8


@dataclass
class LemmaReport:
    """Tally of randomized bound checks.

    ``max_slack`` is the worst (most negative) signed margin in the safe
    direction; any margin below -BOUND_TOL counts as a violation.
    """

    trials: int
    violations: int
    max_slack: float
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "max_slack": self.max_slack,
            "config": self.config,
        }


def avg_pairwise_similarity(vectors) -> float:
    """Mean cosine over all unordered pairs of rows."""
    data = vectors.data if isinstance(vectors, T.Tensor) else np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise MetricError("pairwise similarity needs at least two vectors")
    norms = np.linalg.norm(data, axis=1)
    if not T.nonzero_rows(data, norms).all():
        raise MetricError("pairwise similarity undefined for zero rows")
    unit = data / norms[:, None]
    total = unit.sum(axis=0)  # |sum u|^2 = sum |u_i|^2 + 2 * (sum over pairs)
    n = data.shape[0]
    return float((total @ total - np.einsum("ij,ij->", unit, unit)) / (n * (n - 1)))


def lemma1_bound(n_neighbors: int, eps: float) -> float:
    """(N*eps^2 - 1)/(N - 1), the floor on average pairwise neighbor cosine."""
    if n_neighbors < 2:
        raise DomainError("the bound needs at least two neighbors")
    return (n_neighbors * eps * eps - 1.0) / (n_neighbors - 1.0)


def _unit_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def cone_points(anchor: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows c*anchor + sqrt(1-c^2)*unit(w ⟂ anchor), or the anchor where |w ⟂ anchor| < 1e-12."""
    w = w - np.outer(w @ anchor, anchor)
    norm = np.linalg.norm(w, axis=1, keepdims=True)
    flat = norm < 1e-12
    w /= np.where(flat, 1.0, norm)
    u = c[:, None] * anchor + np.sqrt(np.maximum(0.0, 1.0 - c * c))[:, None] * w
    return np.where(flat, anchor, u)


def sample_cone(rng: np.random.Generator, anchor: np.ndarray, eps: float, n: int) -> np.ndarray:
    """n unit vectors with cosine >= eps to the unit anchor, c uniform in [eps, 1]."""
    return cone_points(anchor, rng.uniform(eps, 1.0, n), rng.standard_normal((n, len(anchor))))


def lemma1_check(
    trials: int,
    dim_range=(2, 32),
    n_range=(2, 50),
    eps_range=(0.0, 0.99),
    seed: int = 0,
) -> LemmaReport:
    """Sample neighbor cones and verify the average-similarity floor."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if n_range[0] < 2 or dim_range[0] < 2 or not (0 <= eps_range[0] <= eps_range[1] <= 1):
        raise ConfigError("infeasible sampling ranges")
    violations = 0
    worst = np.inf
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        eps = rng.uniform(eps_range[0], eps_range[1])
        anchor = _unit_sphere(rng, dim)
        neighbors = sample_cone(rng, anchor, eps, n)
        observed = avg_pairwise_similarity(neighbors)
        margin = observed - lemma1_bound(n, eps)
        if margin < worst:
            worst = margin
        if margin < -BOUND_TOL:
            violations += 1
    return LemmaReport(
        trials=trials,
        violations=violations,
        max_slack=float(worst),
        config={
            "dim_range": list(dim_range),
            "n_range": list(n_range),
            "eps_range": list(eps_range),
            "seed": seed,
        },
    )


def _cross_entropy(z: np.ndarray, w: np.ndarray, label: int) -> float:
    logits = z @ w
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


def lemma2_check(
    trials: int,
    dim_range=(2, 16),
    class_range=(2, 8),
    eps_range=(0.0, 0.99),
    b_range=(0.1, 5.0),
    seed: int = 0,
) -> LemmaReport:
    """Sample one aggregation step and verify the loss-change ceiling.

    Anchor and neighbors share a common representation norm drawn in
    (0, B]; neighbors sit in the cosine cone around the anchor and the
    aggregation weights are non-negative and sum to one.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if dim_range[0] < 2 or class_range[0] < 2 or b_range[0] <= 0:
        raise ConfigError("infeasible sampling ranges")
    violations = 0
    worst = np.inf
    for t in range(trials):
        rng = np.random.default_rng([seed, 1, t])
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        classes = int(rng.integers(class_range[0], class_range[1] + 1))
        n = int(rng.integers(1, _LEMMA2_MAX_NEIGHBORS + 1))
        eps = rng.uniform(eps_range[0], eps_range[1])
        b_norm = rng.uniform(b_range[0], b_range[1])
        rho = rng.uniform(0.0, 1.0) * b_norm

        anchor_dir = _unit_sphere(rng, dim)
        z_i = rho * anchor_dir
        neighbors = rho * sample_cone(rng, anchor_dir, eps, n)
        weights = rng.uniform(0.0, 1.0, n)
        total = weights.sum()
        weights = np.full(n, 1.0 / n) if total <= 0 else weights / total
        z_next = weights @ neighbors

        w_c = rng.standard_normal((dim, classes))
        label = int(rng.integers(classes))
        lhs = abs(_cross_entropy(z_next, w_c, label) - _cross_entropy(z_i, w_c, label))
        rhs = 2.0 * b_norm * spectral_norm(w_c) * np.sqrt(1.0 - eps)
        margin = rhs - lhs
        if margin < worst:
            worst = margin
        if margin < -BOUND_TOL:
            violations += 1
    return LemmaReport(
        trials=trials,
        violations=violations,
        max_slack=float(worst),
        config={
            "dim_range": list(dim_range),
            "class_range": list(class_range),
            "eps_range": list(eps_range),
            "b_range": list(b_range),
            "seed": seed,
        },
    )


def redundancy_profile(e, k_values) -> list[tuple[int, float]]:
    """Mean over nodes of the average pairwise cosine among each node's top-k
    most cosine-similar other nodes, for each requested k.

    Zero rows (``tensor.nonzero_rows``) have no cosine and are left out, both
    as nodes and as neighbors. Selection uses cosine so the profile is invariant
    under row-wise positive rescaling. Nodes need >= 2 neighbors to
    contribute; for k < 2 the entry is NaN.
    """
    data = e.data if isinstance(e, T.Tensor) else np.asarray(e, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("embeddings must be 2-D")
    data = data[T.nonzero_rows(data)]
    n = data.shape[0]
    k_values = [int(k) for k in k_values]
    if any(k < 1 for k in k_values):
        raise ConfigError("k values must be >= 1")
    if max(k_values) >= n:
        raise ConfigError(f"max k must be < {n}, the number of non-zero rows")
    unit = data / np.linalg.norm(data, axis=1)[:, None]
    # The first max(k) columns of each row's stable ascending sort of -sim
    # (ties to the smaller column), without sorting the whole row: take
    # that set, order it by column, then stably by value.
    neg = unit @ unit.T
    np.negative(neg, out=neg)
    np.fill_diagonal(neg, np.inf)
    cols = np.sort(_first_k(neg, max(k_values)), axis=1)
    vals = np.take_along_axis(neg, cols, axis=1)
    order = np.take_along_axis(cols, np.argsort(vals, axis=1, kind="stable"), axis=1)

    out: list[tuple[int, float]] = []
    for k in k_values:
        if k < 2:
            out.append((k, float("nan")))
            continue
        scores = [
            avg_pairwise_similarity(data[order[i, :k]]) for i in range(n)
        ]
        out.append((k, float(np.mean(scores))))
    return out


def complexity_estimate(
    n: int, d: int, m: int, r: float, layers: int, b_size: int
) -> float:
    """Extra operation count of the pruning pipeline:
    n*d*(d + b_size + layers*d + 1) + m*(layers*r*d + d + 1).

    Returned unrounded so linearity in each argument is exact.
    """
    if min(n, d, m, layers, b_size) < 0:
        raise ConfigError("all arguments must be non-negative")
    if not (0.0 <= r < 1.0):
        raise ConfigError(f"reduction level must lie in [0, 1), got {r}")
    return float(n * d * (d + b_size + layers * d + 1) + m * (layers * r * d + d + 1))
