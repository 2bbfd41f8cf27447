"""Embedding-based structure learning baseline: auxiliary encoder, top-K
candidate construction, the feature-smoothness regularizer, and residual
fusion of the learned candidates with the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, ShapeError
from .gnn import GcnParams, gcn_forward
from .graph import Graph, SparseAdjacency, both_directions, normalize_entries


@dataclass
class CandidateGraph:
    """Row-wise top-K similarity graph over learned embeddings."""

    sparse: SparseAdjacency

    @property
    def n(self) -> int:
        return self.sparse.n

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.sparse.directed_pairs()


def encode_structure(
    a_norm: SparseAdjacency, x: T.Tensor, params_s: GcnParams
) -> T.Tensor:
    """Auxiliary GCN encoder run on the original normalized adjacency."""
    e, _ = gcn_forward(a_norm, x, params_s)
    return e


METRICS = ("inner", "cosine")


# _first_k works on blocks of rows that span at most this many cells, so its
# index array and masks stay small beside the n x n similarity. A 200-node
# graph is one block.
_RANK_BLOCK = 1 << 16


def _first_k(neg: np.ndarray, k: int) -> np.ndarray:
    """Per row, the columns of the first k entries of a stable ascending
    sort: the k smallest, ties toward the smaller column, NaN last.

    A partition finds k smallest entries per row. A row whose k-th smallest
    value v has exactly k entries ``<= v`` has one such set, so the
    partition's columns are the sort's. Any other row has ties straddling
    the boundary, or a NaN, and only those rows are stably sorted. Rows are
    independent, so they are ranked in blocks of ``_RANK_BLOCK`` cells.
    """
    n_rows, n_cols = neg.shape
    out = np.empty((n_rows, k), dtype=np.intp)
    step = max(1, _RANK_BLOCK // n_cols)
    for lo in range(0, n_rows, step):
        block = neg[lo : lo + step]
        part = np.argpartition(block, k - 1, axis=1)[:, :k]
        kth = block[np.arange(block.shape[0]), part[:, k - 1]]
        tied = np.flatnonzero(np.count_nonzero(block <= kth[:, None], axis=1) != k)
        if tied.size:
            part[tied] = np.argsort(block[tied], axis=1, kind="stable")[:, :k]
        out[lo : lo + step] = part
    return out


def build_candidates(e: T.Tensor, k: int, metric: str = "inner") -> CandidateGraph:
    """Keep the k most similar other nodes per row of the embedding matrix.

    Similarity is the inner product by default ("cosine" normalizes rows
    first). Selection is detached; gradient flows only into the kept entries.
    Ties break toward the smaller column index. Each kept entry is scored
    with the similarity it was ranked by, taken from the one symmetric
    product, so i->j and j->i share their bits. The result is row-wise and
    not symmetrized.
    """
    if e.data.ndim != 2:
        raise ShapeError(f"embeddings must be 2-D, got {e.shape}")
    n = e.shape[0]
    if k < 1 or k >= n:
        raise ConfigError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if metric not in METRICS:
        raise ConfigError(f"unknown similarity metric {metric!r}")

    base = T.row_l2_normalize_or_zero(e) if metric == "cosine" else e
    neg = base.data @ base.data.T
    np.negative(neg, out=neg)
    np.fill_diagonal(neg, np.inf)
    cols = np.sort(_first_k(neg, k), axis=1)
    sim = np.negative(neg, out=neg)  # in place; the diagonal reads -inf

    src = np.repeat(np.arange(n), k)
    dst = cols.reshape(-1)
    values = T.sddmm(src, dst, base, base, product=sim)
    return CandidateGraph(sparse=SparseAdjacency(src, dst, values, n))


def feature_smoothness(
    values: T.Tensor, src: np.ndarray, dst: np.ndarray, features: np.ndarray
) -> T.Tensor:
    """Built-in regularizer: mean of edge weight times squared feature gap."""
    diff = features[np.asarray(src)] - features[np.asarray(dst)]
    cost = T.constant((diff**2).sum(axis=1))
    return T.mul(T.sum_all(T.mul(values, cost)), 1.0 / max(1, values.shape[0]))


def fuse_with_original(
    a: Graph, sparse: SparseAdjacency, residual_weight: float = 1.0
) -> SparseAdjacency:
    """Normalize the edge-value union of the original graph and the learned
    candidates scaled by ``residual_weight``. Original edges carry unit weight
    in both directions; candidate entries stay directed as given. With no
    candidate entries this is ``normalize_adjacency(a)``, bit for bit.
    """
    if residual_weight < 0:
        raise DomainError("residual_weight must be non-negative")
    src, dst = both_directions(a.edges)
    all_src = np.concatenate([src, sparse.row_indices])
    all_dst = np.concatenate([dst, sparse.col_indices])
    base_w = T.constant(np.ones(src.shape[0]))
    all_w = T.concat_vec(base_w, T.mul(sparse.values, float(residual_weight)))
    return normalize_entries(a.n, all_src, all_dst, all_w)
