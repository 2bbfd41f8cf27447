"""Graph data model, text-bundle I/O, symmetric normalization, and synthetic
graph generation with seeded noise injectors.

Graphs are undirected and stored once per edge (i < j); both directions are
materialized only inside SparseAdjacency. The degree used for normalization
includes the self-loop: D_ii = 1 + sum_j A_ij.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    MetricError,
    ParseError,
)

BUNDLE_FILES = ("meta.json", "edges.tsv", "features.csv", "labels.csv", "masks.csv")


def canonical_edges(pairs, n: int) -> np.ndarray:
    """Dedupe and sort undirected pairs into an [m, 2] array with i < j."""
    seen = set()
    for a, b in pairs:
        a, b = int(a), int(b)
        if a == b:
            raise DomainError(f"self-loop ({a}, {a}) is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise DomainError(f"edge ({a}, {b}) has endpoint outside [0, {n})")
        seen.add((a, b) if a < b else (b, a))
    if not seen:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(sorted(seen), dtype=np.int64)


@dataclass
class Graph:
    """Node features, undirected edges, labels, and train/val/test masks."""

    features: np.ndarray
    labels: np.ndarray
    edges: np.ndarray  # [m, 2], i < j, lexicographically sorted, unique
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    classes: int = field(default=0)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        for name in ("train_mask", "val_mask", "test_mask"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=bool))
        if self.classes <= 0:
            self.classes = int(self.labels.max()) + 1 if self.labels.size else 0
        self._validate()

    def _validate(self):
        n = self.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ConfigError("features must be [n, d]")
        if np.isnan(self.features).any():
            raise ConfigError("features contain NaN")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise ConfigError(f"labels outside [0, {self.classes})")
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
            raise ConfigError(f"edge endpoint outside [0, {n})")
        if self.edges.size and (self.edges[:, 0] >= self.edges[:, 1]).any():
            raise ConfigError("edges must satisfy i < j")
        masks = [self.train_mask, self.val_mask, self.test_mask]
        for m in masks:
            if m.shape != (n,):
                raise ConfigError("masks must be boolean vectors of length n")
            if not m.any():
                raise ConfigError("every mask must select at least one node")
        if (self.train_mask & self.val_mask).any() or (
            self.train_mask & self.test_mask
        ).any() or (self.val_mask & self.test_mask).any():
            raise ConfigError("masks must be pairwise disjoint")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edges}


@dataclass
class SparseAdjacency:
    """Compressed row-oriented weighted adjacency with differentiable values."""

    row_offsets: np.ndarray  # [n_rows + 1]
    col_indices: np.ndarray  # [nnz]
    values: T.Tensor  # [nnz]
    n_cols: int

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        if (np.diff(self.row_offsets) < 0).any():
            raise ConfigError("row_offsets must be non-decreasing")
        if self.row_offsets[-1] != self.col_indices.shape[0]:
            raise ConfigError("row_offsets end must equal nnz")
        if self.values.shape != (self.col_indices.shape[0],):
            raise ConfigError("values must align with col_indices")
        if self.nnz > 1:
            row_start = np.zeros(self.nnz, dtype=bool)
            starts = self.row_offsets[1:-1]
            row_start[starts[starts < self.nnz]] = True
            bad = (np.diff(self.col_indices) <= 0) & ~row_start[1:]
            if bad.any():
                raise ConfigError("col_indices must increase strictly within each row")

    @property
    def n_rows(self) -> int:
        return int(self.row_offsets.shape[0] - 1)

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    def edge_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))

    def matmul(self, dense: T.Tensor) -> T.Tensor:
        return T.spmm(self.row_offsets, self.col_indices, self.values, dense)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.edge_rows(), self.col_indices] = self.values.data
        return out

    def directed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.edge_rows(), self.col_indices.copy()


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize_entries(
    n: int, src: np.ndarray, dst: np.ndarray, weights: T.Tensor
) -> SparseAdjacency:
    """Differentiable symmetric normalization of directed weighted entries.

    Builds D^{-1/2} (A + I) D^{-1/2} with D_ii = 1 + sum_j A_ij, where A holds
    the given entries (duplicates coalesced by summation) and the +1 is the
    self-loop added here. Gradient flows from the output values back into
    ``weights`` through both the numerator and the degree terms.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weights.data.ndim != 1 or weights.shape[0] != src.shape[0] != dst.shape[0]:
        raise ConfigError("weights must be 1-D and aligned with src/dst")
    if (weights.data < 0).any():
        raise DomainError("negative edge weight passed to normalization")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise DomainError(f"entry endpoint outside [0, {n})")

    deg = T.add(T.segment_sum(weights, src, n), 1.0)
    inv_sqrt = T.pow_const(deg, -0.5)

    diag_ids = np.arange(n, dtype=np.int64)
    all_src = np.concatenate([src, diag_ids])
    all_dst = np.concatenate([dst, diag_ids])
    all_w = T.concat_vec(weights, T.constant(np.ones(n)))

    keys = all_src * n + all_dst
    uniq, inverse = np.unique(keys, return_inverse=True)
    coalesced = T.segment_sum(all_w, inverse, uniq.shape[0])
    u_src = (uniq // n).astype(np.int64)
    u_dst = (uniq % n).astype(np.int64)

    values = T.mul(T.mul(T.take(inv_sqrt, u_src), T.take(inv_sqrt, u_dst)), coalesced)
    row_offsets = np.concatenate([[0], np.cumsum(np.bincount(u_src, minlength=n))])
    return SparseAdjacency(row_offsets, u_dst, values, n)


def normalize_adjacency(g: Graph) -> SparseAdjacency:
    """Symmetrically normalized adjacency with self-loops of ``g``: unit
    weights with both directions materialized, so symmetric by construction."""
    e = g.edges
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    return normalize_entries(g.n, src, dst, T.constant(np.ones(src.shape[0])))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def edge_homophily(g: Graph) -> float:
    """Fraction of undirected edges whose endpoints share a label."""
    if g.num_edges == 0:
        raise MetricError("edge homophily undefined on an empty edge set")
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    return float(same.mean())


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------


def save_bundle(g: Graph, path) -> None:
    """Write a Graph as a UTF-8 text bundle directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {"n": g.n, "d": g.d, "classes": g.classes}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    with open(root / "edges.tsv", "w") as fh:
        for i, j in g.edges:
            fh.write(f"{int(i)}\t{int(j)}\n")
    with open(root / "features.csv", "w") as fh:
        for row in g.features:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    with open(root / "labels.csv", "w") as fh:
        for y in g.labels:
            fh.write(f"{int(y)}\n")
    names = np.where(g.train_mask, "train", np.where(g.val_mask, "val", "test"))
    with open(root / "masks.csv", "w") as fh:
        for s in names:
            fh.write(s + "\n")


def _bundle_lines(root: Path, name: str) -> list[str]:
    p = root / name
    if not p.exists():
        raise ParseError(f"{name}: file missing from bundle {root}")
    try:
        text = p.read_text(encoding="utf-8")  # reads \r\n and \r as \n
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: not UTF-8 text (byte {exc.start})") from None
    # Split at line ends only: str.splitlines also breaks at \x0b, \x0c,
    # \x1c-\x1e, \x85 and U+2028/2029, which would shift every line number.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def load_bundle(path) -> Graph:
    """Parse a bundle directory into a Graph; duplicate/reversed edges merge."""
    root = Path(path)
    meta_lines = _bundle_lines(root, "meta.json")
    try:
        meta = json.loads("\n".join(meta_lines))
    except json.JSONDecodeError as exc:
        raise ParseError(f"meta.json: invalid JSON ({exc})") from None
    if not isinstance(meta, dict) or set(meta) != {"n", "d", "classes"}:
        raise ParseError("meta.json: expected an object with exactly the keys n, d, classes")
    if any(type(v) is not int or v < 0 for v in meta.values()):
        raise ParseError("meta.json: n, d and classes must be non-negative integers")
    n, d, classes = meta["n"], meta["d"], meta["classes"]

    pairs = []
    for ln, line in enumerate(_bundle_lines(root, "edges.tsv"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"edges.tsv line {ln}: expected two node ids")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"edges.tsv line {ln}: non-integer node id") from None
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"edges.tsv line {ln}: node id outside [0, {n})")
        if a == b:
            raise ParseError(f"edges.tsv line {ln}: self-loop not allowed")
        pairs.append((a, b))
    edges = canonical_edges(pairs, n)

    feat_lines = _bundle_lines(root, "features.csv")
    if len(feat_lines) != n:
        raise ParseError(f"features.csv line {len(feat_lines) + 1}: expected {n} rows")
    features = np.zeros((n, d))
    for ln, line in enumerate(feat_lines, start=1):
        parts = line.split(",")
        if len(parts) != d:
            raise ParseError(f"features.csv line {ln}: expected {d} values")
        try:
            row = [float(v) for v in parts]
        except ValueError:
            raise ParseError(f"features.csv line {ln}: non-numeric value") from None
        if any(math.isnan(v) for v in row):
            raise ParseError(f"features.csv line {ln}: NaN feature")
        features[ln - 1] = row

    label_lines = _bundle_lines(root, "labels.csv")
    if len(label_lines) != n:
        raise ParseError(f"labels.csv line {len(label_lines) + 1}: expected {n} rows")
    labels = np.zeros(n, dtype=np.int64)
    for ln, line in enumerate(label_lines, start=1):
        try:
            y = int(line.strip())
        except ValueError:
            raise ParseError(f"labels.csv line {ln}: non-integer label") from None
        if not (0 <= y < classes):
            raise ParseError(f"labels.csv line {ln}: label outside [0, {classes})")
        labels[ln - 1] = y

    mask_lines = _bundle_lines(root, "masks.csv")
    if len(mask_lines) != n:
        raise ParseError(f"masks.csv line {len(mask_lines) + 1}: expected {n} rows")
    masks = {"train": np.zeros(n, bool), "val": np.zeros(n, bool), "test": np.zeros(n, bool)}
    for ln, line in enumerate(mask_lines, start=1):
        token = line.strip()
        if token not in masks:
            raise ParseError(f"masks.csv line {ln}: unknown split {token!r}")
        masks[token][ln - 1] = True

    return Graph(
        features=features,
        labels=labels,
        edges=edges,
        train_mask=masks["train"],
        val_mask=masks["val"],
        test_mask=masks["test"],
        classes=classes,
    )


# ---------------------------------------------------------------------------
# synthetic graphs and noise
# ---------------------------------------------------------------------------


def generate_sbm(
    block_sizes,
    p_in: float,
    p_out: float,
    feature_dim: int,
    feature_noise: float,
    seed: int,
) -> Graph:
    """Stochastic-block-model graph with noisy one-hot block features.

    Features place a 1 at column (block id mod feature_dim) plus Gaussian
    noise of scale ``feature_noise``; labels are block ids; masks are a
    seeded 10/10/80 per-class split (so each block needs >= 3 nodes).
    """
    block_sizes = [int(b) for b in block_sizes]
    if not block_sizes:
        raise ConfigError("at least one block is required")
    if any(b <= 0 for b in block_sizes):
        raise ConfigError("block sizes must be positive")
    if any(b < 3 for b in block_sizes):
        raise ConfigError("each block needs >= 3 nodes for the 10/10/80 split")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ConfigError("edge probabilities must lie in [0, 1]")
    if feature_dim < 1:
        raise ConfigError("feature_dim must be >= 1")

    rng = np.random.default_rng(seed)
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.shape[0]) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)

    features = rng.normal(0.0, 1.0, size=(n, feature_dim)) * float(feature_noise)
    features[np.arange(n), labels % feature_dim] += 1.0

    train = np.zeros(n, bool)
    val = np.zeros(n, bool)
    test = np.zeros(n, bool)
    for c in range(len(block_sizes)):
        ids = np.flatnonzero(labels == c)
        rng.shuffle(ids)
        n_tr = max(1, int(0.1 * ids.size))
        n_va = max(1, int(0.1 * ids.size))
        train[ids[:n_tr]] = True
        val[ids[n_tr : n_tr + n_va]] = True
        test[ids[n_tr + n_va :]] = True

    return Graph(
        features=features,
        labels=labels,
        edges=edges,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        classes=len(block_sizes),
    )


# Upper bound of each noise ratio, by config key; every ratio is >= 0.
NOISE_UPPER = {"add_ratio": math.inf, "del_ratio": 1.0, "feature_mask_ratio": 1.0}


def check_noise_ratios(**ratios: float) -> None:
    for name, value in ratios.items():
        if not (0.0 <= value <= NOISE_UPPER[name]):
            raise ConfigError(f"{name} must lie in [0, {NOISE_UPPER[name]:g}], got {value}")


def inject_structural_noise(
    g: Graph, add_ratio: float, del_ratio: float, seed: int
) -> Graph:
    """Remove floor(del_ratio*m) random edges, then add floor(add_ratio*m)
    random pairs absent from the original edge set. Deterministic under seed.
    """
    check_noise_ratios(add_ratio=add_ratio, del_ratio=del_ratio)
    rng = np.random.default_rng(seed)
    m = g.num_edges
    n_del = int(del_ratio * m)
    n_add = int(add_ratio * m)

    keep_idx = np.arange(m)
    if n_del:
        drop = rng.choice(m, size=n_del, replace=False)
        keep_idx = np.setdiff1d(keep_idx, drop)
    kept = [tuple(e) for e in g.edges[keep_idx]]

    existing = g.edge_set()
    total_pairs = g.n * (g.n - 1) // 2
    capacity = total_pairs - m
    if n_add > capacity:
        raise CapacityError(f"cannot add {n_add} edges; only {capacity} pairs free")

    added: list[tuple[int, int]] = []
    if n_add:
        if 3 * n_add > capacity:
            # Dense request: enumerate the complement and sample exactly.
            iu, ju = np.triu_indices(g.n, k=1)
            free = [
                (int(a), int(b))
                for a, b in zip(iu, ju)
                if (int(a), int(b)) not in existing
            ]
            pick = rng.choice(len(free), size=n_add, replace=False)
            added = [free[i] for i in pick]
        else:
            chosen: set[tuple[int, int]] = set()
            while len(chosen) < n_add:
                a = int(rng.integers(g.n))
                b = int(rng.integers(g.n))
                if a == b:
                    continue
                pair = (a, b) if a < b else (b, a)
                if pair in existing or pair in chosen:
                    continue
                chosen.add(pair)
            added = sorted(chosen)

    return replace(g, edges=canonical_edges(kept + added, g.n))


def mask_features(g: Graph, mask_ratio: float, seed: int) -> Graph:
    """Zero floor(mask_ratio*n*d) uniformly chosen feature entries."""
    check_noise_ratios(feature_mask_ratio=mask_ratio)
    rng = np.random.default_rng(seed)
    total = g.n * g.d
    n_mask = int(mask_ratio * total)
    features = g.features.copy()
    if n_mask:
        idx = rng.choice(total, size=n_mask, replace=False)
        features.reshape(-1)[idx] = 0.0
    return replace(g, features=features)
