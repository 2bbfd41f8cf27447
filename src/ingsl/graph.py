"""Graph data model, text-bundle I/O, symmetric normalization, and synthetic
graph generation with seeded noise injectors.

Graphs are undirected and stored once per edge (i < j); both directions are
materialized only inside SparseAdjacency. The degree used for normalization
includes the self-loop: D_ii = 1 + sum_j A_ij.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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
SPLITS = ("train", "val", "test")  # the tokens of masks.csv


def edge_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The undirected pair {i, j} of each entry as the integer min * n + max.
    Sorted keys are sorted (i, j) pairs."""
    return np.minimum(src, dst) * n + np.maximum(src, dst)


def keys_to_edges(keys: np.ndarray, n: int) -> np.ndarray:
    """The [m, 2] array of pairs (i, j), i < j, for keys from ``edge_keys``."""
    return np.stack([keys // n, keys % n], axis=1)


def both_directions(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of every undirected edge as i -> j, then every one as j -> i."""
    return np.concatenate([edges[:, 0], edges[:, 1]]), np.concatenate([edges[:, 1], edges[:, 0]])


def canonical_edges(pairs, n: int) -> np.ndarray:
    """Dedupe and sort undirected pairs into an [m, 2] array with i < j."""
    e = T.index_array(np.reshape(pairs, -1), n, "canonical_edges").reshape(-1, 2)
    loops = np.flatnonzero(e[:, 0] == e[:, 1])
    if loops.size:
        a = int(e[loops[0], 0])
        raise DomainError(f"self-loop ({a}, {a}) is not allowed")
    return keys_to_edges(np.unique(edge_keys(e[:, 0], e[:, 1], n)), n)


@dataclass
class Graph:
    """Node features, undirected edges, labels, and train/val/test masks.

    Labels and edge endpoints are id arrays checked by ``T.index_array``:
    labels lie in [0, classes) and endpoints in [0, n). Each mask is a node
    mask checked by ``T.mask_ids``."""

    features: np.ndarray
    labels: np.ndarray
    edges: np.ndarray  # [m, 2], i < j, lexicographically sorted, unique
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    classes: int

    def __post_init__(self):
        if self.classes < 1:
            raise ConfigError(f"classes must be >= 1, got {self.classes}")
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = T.index_array(self.labels, self.classes, "Graph labels")
        edges = T.index_array(np.reshape(self.edges, -1), self.n, "Graph edges")
        self.edges = edges.reshape(-1, 2)
        for name in ("train_mask", "val_mask", "test_mask"):
            mask = np.asarray(getattr(self, name))
            if T.mask_ids(mask, self.n, f"Graph {name}").size == 0:
                raise ConfigError("every mask must select at least one node")
            setattr(self, name, mask)
        self._validate()

    def _validate(self):
        n = self.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ConfigError("features must be [n, d]")
        if not np.isfinite(self.features).all():
            raise ConfigError("features contain NaN or infinite values")
        if (self.edges[:, 0] >= self.edges[:, 1]).any():
            raise ConfigError("edges must satisfy i < j")
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


@dataclass
class SparseAdjacency:
    """Weighted n x n adjacency with differentiable values: entry e puts
    ``values[e]`` at (``row_indices[e]``, ``col_indices[e]``). Entries are in
    row-major order with no repeated cell. Each index array is an id array
    in [0, n), checked by ``T.index_array``."""

    row_indices: np.ndarray  # [nnz]
    col_indices: np.ndarray  # [nnz]
    values: T.Tensor  # [nnz]
    n: int

    def __post_init__(self):
        n = self.n
        rows = self.row_indices = T.index_array(self.row_indices, n, "SparseAdjacency rows")
        cols = self.col_indices = T.index_array(self.col_indices, n, "SparseAdjacency cols")
        if rows.shape != cols.shape or self.values.shape != cols.shape:
            raise ConfigError("row_indices, col_indices and values must be 1-D and aligned")
        # In range, the cell keys row * n + col cannot overflow.
        keys = rows * n
        keys += cols
        if (keys[1:] <= keys[:-1]).any():
            raise ConfigError("entries must be in row-major order with no repeated cell")

    @property
    def n_rows(self) -> int:
        """Read-only alias of ``n``, read by the benchmark's GCN flop hook."""
        return self.n

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    def matmul(self, dense: T.Tensor) -> T.Tensor:
        return T.spmm(self.row_indices, self.col_indices, self.values, dense, self.n)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.row_indices, self.col_indices] = self.values.data
        return out

    def directed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.row_indices.copy(), self.col_indices.copy()


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
    src = T.index_array(src, n, "normalize_entries src")
    dst = T.index_array(dst, n, "normalize_entries dst")
    if weights.data.ndim != 1 or not weights.shape[0] == src.shape[0] == dst.shape[0]:
        raise ConfigError("weights must be 1-D and aligned with src/dst")
    if (weights.data < 0).any():
        raise DomainError("negative edge weight passed to normalization")

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
    return SparseAdjacency(u_src, u_dst, values, n)


def normalize_adjacency(g: Graph) -> SparseAdjacency:
    """Symmetrically normalized adjacency with self-loops of ``g``: unit
    weights with both directions materialized, so symmetric by construction."""
    src, dst = both_directions(g.edges)
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
    _write_lines(root / "edges.tsv", (f"{i}\t{j}" for i, j in g.edges.tolist()))
    _write_lines(root / "features.csv", (",".join(f"{v:.17g}" for v in row) for row in g.features))
    _write_lines(root / "labels.csv", map(str, g.labels.tolist()))
    names = np.where(g.train_mask, "train", np.where(g.val_mask, "val", "test"))
    _write_lines(root / "masks.csv", names)


def _write_lines(path: Path, lines) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


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


def _bundle_rows(root: Path, name: str, parse, n: int | None = None) -> list:
    """``parse`` of each line of ``name``, which must have exactly n lines
    unless n is None. A ParseError from ``parse`` gets ``<name> line N:``
    in front."""
    lines = _bundle_lines(root, name)
    if n is not None and len(lines) != n:
        raise ParseError(f"{name} line {len(lines) + 1}: expected {n} rows")
    rows = []
    for ln, line in enumerate(lines, start=1):
        try:
            rows.append(parse(line))
        except ParseError as exc:
            raise ParseError(f"{name} line {ln}: {exc}") from None
    return rows


def load_bundle(path) -> Graph:
    """Parse a bundle directory into a Graph; duplicate/reversed edges merge."""
    root = Path(path)
    meta_lines = _bundle_lines(root, "meta.json")
    try:
        meta = json.loads("\n".join(meta_lines))
    except (ValueError, RecursionError) as exc:  # ValueError: an int too long to convert
        raise ParseError(f"meta.json: invalid JSON ({exc})") from None
    if not isinstance(meta, dict) or set(meta) != {"n", "d", "classes"}:
        raise ParseError("meta.json: expected an object with exactly the keys n, d, classes")
    if any(type(v) is not int or v < 0 for v in meta.values()):
        raise ParseError("meta.json: n, d and classes must be non-negative integers")
    n, d, classes = meta["n"], meta["d"], meta["classes"]

    def edge(line: str) -> tuple[int, int] | None:
        if not line.strip():
            return None
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected two node ids")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer node id") from None
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"node id outside [0, {n})")
        if a == b:
            raise ParseError("self-loop not allowed")
        return a, b

    def feature_row(line: str) -> list[float]:
        parts = line.split(",")
        if len(parts) != d:
            raise ParseError(f"expected {d} values")
        try:
            row = [float(v) for v in parts]
        except ValueError:
            raise ParseError("non-numeric value") from None
        if not all(math.isfinite(v) for v in row):
            raise ParseError("non-finite feature")
        return row

    def label(line: str) -> int:
        try:
            y = int(line.strip())
        except ValueError:
            raise ParseError("non-integer label") from None
        if not (0 <= y < classes):
            raise ParseError(f"label outside [0, {classes})")
        return y

    def split(line: str) -> str:
        token = line.strip()
        if token not in SPLITS:
            raise ParseError(f"unknown split {token!r}")
        return token

    pairs = [p for p in _bundle_rows(root, "edges.tsv", edge) if p is not None]
    edges = canonical_edges(pairs, n)
    features = np.array(_bundle_rows(root, "features.csv", feature_row, n), dtype=np.float64)
    labels = np.array(_bundle_rows(root, "labels.csv", label, n), dtype=np.int64)
    splits = _bundle_rows(root, "masks.csv", split, n)
    return Graph(
        features=features.reshape(n, d),
        labels=labels,
        edges=edges,
        classes=classes,
        **{f"{s}_mask": np.array([t == s for t in splits], dtype=bool) for s in SPLITS},
    )


# ---------------------------------------------------------------------------
# synthetic graphs and noise
# ---------------------------------------------------------------------------


# generate_sbm draws the node pairs in blocks of rows spanning at most this
# many cells, so its memory grows with n times the block, not with n^2.
_SBM_BLOCK = 1 << 16


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

    # The pairs i < j in row-major order, drawn a block of rows at a time:
    # consecutive draws from one generator give the same doubles as a single
    # draw, so the edges do not depend on the block size.
    step = max(1, _SBM_BLOCK // n)
    parts = []
    for lo in range(0, n, step):
        iu, ju = np.triu_indices(min(step, n - lo), k=lo + 1, m=n)
        iu += lo
        prob = np.where(labels[iu] == labels[ju], p_in, p_out)
        keep = rng.random(iu.shape[0]) < prob
        parts.append(np.stack([iu[keep], ju[keep]], axis=1))
    edges = np.concatenate(parts).astype(np.int64, copy=False)

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
    n, m = g.n, g.num_edges
    n_del = int(del_ratio * m)
    n_add = int(add_ratio * m)

    existing = edge_keys(*g.edges.T, n)
    kept = existing
    if n_del:
        kept = np.delete(existing, rng.choice(m, size=n_del, replace=False))

    capacity = n * (n - 1) // 2 - m
    if n_add > capacity:
        raise CapacityError(f"cannot add {n_add} edges; only {capacity} pairs free")

    if 3 * n_add > capacity:
        # Dense request: enumerate the complement and sample exactly.
        iu, ju = np.triu_indices(n, k=1)
        free = np.setdiff1d(edge_keys(iu, ju, n), existing, assume_unique=True)
        added = free[rng.choice(free.size, size=n_add, replace=False)]
    else:
        taken, new = set(existing.tolist()), []
        while len(new) < n_add:
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            key = int(edge_keys(a, b, n))
            if a != b and key not in taken:
                taken.add(key)
                new.append(key)
        added = np.array(new, dtype=np.int64)

    return replace(g, edges=keys_to_edges(np.union1d(kept, added), n))


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
