"""Diversity-guided edge pruning with a mutual-information training signal.

Candidate edges from the similarity graph are rescored by a learnable
diversity function, passed through a thresholded sigmoid (scores below the
threshold drop the edge, survivors keep a weight in (0, 1)), and the task GNN
is trained jointly on the pruned structure. A softmax-contrastive term ties
representations from the pruned graph to those from the full candidate graph
so that the surviving edges stay informative rather than merely similar.

The keep/drop decision is a hard mask treated as a stop-gradient; gradient
flows only through the sigmoid values of surviving edges. The threshold is
re-selected every epoch as the quantile matching the requested edge-reduction
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .gnn import (
    GcnParams,
    TrainState,
    accuracy,
    adam_step,
    flops_estimate,
    gcn_forward,
    glorot,
    make_gcn_params,
    task_loss,
)
from .graph import Graph, SparseAdjacency, edge_keys, normalize_adjacency
from .gsl import (
    METRICS,
    CandidateGraph,
    build_candidates,
    encode_structure,
    feature_smoothness,
    fuse_with_original,
)

SCORER_KINDS = ("bilinear", "mlp")
KEEP_ALL = float("-inf")  # sentinel threshold: every candidate survives


# ---------------------------------------------------------------------------
# diversity scoring
# ---------------------------------------------------------------------------


@dataclass
class DiversityScorer:
    """Learnable per-edge score, either bilinear or a bias-free two-layer MLP.

    ``params`` holds its tensors under their ``TrainResult.params`` names:
    ``scorer.bilinear`` [h, h], or ``scorer.mlp_hidden`` [2h, h] and
    ``scorer.mlp_out`` [h, 1]. ``make_scorer`` is the one place that names
    them."""

    kind: str
    params: dict[str, T.Tensor]


def make_scorer(kind: str, h: int, rng: np.random.Generator) -> DiversityScorer:
    if kind == "bilinear":
        return DiversityScorer(kind, {"scorer.bilinear": T.parameter(glorot(rng, h, h))})
    if kind == "mlp":
        hidden, out = T.parameter(glorot(rng, 2 * h, h)), T.parameter(glorot(rng, h, 1))
        return DiversityScorer(kind, {"scorer.mlp_hidden": hidden, "scorer.mlp_out": out})
    raise ConfigError(f"unknown scorer kind {kind!r}")


def diversity_scores(
    e: T.Tensor, src: np.ndarray, dst: np.ndarray, scorer: DiversityScorer
) -> T.Tensor:
    """One score per candidate edge, computed per edge (never n x n).

    Bilinear: E_i W E_j^T. MLP: second layer over ReLU of the concatenated
    endpoint embeddings. Gradient reaches the scorer parameters and E.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ShapeError("src and dst index lengths differ")
    p = scorer.params
    if scorer.kind == "bilinear":
        # (E W)[i] . E[j]: transform the n embeddings once, then score edges.
        return T.sddmm(src, dst, T.matmul(e, p["scorer.bilinear"]), e)
    heads = T.gather_rows(e, src)
    tails = T.gather_rows(e, dst)
    hidden = T.matmul_relu(T.concat_cols(heads, tails), p["scorer.mlp_hidden"])
    return T.reshape(T.matmul(hidden, p["scorer.mlp_out"]), (src.shape[0],))


# ---------------------------------------------------------------------------
# thresholded pruning
# ---------------------------------------------------------------------------


def keep_count(m: int, r: float) -> int:
    """ceil((1-r)*m) with a 1e-9 slack so float round-off at integer
    boundaries (e.g. r = 1 - 1/m) cannot overshoot the true ceiling."""
    if m < 1:
        raise ConfigError("keep_count needs at least one candidate")
    if not (0.0 <= r < 1.0):
        raise ConfigError(f"reduction level must lie in [0, 1), got {r}")
    return min(m, max(1, math.ceil((1.0 - r) * m - 1e-9)))


def select_threshold(x_values, r: float) -> float:
    """Value of the keep_count(m, r)-th largest entry, so that thresholding
    at it keeps exactly that many entries when no others tie with the
    boundary.

    NaN ranks below every number. The value does not depend on how ties are
    ordered, so a partition finds it; among tied zeros, which sign comes
    back is unspecified, and no ``>=`` tells them apart.
    """
    x = x_values.data if isinstance(x_values, T.Tensor) else np.asarray(x_values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("threshold selection needs a non-empty 1-D score vector")
    keep = keep_count(x.size, r)
    return float(-np.partition(-x, keep - 1)[keep - 1])


def _subset(sparse: SparseAdjacency, kept: np.ndarray, values: T.Tensor) -> SparseAdjacency:
    """The entries at the ascending indices ``kept``, carrying ``values``."""
    return SparseAdjacency(sparse.row_indices[kept], sparse.col_indices[kept], values, sparse.n)


def prune(s: CandidateGraph, w: T.Tensor, eps_thr: float) -> SparseAdjacency:
    """Apply the thresholded sigmoid to per-edge products S_ij * w_ij.

    Edges with product >= eps_thr survive with weight sigmoid(product),
    differentiable through both factors; the rest leave the structure. Use
    KEEP_ALL to retain every edge.
    """
    vals = s.sparse.values
    if w.shape != vals.shape:
        raise ShapeError(f"score vector {w.shape} misaligned with edges {vals.shape}")
    x = T.mul(vals, w)
    kept = np.flatnonzero(x.data >= eps_thr)
    return _subset(s.sparse, kept, T.sigmoid(T.take(x, kept)))


def _keep_top_similar(sim: np.ndarray, r: float, rng) -> np.ndarray | None:
    return None if r == 0.0 else np.flatnonzero(sim >= select_threshold(sim, r))


def _keep_uniform(sim: np.ndarray, r: float, rng: np.random.Generator) -> np.ndarray:
    return sample_batch(sim.size, keep_count(sim.size, r), rng)


# The one definition of each mode, the method first: name -> keep rule. A
# keep rule maps candidate similarities, r and the epoch's generator to kept
# indices, or to None to keep all; the method has none, as it prunes by the
# learned scorer and trains the contrastive term.
MODE_TABLE = {
    "ingsl": None,
    "similarity_only": _keep_top_similar,
    "random_prune": _keep_uniform,
    "no_reduction": lambda sim, r, rng: None,
}
MODES = tuple(MODE_TABLE)


# ---------------------------------------------------------------------------
# mutual-information objective
# ---------------------------------------------------------------------------


def sample_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform node-id sample without replacement, sorted for determinism."""
    if size < 1 or size > n:
        raise ConfigError(f"batch size must lie in [1, {n}], got {size}")
    return np.sort(rng.choice(n, size=size, replace=False))


def mi_loss(z_tilde: T.Tensor, z: T.Tensor, batch) -> T.Tensor:
    """Softmax-contrastive estimate of shared information between the pruned-
    and full-graph representations (negated, so lower is better).

    Per anchor i the positive is cos(z_tilde_i, z_i); the denominator sums
    exp(cosine) over the sampled node-id set ``batch`` plus the anchor's own
    positive, so every per-anchor term is non-negative.
    """
    n = z_tilde.shape[0]
    if z.shape != z_tilde.shape:
        raise ShapeError(f"representation shapes differ: {z_tilde.shape} vs {z.shape}")
    ids = np.asarray(batch, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ConfigError("batch must be a non-empty 1-D id set")
    if ids.size > n:
        raise ConfigError(f"batch size {ids.size} exceeds node count {n}")
    if np.unique(ids).size != ids.size:
        raise ConfigError("batch ids must be distinct")
    if ids.min() < 0 or ids.max() >= n:
        raise ConfigError(f"batch id outside [0, {n})")

    zt = T.row_l2_normalize(z_tilde)
    zn = T.row_l2_normalize(z)
    pos = T.rowwise_dot(zt, zn)
    cos_batch = T.matmul(zt, T.transpose(T.gather_rows(zn, ids)))
    denom = T.row_sum(T.exp(cos_batch))
    outside = np.ones(n)
    outside[ids] = 0.0
    denom = T.add(denom, T.mul(T.exp(pos), T.constant(outside)))
    return T.mul(T.sum_all(T.sub(T.log(denom), pos)), 1.0 / n)


# ---------------------------------------------------------------------------
# joint training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Settings of one training run, and the one definition of each: the
    annotation is its type, the default applies where a config leaves it
    out and ``__post_init__`` holds its range. A config file's training keys
    are these fields (by name, or ``metadata["key"]``) apart from the
    cell's own ``mode``, ``reduction`` and ``seed``."""

    mode: str = MODES[0]
    reduction: float = 0.5
    seed: int = 0
    k: int = 30
    beta: float = 0.5
    lam: float = field(default=0.0, metadata={"key": "lambda"})
    scorer_kind: str = "bilinear"
    lr: float = 1e-2
    epochs: int = 300
    patience: int = 50
    batch_size: int | None = None  # None -> min(n, 256)
    residual_weight: float = 1.0
    hidden: int = 128
    metric: str = "inner"

    def __post_init__(self):
        if not (0.0 <= self.reduction < 1.0):
            raise ConfigError(f"reduction must lie in [0, 1), got {self.reduction}")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODE_TABLE:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.scorer_kind not in SCORER_KINDS:
            raise ConfigError(f"scorer_kind must be one of {SCORER_KINDS}, got {self.scorer_kind!r}")
        for name in ("k", "hidden", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (1e-5 <= self.lr <= 5e-2):
            raise ConfigError(f"lr must lie in [1e-5, 5e-2], got {self.lr}")
        if not (self.lam >= 0):
            raise ConfigError("lambda must be non-negative")
        if not (self.residual_weight >= 0):
            raise ConfigError("residual_weight must be non-negative")


@dataclass
class RunReport:
    """Metrics of one run at its best-validation epoch, one field per key of
    a report cell."""

    mode: str
    r: float
    seed: int
    test_acc: float
    val_acc: float
    best_epoch: int
    epochs_run: int
    edges_candidate: int
    edges_final: int
    edges_additional: int
    edge_multiple: float
    flops: int  # gnn.flops_estimate of the fused graph the best epoch ran on


@dataclass
class TrainResult:
    params: dict[str, T.Tensor]  # restored to the best epoch
    pruned: SparseAdjacency  # surviving structure at the best epoch, detached
    embeddings: np.ndarray  # encoder output at the best epoch
    report: RunReport


def _edge_stats(s: SparseAdjacency, g: Graph) -> tuple[int, int]:
    """Directed entries absent from the original graph, and the count of
    distinct undirected pairs among them."""
    keys = edge_keys(*s.directed_pairs(), g.n)
    new = keys[~np.isin(keys, edge_keys(*g.edges.T, g.n))]
    return int(new.size), int(np.unique(new).size)


def _structure_for_epoch(
    x: T.Tensor,
    a_hat: SparseAdjacency,
    params_s: GcnParams,
    scorer: DiversityScorer | None,
    cfg: TrainConfig,
    epoch: int,
) -> tuple[T.Tensor, SparseAdjacency, SparseAdjacency]:
    """Encoder embeddings, candidate structure, and the mode's pruned structure."""
    e = encode_structure(a_hat, x, params_s)
    cand = build_candidates(e, cfg.k, cfg.metric)
    candidates, r = cand.sparse, cfg.reduction
    sim = candidates.values
    if scorer is not None:
        w = diversity_scores(e, *candidates.directed_pairs(), scorer)
        return e, candidates, prune(cand, w, select_threshold(sim.data * w.data, r))
    rng = np.random.default_rng([cfg.seed, 2, epoch])
    kept = MODE_TABLE[cfg.mode](sim.data, r, rng)
    if kept is None:
        return e, candidates, candidates
    return e, candidates, _subset(candidates, kept, T.take(sim, kept))


def train_ingsl(g: Graph, cfg: TrainConfig) -> TrainResult:
    """Jointly train the encoder, task GNN, and (for the learned rule) the
    diversity scorer; returns the parameters and pruned structure from the
    epoch with the best validation accuracy.

    Deterministic given (config, seed). Baseline modes reuse the same loop
    with their ``MODE_TABLE`` keep rule in place of the learned rule.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    dims = [g.d, cfg.hidden, cfg.hidden]
    params_t = make_gcn_params(rng, dims, g.classes)
    params_s = make_gcn_params(rng, dims, None)
    named = {**params_t.named("gnn_t"), **params_s.named("gnn_s")}
    scorer = None
    if MODE_TABLE[cfg.mode] is None:
        scorer = make_scorer(cfg.scorer_kind, cfg.hidden, rng)
        named.update(scorer.params)
    state = TrainState(named)

    a_hat = normalize_adjacency(g)
    x = T.constant(g.features)
    batch_size = cfg.batch_size or min(g.n, 256)

    best, since_best = None, 0

    def forward(epoch: int) -> tuple:
        e, candidates, s = _structure_for_epoch(x, a_hat, params_s, scorer, cfg, epoch)
        adj = fuse_with_original(g, s, cfg.residual_weight)
        return (e, candidates, s, adj, *gcn_forward(adj, x, params_t))

    def evaluate(epoch: int, fwd: tuple) -> bool:
        """Score and maybe snapshot ``epoch``'s parameters; True once patience runs out."""
        nonlocal best, since_best
        e, candidates, s, adj, _, logits = fwd
        val = accuracy(logits, g.labels, g.val_mask)
        # Detached, so that scoring records nothing on a training tape.
        val_loss = float(task_loss(T.constant(logits.data), g.labels, g.val_mask).data)
        # Ties on the small validation set are broken by validation loss.
        if best is not None and (val, -val_loss) <= (best["val"], -best["val_loss"]):
            since_best += 1
            return since_best >= cfg.patience
        best = {
            "val": val,
            "val_loss": val_loss,
            "test": accuracy(logits, g.labels, g.test_mask),
            "epoch": epoch,
            "pruned": replace(s, values=T.constant(s.values.data)),
            "embeddings": e.data.copy(),
            "params": {n: p.data.copy() for n, p in named.items()},
            "fused_nnz": adj.nnz,
            "candidates": candidates.nnz,
        }
        since_best = 0
        return False

    def train_epoch(epoch: int) -> bool:
        """One taped forward, backward and Adam step; True once patience runs
        out. The objective, composed here and nowhere else, is task +
        lambda * feature smoothness (the host learner's loss) + beta *
        contrastive; a zero weight leaves its term off the tape. Its locals,
        the consumed tape included, die on return, so nothing of this epoch
        is alive while the next forward runs."""
        nonlocal at
        with T.Tape() as tape:
            fwd = forward(epoch)
            if epoch > 0 and evaluate(epoch - 1, fwd):
                return True
            at = epoch
            _, candidates, s_t, _, z_t, logits = fwd
            loss = task_loss(logits, g.labels, g.train_mask)
            if cfg.lam > 0:
                rows, cols = s_t.directed_pairs()
                reg = feature_smoothness(s_t.values, rows, cols, g.features)
                loss = T.add(loss, T.mul(reg, cfg.lam))
            if scorer is not None and cfg.beta > 0:
                adj_full = fuse_with_original(g, candidates, cfg.residual_weight)
                # Representations only: the contrastive term never reads logits.
                z_full, _ = gcn_forward(adj_full, x, replace(params_t, classifier=None))
                # Rows zeroed by dead ReLU units have no cosine; restrict
                # the contrastive term to the rows nonzero in both views.
                good = np.flatnonzero(T.nonzero_rows(z_t.data) & T.nonzero_rows(z_full.data))
                if good.size >= 2:
                    rng_mi = np.random.default_rng([cfg.seed, 3, epoch])
                    ids = sample_batch(good.size, min(batch_size, good.size), rng_mi)
                    mi = mi_loss(T.gather_rows(z_t, good), T.gather_rows(z_full, good), ids)
                    loss = T.add(loss, T.mul(mi, cfg.beta))
            if not np.isfinite(loss.data):
                raise NumericError("loss is not finite")
            T.backward(loss, tape)
        grads = {
            name: (p.grad if p.grad is not None else np.zeros(p.shape))
            for name, p in state.params.items()
        }
        adam_step(state, grads, cfg.lr)
        T.zero_grads(named.values())
        return False

    # Each taped forward runs on the previous epoch's parameters, so it also
    # evaluates that epoch, and its failures name it. One untaped forward
    # scores the last epoch; random_prune scores each epoch's parameters on
    # the next epoch's draw.
    epochs_run = at = 0
    try:
        for epoch in range(cfg.epochs):
            at = max(epoch - 1, 0)
            if train_epoch(epoch):
                break
            epochs_run = epoch + 1
        else:
            evaluate(epoch, forward(epoch + 1))
    except NumericError as exc:
        raise NumericError(f"training diverged at epoch {at}: {exc}") from exc

    for name, data in best["params"].items():
        named[name].data = data.copy()
    additional, undirected = _edge_stats(best["pruned"], g)
    report = RunReport(
        mode=cfg.mode,
        r=cfg.reduction,
        seed=cfg.seed,
        test_acc=best["test"],
        val_acc=best["val"],
        best_epoch=best["epoch"],
        epochs_run=epochs_run,
        edges_candidate=best["candidates"],
        edges_final=best["pruned"].nnz,
        edges_additional=additional,
        edge_multiple=undirected / max(1, g.num_edges),
        flops=flops_estimate(best["fused_nnz"], dims, g.n),
    )
    return TrainResult(
        params=named, pruned=best["pruned"], embeddings=best["embeddings"], report=report
    )
