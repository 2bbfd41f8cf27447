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
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .gnn import (
    GcnParams,
    TrainState,
    accuracy,
    adam_step,
    gcn_forward,
    glorot,
    make_gcn_params,
    task_loss,
)
from .graph import Graph, SparseAdjacency, normalize_adjacency
from .gsl import (
    METRICS,
    CandidateGraph,
    build_candidates,
    encode_structure,
    feature_smoothness,
    fuse_with_original,
    gsl_objective,
)

MODES = ("ingsl", "similarity_only", "random_prune", "no_reduction")
SCORER_KINDS = ("bilinear", "mlp")
KEEP_ALL = float("-inf")  # sentinel threshold: every candidate survives


# ---------------------------------------------------------------------------
# diversity scoring
# ---------------------------------------------------------------------------


@dataclass
class DiversityScorer:
    """Learnable per-edge score, either bilinear or a bias-free two-layer MLP."""

    kind: str
    bilinear_weight: T.Tensor | None = None  # [h, h]
    mlp_hidden: T.Tensor | None = None  # [2h, h]
    mlp_out: T.Tensor | None = None  # [h, 1]

    def __post_init__(self):
        if self.kind == "bilinear":
            ok = self.bilinear_weight is not None and self.mlp_hidden is None and self.mlp_out is None
        elif self.kind == "mlp":
            ok = self.bilinear_weight is None and self.mlp_hidden is not None and self.mlp_out is not None
        else:
            raise ConfigError(f"unknown scorer kind {self.kind!r}")
        if not ok:
            raise ConfigError(f"scorer parameters do not match kind {self.kind!r}")

    def parameters(self) -> dict[str, T.Tensor]:
        if self.kind == "bilinear":
            return {"scorer.bilinear": self.bilinear_weight}
        return {"scorer.mlp_hidden": self.mlp_hidden, "scorer.mlp_out": self.mlp_out}


def make_scorer(
    kind: str, h: int, rng: np.random.Generator, init: str = "glorot"
) -> DiversityScorer:
    if kind == "bilinear":
        w = np.eye(h) if init == "identity" else glorot(rng, h, h)
        return DiversityScorer(kind="bilinear", bilinear_weight=T.parameter(w))
    if kind == "mlp":
        if init == "identity":
            raise ConfigError("identity init only applies to the bilinear scorer")
        return DiversityScorer(
            kind="mlp",
            mlp_hidden=T.parameter(glorot(rng, 2 * h, h)),
            mlp_out=T.parameter(glorot(rng, h, 1)),
        )
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
    heads = T.gather_rows(e, src)
    tails = T.gather_rows(e, dst)
    if scorer.kind == "bilinear":
        return T.rowwise_dot(T.matmul(heads, scorer.bilinear_weight), tails)
    hidden = T.relu(T.matmul(T.concat_cols(heads, tails), scorer.mlp_hidden))
    return T.reshape(T.matmul(hidden, scorer.mlp_out), (src.shape[0],))


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

    Ordering is deterministic: by value descending, then by index ascending.
    """
    x = x_values.data if isinstance(x_values, T.Tensor) else np.asarray(x_values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("threshold selection needs a non-empty 1-D score vector")
    keep = keep_count(x.size, r)
    order = np.lexsort((np.arange(x.size), -x))
    return float(x[order[keep - 1]])


def _subset_csr(sparse: SparseAdjacency, kept: np.ndarray, values: T.Tensor) -> SparseAdjacency:
    rows = sparse.edge_rows()[kept]
    offsets = np.zeros(sparse.n_rows + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    return SparseAdjacency(
        np.cumsum(offsets), sparse.col_indices[kept], values, sparse.n_cols
    )


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
    return _subset_csr(s.sparse, kept, T.sigmoid(T.take(x, kept)))


# ---------------------------------------------------------------------------
# mutual-information objective
# ---------------------------------------------------------------------------


def sample_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform node-id sample without replacement, sorted for determinism."""
    if size < 1 or size > n:
        raise ConfigError(f"batch size must lie in [1, {n}], got {size}")
    return np.sort(rng.choice(n, size=size, replace=False))


def mi_loss(z_tilde: T.Tensor, z: T.Tensor, batch, seed: int | None = None) -> T.Tensor:
    """Softmax-contrastive estimate of shared information between the pruned-
    and full-graph representations (negated, so lower is better).

    Per anchor i the positive is cos(z_tilde_i, z_i); the denominator sums
    exp(cosine) over the sampled node set plus the anchor's own positive, so
    every per-anchor term is non-negative. ``batch`` is either an explicit
    node-id set or an integer size drawn under ``seed``.
    """
    n = z_tilde.shape[0]
    if z.shape != z_tilde.shape:
        raise ShapeError(f"representation shapes differ: {z_tilde.shape} vs {z.shape}")
    if isinstance(batch, (int, np.integer)):
        if seed is None:
            raise ConfigError("a seed is required when batch is given as a size")
        ids = sample_batch(n, int(batch), np.random.default_rng(seed))
    else:
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


def total_loss(l_gsl: T.Tensor, l_mi: T.Tensor, beta: float) -> T.Tensor:
    """Base objective plus beta times the mutual-information term."""
    if not (0.0 <= beta <= 1.0):
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    return T.add(l_gsl, T.mul(l_mi, beta))


# ---------------------------------------------------------------------------
# joint training loop
# ---------------------------------------------------------------------------


@dataclass
class PruneConfig:
    """Edge-reduction settings: level r, loss weight, negatives, seed."""

    reduction: float = 0.5
    beta: float = 0.5
    batch_size: int | None = None  # None -> min(n, 256)
    seed: int = 0
    eps_thr: float | None = None  # fixed threshold; None -> per-epoch quantile

    def __post_init__(self):
        if not (0.0 <= self.reduction < 1.0):
            raise ConfigError(f"reduction must lie in [0, 1), got {self.reduction}")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    """Full settings for one training run."""

    prune: PruneConfig = field(default_factory=PruneConfig)
    mode: str = "ingsl"
    k: int = 30
    hidden: int = 128
    lr: float = 1e-2
    epochs: int = 300
    patience: int = 50
    lam: float = 0.0
    residual_weight: float = 1.0
    scorer_kind: str = "bilinear"
    scorer_init: str = "glorot"
    train_scorer: bool = True
    metric: str = "inner"

    def __post_init__(self):
        if self.mode not in MODES:
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
        if self.lam < 0:
            raise ConfigError("lambda must be non-negative")
        if self.residual_weight < 0:
            raise ConfigError("residual_weight must be non-negative")


@dataclass
class RunReport:
    """Metrics of one run at its best-validation epoch."""

    mode: str
    reduction: float
    seed: int
    best_epoch: int
    epochs_run: int
    best_val_acc: float
    test_acc: float
    edges_candidate: int
    edges_final: int
    edges_additional: int
    edge_multiple: float
    fused_nnz: int


@dataclass
class TrainResult:
    params: dict[str, T.Tensor]  # restored to the best epoch
    pruned: SparseAdjacency  # surviving structure at the best epoch, detached
    embeddings: np.ndarray  # encoder output at the best epoch
    report: RunReport


def _detach_sparse(s: SparseAdjacency) -> SparseAdjacency:
    return SparseAdjacency(
        s.row_offsets.copy(),
        s.col_indices.copy(),
        T.constant(s.values.data.copy()),
        s.n_cols,
    )


def _edge_stats(s: SparseAdjacency, g: Graph) -> tuple[int, int]:
    """Directed entries absent from the original graph, and the count of
    distinct undirected pairs among them."""
    rows, cols = s.directed_pairs()
    original = g.edge_set()
    directed = 0
    undirected: set[tuple[int, int]] = set()
    for i, j in zip(rows, cols):
        pair = (int(i), int(j)) if i < j else (int(j), int(i))
        if pair not in original:
            directed += 1
            undirected.add(pair)
    return directed, len(undirected)


def _structure_for_epoch(
    g: Graph,
    x: T.Tensor,
    a_hat: SparseAdjacency,
    params_s: GcnParams,
    scorer: DiversityScorer | None,
    cfg: TrainConfig,
    epoch: int,
) -> tuple[T.Tensor, CandidateGraph, SparseAdjacency]:
    """Encoder embeddings, candidate graph, and the mode's pruned structure."""
    e = encode_structure(a_hat, x, params_s)
    cand = build_candidates(e, cfg.k, cfg.metric)
    r = cfg.prune.reduction
    if cfg.mode == "ingsl":
        src, dst = cand.pairs()
        w = diversity_scores(e, src, dst, scorer)
        if cfg.prune.eps_thr is not None:
            eps = cfg.prune.eps_thr
        else:
            eps = select_threshold(cand.sparse.values.data * w.data, r)
        return e, cand, prune(cand, w, eps)
    if cfg.mode == "similarity_only":
        if r == 0.0:
            return e, cand, cand.sparse
        eps = select_threshold(cand.sparse.values.data, r)
        kept = np.flatnonzero(cand.sparse.values.data >= eps)
    elif cfg.mode == "random_prune":
        m = cand.sparse.nnz
        rng = np.random.default_rng([cfg.prune.seed, 2, epoch])
        kept = np.sort(rng.choice(m, size=keep_count(m, r), replace=False))
    else:  # no_reduction
        return e, cand, cand.sparse
    return e, cand, _subset_csr(cand.sparse, kept, T.take(cand.sparse.values, kept))


def train_ingsl(g: Graph, cfg: TrainConfig) -> TrainResult:
    """Jointly train the encoder, task GNN, and (for mode "ingsl") the
    diversity scorer; returns the parameters and pruned structure from the
    epoch with the best validation accuracy.

    Deterministic given (config, seed). Baseline modes reuse the same loop
    with similarity-quantile, uniform-random, or no pruning in place of the
    learned rule.
    """
    seed = cfg.prune.seed
    rng = np.random.default_rng([seed, 0])
    params_t = make_gcn_params(rng, [g.d, cfg.hidden, cfg.hidden], g.classes)
    params_s = make_gcn_params(rng, [g.d, cfg.hidden, cfg.hidden], None)
    scorer = None
    named = {**params_t.named("gnn_t"), **params_s.named("gnn_s")}
    if cfg.mode == "ingsl":
        scorer = make_scorer(cfg.scorer_kind, cfg.hidden, rng, cfg.scorer_init)
        if cfg.train_scorer:
            named.update(scorer.parameters())
        else:
            for p in scorer.parameters().values():
                p.requires_grad = False
    state = TrainState(dict(named))
    all_tensors = dict(named)
    if scorer is not None:
        all_tensors.update(scorer.parameters())

    a_hat = normalize_adjacency(g)
    x = T.constant(g.features)
    batch_size = cfg.prune.batch_size or min(g.n, 256)
    beta = cfg.prune.beta

    best: dict | None = None
    since_best = 0
    epochs_run = 0
    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        try:
            with T.Tape() as tape:
                _, cand, s_t = _structure_for_epoch(
                    g, x, a_hat, params_s, scorer, cfg, epoch
                )
                adj_t = fuse_with_original(g, s_t, cfg.residual_weight)
                z_t, logits = gcn_forward(adj_t, x, params_t)
                loss = task_loss(logits, g.labels, g.train_mask)
                if cfg.lam > 0:
                    rows, cols = s_t.directed_pairs()
                    reg = feature_smoothness(s_t.values, rows, cols, g.features)
                    loss = gsl_objective(loss, reg, cfg.lam)
                if cfg.mode == "ingsl" and beta > 0:
                    adj_full = fuse_with_original(g, cand, cfg.residual_weight)
                    z_full, _ = gcn_forward(adj_full, x, params_t)
                    # Rows zeroed by dead ReLU units have no cosine; restrict
                    # the contrastive term to the non-degenerate rows.
                    good = np.flatnonzero(
                        (np.linalg.norm(z_t.data, axis=1) > 1e-9)
                        & (np.linalg.norm(z_full.data, axis=1) > 1e-9)
                    )
                    if good.size >= 2:
                        rng_mi = np.random.default_rng([seed, 3, epoch])
                        ids = sample_batch(
                            good.size, min(batch_size, good.size), rng_mi
                        )
                        zt_g = T.gather_rows(z_t, good)
                        zf_g = T.gather_rows(z_full, good)
                        loss = total_loss(loss, mi_loss(zt_g, zf_g, ids), beta)
                if not np.isfinite(loss.data):
                    raise NumericError("loss is not finite")
                T.backward(loss, tape)
            grads = {
                name: (p.grad if p.grad is not None else np.zeros(p.shape))
                for name, p in state.params.items()
            }
            adam_step(state, grads, cfg.lr)
            T.zero_grads(all_tensors.values())
        except NumericError as exc:
            raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc

        e_eval, cand_eval, s_eval = _structure_for_epoch(
            g, x, a_hat, params_s, scorer, cfg, epoch
        )
        adj_eval = fuse_with_original(g, s_eval, cfg.residual_weight)
        _, logits_eval = gcn_forward(adj_eval, x, params_t)
        val = accuracy(logits_eval, g.labels, g.val_mask)
        test = accuracy(logits_eval, g.labels, g.test_mask)
        val_loss = float(task_loss(logits_eval, g.labels, g.val_mask).data)

        # Ties on the small validation set are broken by validation loss.
        if best is None or (val, -val_loss) > (best["val"], -best["val_loss"]):
            best = {
                "val": val,
                "val_loss": val_loss,
                "test": test,
                "epoch": epoch,
                "pruned": _detach_sparse(s_eval),
                "embeddings": e_eval.data.copy(),
                "params": {n: p.data.copy() for n, p in all_tensors.items()},
                "fused_nnz": adj_eval.nnz,
                "candidates": cand_eval.sparse.nnz,
            }
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    for name, data in best["params"].items():
        all_tensors[name].data = data.copy()
    additional, undirected = _edge_stats(best["pruned"], g)
    report = RunReport(
        mode=cfg.mode,
        reduction=cfg.prune.reduction,
        seed=seed,
        best_epoch=best["epoch"],
        epochs_run=epochs_run,
        best_val_acc=best["val"],
        test_acc=best["test"],
        edges_candidate=best["candidates"],
        edges_final=best["pruned"].nnz,
        edges_additional=additional,
        edge_multiple=undirected / max(1, g.num_edges),
        fused_nnz=best["fused_nnz"],
    )
    return TrainResult(
        params=all_tensors,
        pruned=best["pruned"],
        embeddings=best["embeddings"],
        report=report,
    )
