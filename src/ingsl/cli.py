"""Command-line entry point: train / sweep / verify-lemmas / gradcheck /
diagnose-redundancy / gen-sbm.

Configuration is a single JSON document; unknown keys are a hard error.
Reports are emitted as JSON plus plot-ready CSV and are byte-identical across
repeated runs with the same config and seed (wall-time fields aside).

Exit codes: 0 success, 1 config error, 2 numeric divergence, 3 lemma or
gradient check failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from . import tensor as T
from .analysis import lemma1_check, lemma2_check, redundancy_profile
from .errors import ConfigError, NumericError
from .gnn import gcn_forward, make_gcn_params, task_loss
from .graph import (
    Graph,
    NOISE_UPPER,
    SparseAdjacency,
    check_noise_ratios,
    generate_sbm,
    inject_structural_noise,
    load_bundle,
    mask_features,
    normalize_entries,
    save_bundle,
)
from .gsl import CandidateGraph, build_candidates
from .pruning import (
    TrainConfig,
    diversity_scores,
    make_scorer,
    mi_loss,
    prune,
    select_threshold,
    train_ingsl,
)

_SBM_SPEC = {
    "block_sizes": list[int],
    "p_in": float,
    "p_out": float,
    "feature_dim": int,
    "feature_noise": float,
    "seed": int,
}
_NOISE_SPEC = dict.fromkeys(NOISE_UPPER, float)


@dataclass
class ExperimentConfig:
    """One experiment: the dataset, the (mode, r, seed) grid and, in
    ``train``, the training settings every cell shares. The config file's
    keys are the grid fields here and the ``TrainConfig`` fields other than
    a cell's own ``mode``, ``reduction`` and ``seed``: each key is the field's
    name (or ``metadata["key"]``), its annotation is the JSON type and its
    default applies when the key is absent."""

    dataset: dict
    reduction_levels: list[float] = field(default_factory=lambda: [0.5])
    seeds: list[int] = field(default_factory=lambda: [0])
    modes: list[str] = field(default_factory=lambda: ["ingsl"])
    noise: dict | None = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        for name in ("seeds", "reduction_levels", "modes"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        # Range rules live in TrainConfig; building every cell's config here
        # makes a bad value fail before any dataset is built.
        for mode in self.modes:
            for r in self.reduction_levels:
                for seed in self.seeds:
                    self.train_config(mode, r, seed)
        # A repeated entry would run its cells twice. Levels are also the
        # same when their report keys f"{r:g}" are, or when -0.0 meets 0.0.
        for name in ("seeds", "reduction_levels", "modes"):
            values = getattr(self, name)
            for i, b in enumerate(values):
                for a in values[:i]:
                    if a == b or (name == "reduction_levels" and f"{a:g}" == f"{b:g}"):
                        raise ConfigError(f"{name} repeats an entry: {a!r} and {b!r}")

    def train_config(self, mode: str, r: float, seed: int) -> TrainConfig:
        return replace(self.train, mode=mode, reduction=r, seed=seed)

    def to_dict(self) -> dict:
        grid = {name: getattr(self, name) for name in _GRID}
        return {**grid, **{key: getattr(self.train, f.name) for key, f in _TRAIN.items()}}


_GRID = {name: hint for name, hint in get_type_hints(ExperimentConfig).items() if name != "train"}
_TRAIN = {
    f.metadata.get("key", f.name): f
    for f in fields(TrainConfig)
    if f.name not in ("mode", "reduction", "seed")
}
_TRAIN_TYPES = get_type_hints(TrainConfig)
_SPEC = {**_GRID, **{key: _TRAIN_TYPES[f.name] for key, f in _TRAIN.items()}}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", dict: "a JSON object"}


def _check_type(value, hint, where: str) -> None:
    """Raise ConfigError unless the JSON value matches the annotation: a
    scalar type, dict, ``list[X]`` or ``X | None``. bool is not a number."""
    options = get_args(hint)
    if type(None) in options:
        if value is None:
            return
        (hint,) = [a for a in options if a is not type(None)]
    if get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {type(value).__name__}")
        (item,) = get_args(hint)
        for i, v in enumerate(value):
            _check_type(v, item, f"{where}[{i}]")
        return
    ok = isinstance(value, hint) or (hint is float and isinstance(value, int))
    if isinstance(value, bool) or not ok or (isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[hint]}, got {value!r:.40}")


def _check_object(obj, spec: dict, where: str, required=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where} missing keys: {', '.join(missing)}")
    prefix = "" if where == "config" else f"{where}."
    for key, value in obj.items():
        _check_type(value, spec[key], prefix + key)


def parse_config(obj: dict) -> ExperimentConfig:
    if isinstance(obj, dict) and "mode" in obj:  # "mode": one mode or a list
        if "modes" in obj:
            raise ConfigError("give either mode or modes, not both")
        obj = dict(obj)
        mode = obj.pop("mode")
        obj["modes"] = [mode] if isinstance(mode, str) else mode
    _check_object(obj, _SPEC, "config", required=["dataset"])
    dataset = obj["dataset"]
    if len(dataset) != 1 or next(iter(dataset)) not in ("bundle", "sbm"):
        raise ConfigError('dataset must be {"bundle": path} or {"sbm": {...}}')
    if "sbm" in dataset:
        _check_object(dataset["sbm"], _SBM_SPEC, "dataset.sbm", required=_SBM_SPEC)
    else:
        _check_type(dataset["bundle"], str, "dataset.bundle")
    if obj.get("noise") is not None:
        _check_object(obj["noise"], _NOISE_SPEC, "noise")
        check_noise_ratios(**obj["noise"])
    train = TrainConfig(**{_TRAIN[key].name: v for key, v in obj.items() if key in _TRAIN})
    return ExperimentConfig(**{key: v for key, v in obj.items() if key not in _TRAIN}, train=train)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: not UTF-8 text (byte {exc.start})") from None
    except (ValueError, RecursionError) as exc:  # ValueError: an int too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------


def resolve_dataset(cfg: ExperimentConfig) -> Graph:
    if "bundle" in cfg.dataset:
        return load_bundle(cfg.dataset["bundle"])
    return generate_sbm(**cfg.dataset["sbm"])


def _apply_noise(g: Graph, noise: dict | None, seed: int) -> Graph:
    if not noise:
        return g
    add = noise.get("add_ratio", 0.0)
    dele = noise.get("del_ratio", 0.0)
    if add or dele:
        g = inject_structural_noise(g, add, dele, seed=hash((seed, 1)) % 2**31)
    mask = noise.get("feature_mask_ratio", 0.0)
    if mask:
        g = mask_features(g, mask, seed=hash((seed, 2)) % 2**31)
    return g


def run_cell(cfg: ExperimentConfig, base: Graph, mode: str, r: float, seed: int) -> dict:
    g = _apply_noise(base, cfg.noise, seed)
    t0 = time.perf_counter()
    result = train_ingsl(g, cfg.train_config(mode, r, seed))
    wall = time.perf_counter() - t0
    return {**asdict(result.report), "wall_time_s": wall}


def _thread_count() -> int:
    raw = os.environ.get("INGSL_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"INGSL_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"INGSL_THREADS must be >= 1, got {raw!r}")
    return threads


@functools.cache
def _blas_thread_setter():
    """numpy's ``openblas_set_num_threads_local``, or None if numpy's BLAS is
    not an OpenBLAS (0.3.27 or later) that exports it. dlsym on numpy's
    extension module also searches the libraries it links, so this finds
    the OpenBLAS numpy calls, whatever its file is named."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name in ("openblas_set_num_threads_local", "scipy_openblas_set_num_threads_local64_"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = ctypes.c_int
            return setter
    return None


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every (mode, r, seed) cell and assemble the report dict."""
    threads = _thread_count()
    base = resolve_dataset(cfg)
    jobs = [
        (mode, r, seed)
        for mode in cfg.modes
        for r in cfg.reduction_levels
        for seed in cfg.seeds
    ]
    # Every cell runs BLAS at one thread, serial or pooled, so a report's bits
    # do not depend on whether the BLAS gives the same bits at one thread as
    # at several; at these sizes a second BLAS thread buys nothing anyway.
    # The setter is meant to be thread-local, but numpy's OpenBLAS 0.3.31
    # wheel applies it process-wide, so the caller pins too and restores its
    # own count afterwards. Without the setter BLAS runs at its default.
    set_blas = _blas_thread_setter()
    caller_threads = None if set_blas is None else set_blas(1)
    try:
        if threads == 1:
            cells = [run_cell(cfg, base, *job) for job in jobs]
        else:
            # numpy's error state is per thread and pool threads start from the
            # default, so each cell runs under the caller's, as in the serial path.
            err = np.geterr()

            def cell(job):
                with np.errstate(**err):
                    return run_cell(cfg, base, *job)

            with ThreadPoolExecutor(threads, initializer=set_blas, initargs=(1,)) as pool:
                cells = list(pool.map(cell, jobs))
    finally:
        if set_blas is not None:
            set_blas(caller_threads)

    aggregates: dict[str, dict] = {}
    for mode in cfg.modes:
        for r in cfg.reduction_levels:
            rows = [c for c in cells if c["mode"] == mode and c["r"] == r]
            accs = np.array([c["test_acc"] for c in rows])
            entry = {
                "n_seeds": len(rows),
                "mean_test_acc": float(accs.mean()),
                "mean_edges_final": float(np.mean([c["edges_final"] for c in rows])),
                "mean_edge_multiple": float(np.mean([c["edge_multiple"] for c in rows])),
            }
            if len(rows) >= 2:
                entry["std_test_acc"] = float(accs.std(ddof=1))
            aggregates.setdefault(mode, {})[f"{r:g}"] = entry

    return {
        "version": __version__,
        "config": cfg.to_dict(),
        "cells": cells,
        "aggregates": aggregates,
    }


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, columns: list[str], rows) -> None:
    """A header of ``columns``, then each row dict's values in that order:
    strings as they are, numbers as ``repr``, so a float reads back to the
    same bits."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(row[k] if isinstance(row[k], str) else repr(row[k]) for k in columns))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# gradient-check battery
# ---------------------------------------------------------------------------


def _tiny_adjacency(rng: np.random.Generator, n: int) -> SparseAdjacency:
    """Small random structure (two fixed neighbors per row)."""
    cols = []
    for i in range(n):
        picks = sorted(rng.choice([j for j in range(n) if j != i], 2, replace=False))
        cols.extend(picks)
    values = T.parameter(rng.uniform(0.2, 1.0, len(cols)))
    return SparseAdjacency(np.repeat(np.arange(n), 2), cols, values, n)


def _gcn_case(rng: np.random.Generator):
    """The task loss of a two-layer GCN on a tiny random graph."""
    n, d, h, c = 6, 3, 4, 2
    adj = _tiny_adjacency(rng, n)
    x = T.parameter(rng.uniform(0.5, 1.5, (n, d)))
    params = make_gcn_params(rng, [d, h, h], c)
    labels = rng.integers(c, size=n)
    mask = np.ones(n, dtype=bool)
    leaves = [adj.values, x, *params.layer_weights, params.classifier]
    return lambda *_: task_loss(gcn_forward(adj, x, params)[1], labels, mask), leaves, None


def _scorer_case(kind: str, rng: np.random.Generator):
    """Diversity scores around a 6-node ring. The MLP's embeddings are
    positive and its hidden layer scaled by 3, so its pre-activations sit
    clear of the ReLU kink."""
    e = T.parameter(rng.uniform(-1.0 if kind == "bilinear" else 0.3, 1.0, (6, 4)))
    scorer = make_scorer(kind, 4, rng)
    if kind == "mlp":
        scorer.params["scorer.mlp_hidden"].data *= 3.0
    src = np.arange(6)
    dst = np.roll(src, -1)
    return lambda *_: diversity_scores(e, src, dst, scorer), [e, *scorer.params.values()], np.ones(src.size)


def _prune_case(rng: np.random.Generator):
    """Sigmoid pruning of a fixed 2-per-row candidate graph at a 50% threshold."""
    n, k = 6, 2
    vals = T.parameter(rng.uniform(0.3, 1.0, n * k))
    w = T.parameter(rng.uniform(0.3, 1.0, n * k))
    cols = np.sort(np.array([[(i + 1) % n, (i + 2) % n] for i in range(n)]), axis=1)
    cand = CandidateGraph(SparseAdjacency(np.repeat(np.arange(n), k), cols.reshape(-1), vals, n))
    x = vals.data * w.data
    eps = select_threshold(x, 0.5)
    if np.abs(x - eps).min() < 1e-3:  # keep the mask stable across the FD perturbation
        eps -= 5e-4
    kept = np.count_nonzero(x >= eps)
    return lambda *_: prune(cand, w, eps).values, [vals, w], np.ones(kept)


def _mi_case(rng: np.random.Generator):
    """The contrastive loss between two views over three anchor nodes."""
    views = [T.parameter(rng.uniform(0.3, 1.0, (6, 3))) for _ in range(2)]
    return lambda zt, z: mi_loss(zt, z, np.array([0, 2, 4])), views, None


def _pipeline_case(rng: np.random.Generator):
    """Top-2 candidates, bilinear scores and a prune keeping 40%, end to end."""
    e = T.parameter(rng.uniform(0.3, 1.2, (6, 3)))
    scorer = make_scorer("bilinear", 3, rng)

    def scored():
        cand = build_candidates(e, 2)
        return cand, diversity_scores(e, *cand.pairs(), scorer)

    cand, w = scored()
    # The boundary edge sits exactly at the selected threshold; shift eps
    # below it so the FD perturbation cannot flip the kept set.
    x = cand.sparse.values.data * w.data
    eps = select_threshold(x, 0.4) - 1e-3
    kept = np.count_nonzero(x >= eps)
    return lambda *_: prune(*scored(), eps).values, [e, *scorer.params.values()], np.ones(kept)


def default_battery(seed: int = 0) -> list[tuple[str, callable]]:
    """Named finite-difference checks: one per differentiable tensor op, then
    the composite stages training runs.

    Each op row is (name, op, leaf shapes, leaf domain), the domain one name
    for every leaf or a tuple of one per leaf. Its check hands
    ``gradient_check`` the op itself and weights that scale output entry i
    by i + 1, so a backward rule that permutes, drops or misroutes entries
    cannot cancel out. The table is built on every call, so it binds the
    tensor module's ops as they are then, wrapped or not. Each composite
    row is (name, generator tag, case). A case maps the generator
    ``default_rng([seed, tag])`` to ``gradient_check``'s arguments: a stage
    and its leaves, and weights of ones for a stage with a vector output
    (the objective is then the output's sum), or None for a scalar loss; it
    draws only when its check runs. Instances avoid relu/threshold kinks
    by construction (margins > 1e-1 on sampled coordinates, fixed seeds
    elsewhere). spmm and sddmm each have an instance on either side of the
    tensor module's dense-path size rule. The loss ops softmax_cross_entropy
    and contrastive_loss have no op row: the composite rows
    gcn_forward+task_loss and mi_loss check them, as they checked the ops
    the two losses were composed of before.
    """
    rng = np.random.default_rng([seed, 11])
    domains = {
        "any": lambda shape: rng.uniform(-1.0, 1.0, shape),
        "positive": lambda shape: rng.uniform(0.5, 2.0, shape),
        "off_zero": lambda shape: rng.uniform(0.15, 1.0, shape) * rng.choice([-1.0, 1.0], shape),
        # Columns alternate in sign, so each product of a "positive" operand
        # with this one is a sum of terms of one sign, each at least 0.075
        # from 0: both signs occur, and at inner width 3 none is within 0.2 of 0.
        "signed_columns": lambda shape: rng.uniform(0.15, 1.0, shape) * (-1.0) ** np.arange(shape[1]),
    }
    adj = _tiny_adjacency(np.random.default_rng([seed, 12]), 6)
    nsrc = np.array([0, 1, 2, 3, 1, 2, 3, 0])
    ndst = np.array([1, 0, 3, 2, 2, 1, 0, 3])
    # 3 entries in a 12 x 10 product and 2 in a 10 x 8 sample (40 cells per
    # entry) take the exact kernels; the instances above take the GEMMs.
    rows = [
        ("add", T.add, [(3, 4), (3, 4)], "any"),
        ("sub", T.sub, [(3, 4), (3, 4)], "any"),
        ("mul", T.mul, [(3, 4), (3, 4)], "any"),
        ("matmul", T.matmul, [(4, 3), (3, 2)], "any"),
        ("transpose", T.transpose, [(3, 5)], "any"),
        ("reshape", lambda p: T.reshape(p, (15,)), [(3, 5)], "any"),
        ("relu", T.relu, [(4, 4)], "off_zero"),
        ("sigmoid", T.sigmoid, [(4, 4)], "any"),
        ("exp", T.exp, [(4, 4)], "any"),
        ("log", T.log, [(4, 4)], "positive"),
        ("pow_const", lambda p: T.pow_const(p, -0.5), [(4, 4)], "positive"),
        ("row_l2_normalize", T.row_l2_normalize, [(5, 3)], "positive"),
        ("row_l2_normalize_or_zero", T.row_l2_normalize_or_zero, [(5, 3)], "positive"),
        ("sum_all", T.sum_all, [(3, 3)], "any"),
        ("row_sum", T.row_sum, [(4, 3)], "any"),
        ("rowwise_dot", T.rowwise_dot, [(4, 3), (4, 3)], "any"),
        ("gather_rows", lambda p: T.gather_rows(p, [0, 2, 2, 4]), [(5, 3)], "any"),
        ("take", lambda p: T.take(p, [1, 1, 3, 5]), [(6,)], "any"),
        ("gather_pairs", lambda p: T.gather_pairs(p, [0, 1, 1], [2, 0, 3]), [(4, 4)], "any"),
        ("concat_cols", T.concat_cols, [(3, 2), (3, 3)], "any"),
        ("concat_vec", T.concat_vec, [(3,), (4,)], "any"),
        ("segment_sum", lambda p: T.segment_sum(p, [0, 1, 1, 2, 0, 2], 3), [(6,)], "any"),
        (
            "spmm",
            lambda v, d: T.spmm(adj.row_indices, adj.col_indices, v, d, adj.n),
            [(adj.nnz,), (6, 3)],
            "any",
        ),
        (
            "normalize_entries",
            lambda v: normalize_entries(4, nsrc, ndst, v).values,
            [(8,)],
            "positive",
        ),
        ("sddmm", lambda u, v: T.sddmm(nsrc, ndst[::-1], u, v), [(4, 3), (4, 3)], "any"),
        ("spmm_sparse", lambda v, d: T.spmm([0, 0, 5], [2, 7, 0], v, d, 12), [(3,), (10, 2)], "any"),
        ("sddmm_sparse", lambda u, v: T.sddmm([3, 9], [7, 0], u, v), [(10, 2), (8, 2)], "any"),
        # Last, so its draws leave every earlier row's leaves as they were.
        ("matmul_relu", T.matmul_relu, [(4, 3), (3, 2)], ("positive", "signed_columns")),
    ]
    composites = [
        ("gcn_forward+task_loss", 13, _gcn_case),
        ("scorer_bilinear", 14, functools.partial(_scorer_case, "bilinear")),
        ("scorer_mlp", 15, functools.partial(_scorer_case, "mlp")),
        ("prune", 16, _prune_case),
        ("mi_loss", 17, _mi_case),
        ("prune_pipeline", 18, _pipeline_case),
    ]

    def ramped(op, leaves):
        def check():
            out = op(*leaves)  # untaped, for the output's shape
            return T.gradient_check(op, leaves, np.arange(1.0, out.size + 1).reshape(out.shape))

        return check

    def drawn(tag, case):
        return lambda: T.gradient_check(*case(np.random.default_rng([seed, tag])))

    def leaves(shapes, domain):
        per_leaf = (domain,) * len(shapes) if isinstance(domain, str) else domain
        return [T.parameter(domains[d](s)) for s, d in zip(shapes, per_leaf)]

    return [
        (name, ramped(op, leaves(shapes, domain))) for name, op, shapes, domain in rows
    ] + [(name, drawn(tag, case)) for name, tag, case in composites]


def run_gradcheck_battery(checks, threshold: float = 1e-4) -> tuple[list[dict], bool]:
    rows = []
    for name, fn in checks:
        err = float(fn())
        rows.append({"op": name, "max_rel_err": err, "pass": err < threshold})
    return rows, all(r["pass"] for r in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_reported(cfg: ExperimentConfig, out: Path) -> dict:
    """Run the experiment and write its ``report.json`` and ``cells.csv``."""
    report = run_experiment(cfg)
    _write_json(out / "report.json", report)
    columns = ["mode", "r", "seed", "test_acc", "edges_final", "edge_multiple", "flops"]
    _write_csv(out / "cells.csv", columns, report["cells"])
    return report


def cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    report = _run_reported(cfg, out)
    for mode, per_r in sorted(report["aggregates"].items()):
        for r, entry in sorted(per_r.items()):
            std = entry.get("std_test_acc")
            spread = f" +/- {std:.4f}" if std is not None else ""
            print(
                f"{mode} r={r}: test_acc {entry['mean_test_acc']:.4f}{spread} "
                f"({entry['n_seeds']} seeds, {entry['mean_edges_final']:.0f} edges)"
            )
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    if len(cfg.reduction_levels) < 2:
        raise ConfigError("sweep requires at least two reduction levels")
    aggregates = _run_reported(cfg, out)["aggregates"]
    rows = [
        {"mode": mode, "r": r, "std_test_acc": 0.0, **aggregates[mode][f"{r:g}"]}
        for mode in cfg.modes
        for r in cfg.reduction_levels
    ]
    columns = ["mode", "r", "mean_test_acc", "std_test_acc", "mean_edges_final", "mean_edge_multiple"]
    _write_csv(out / "sweep.csv", columns, rows)
    print(f"wrote {len(cfg.modes) * len(cfg.reduction_levels)} sweep rows to {out / 'sweep.csv'}")
    return 0


def cmd_verify_lemmas(trials: int, seed: int, out: Path | None) -> int:
    rep1 = lemma1_check(trials, seed=seed)
    rep2 = lemma2_check(trials, seed=seed)
    payload = {
        "version": __version__,
        "trials": trials,
        "seed": seed,
        "lemma1": asdict(rep1),
        "lemma2": asdict(rep2),
    }
    if out is not None:
        _write_json(out / "lemmas.json", payload)
    for name, rep in (("similarity floor", rep1), ("loss-change ceiling", rep2)):
        status = "OK" if rep.violations == 0 else "VIOLATED"
        print(f"{name}: {rep.trials} trials, {rep.violations} violations [{status}]")
    return 0 if rep1.violations == 0 and rep2.violations == 0 else 3


def cmd_gradcheck(seed: int, out: Path | None, trials: int = 1) -> int:
    # Each op keeps its worst row over the trials. np.argmax ranks a NaN
    # error above every number and keeps the earlier trial on a tie.
    rows = []
    for t in range(trials):
        trial, _ = run_gradcheck_battery(default_battery(seed + t))
        rows = [pair[np.argmax([r["max_rel_err"] for r in pair])] for pair in zip(rows or trial, trial)]
    ok = all(r["pass"] for r in rows)
    payload = {
        "version": __version__,
        "seed": seed,
        "trials": trials,
        "rows": rows,
        "all_pass": ok,
    }
    if out is not None:
        _write_json(out / "gradcheck.json", payload)
    for row in rows:
        mark = "pass" if row["pass"] else "FAIL"
        print(f"{row['op']:<24} {row['max_rel_err']:.3e}  {mark}")
    return 0 if ok else 3


def cmd_diagnose_redundancy(cfg: ExperimentConfig, k_values: list[int], out: Path) -> int:
    g = _apply_noise(resolve_dataset(cfg), cfg.noise, cfg.seeds[0])
    if max(k_values) >= g.n:
        raise ConfigError(f"--k-values must be < n = {g.n}, got {max(k_values)}")
    result = train_ingsl(g, cfg.train_config("no_reduction", 0.0, cfg.seeds[0]))
    kept = int(T.nonzero_rows(result.embeddings).sum())
    if kept < g.n:
        print(f"left out {g.n - kept} of {g.n} embedding rows with zero norm")
    if max(k_values) >= kept:
        raise ConfigError(
            f"--k-values must be < {kept}, the number of non-zero embedding rows, "
            f"got {max(k_values)}"
        )
    profile = redundancy_profile(result.embeddings, k_values)
    rows = [{"k": k, "mean_pairwise_cosine": v} for k, v in profile]
    _write_csv(out / "redundancy.csv", ["k", "mean_pairwise_cosine"], rows)
    for k, v in profile:
        print(f"k={k}: mean pairwise cosine {v:.4f}")
    return 0


def cmd_gen_sbm(cfg_obj: dict, out: Path) -> int:
    """``cfg_obj`` is an experiment config or a bare dataset ``{"sbm": spec}``."""
    if not (isinstance(cfg_obj, dict) and "dataset" in cfg_obj):
        cfg_obj = {"dataset": cfg_obj}
    cfg = parse_config(cfg_obj)
    if "sbm" not in cfg.dataset:
        raise ConfigError("gen-sbm needs an sbm spec in the config")
    g = resolve_dataset(cfg)
    save_bundle(g, out)
    print(f"wrote bundle with n={g.n}, edges={g.num_edges} to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def _k_values(raw: str) -> list[int]:
    """The --k-values list: comma-separated integers, each >= 1."""
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values or not all(v.isdecimal() and int(v) >= 1 for v in values):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {raw!r}")
    return [int(v) for v in values]


def build_parser() -> _Parser:
    parser = _Parser(prog="ingsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    names = ("train", "sweep", "verify-lemmas", "gradcheck", "diagnose-redundancy", "gen-sbm")
    cmd = {name: sub.add_parser(name) for name in names}
    # Options are added in the order --help lists them.
    for name in ("train", "sweep", "diagnose-redundancy", "gen-sbm"):
        cmd[name].add_argument("--config", required=True)
        cmd[name].add_argument("--out", required=True)
    cmd["diagnose-redundancy"].add_argument("--k-values", type=_k_values, default="2,5,10,20")
    for name in ("train", "sweep", "diagnose-redundancy"):
        cmd[name].add_argument("--seed", type=int, default=None)

    p = cmd["verify-lemmas"]
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = cmd["gradcheck"]
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    # Numeric trouble ends in a NumericError and its one stderr line; numpy's
    # floating-point warnings would only print ahead of it.
    with np.errstate(all="ignore"):
        try:
            args = build_parser().parse_args(argv)
            if args.command in ("train", "sweep", "diagnose-redundancy"):
                cfg = parse_config(_read_json(args.config))
                if args.seed is not None:
                    cfg = replace(cfg, seeds=[args.seed])
                out = Path(args.out)
                if args.command == "train":
                    return cmd_train(cfg, out)
                if args.command == "sweep":
                    return cmd_sweep(cfg, out)
                return cmd_diagnose_redundancy(cfg, args.k_values, out)
            if args.command in ("verify-lemmas", "gradcheck"):
                if args.trials < 1:
                    raise ConfigError("--trials must be >= 1")
                if args.seed < 0:
                    raise ConfigError(f"--seed must be >= 0, got {args.seed}")
                out = Path(args.out) if args.out else None
                if args.command == "verify-lemmas":
                    return cmd_verify_lemmas(args.trials, args.seed, out)
                return cmd_gradcheck(args.seed, out, args.trials)
            if args.command == "gen-sbm":
                return cmd_gen_sbm(_read_json(args.config), Path(args.out))
            raise ConfigError(f"unknown command {args.command!r}")
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:  # sizes from a config or bundle
            print(f"error: {exc or 'out of memory'}", file=sys.stderr)
            return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
