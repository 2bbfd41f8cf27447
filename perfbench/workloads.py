"""Workload definitions and output checks for the ingsl benchmark.

Every workload is a fixed list of units (training cells, or verify rounds)
derived only from the workload seed. One repetition runs the whole list
through the library's public functions; the benchmark repeats it while its
time budget lasts, and every repetition must reproduce the first exactly.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_FILE = HERE / "reference.json"
MODULES = ("analysis", "cli", "gnn", "graph", "gsl", "pruning", "tensor")

# Largest test-accuracy change, in absolute terms, that a cell may show
# against its recorded reference: 8 of 160 test nodes on the desk graph.
# Float reordering in a kernel (say a CSR product in place of np.add.at)
# perturbs values at the last bit; perturbing the features by 1e-15 and by
# 1e-9 relative moved no cell's accuracy at all (perfbench/README.md).
ACC_TOLERANCE = 0.05

# Without a recorded reference for a seed, a cell must still beat chance by a
# wide margin (classes are SBM blocks, so chance is 1/blocks).
ACC_FLOOR_OVER_CHANCE = 2.0

# Candidate similarities are symmetric cosines, so a mutual pair (i->j and
# j->i) shares one value bit for bit. When such a pair straddles the
# keep_count boundary, select_threshold keeps both: one edge more than
# keep_count, as its docstring allows. Learned scores S_ij * w_ij are not
# symmetric, and random pruning draws an exact count, so neither may exceed.
TIE_EXCESS = {"ingsl": 0, "similarity_only": 1, "random_prune": 0}

DESK_SBM = {"block_sizes": [50] * 4, "p_in": 0.1, "p_out": 0.01,
            "feature_dim": 8, "feature_noise": 1.0}
WIDE_SBM = {"block_sizes": [125] * 8, "p_in": 0.04, "p_out": 0.004,
            "feature_dim": 8, "feature_noise": 1.0}
ALL_MODES = ["ingsl", "similarity_only", "random_prune", "no_reduction"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int  # INGSL_THREADS for the run
    blas_threads: int | None  # None: the BLAS library's default
    sbm: dict | None = None  # training workloads
    modes: tuple = ()
    epochs: int = 0
    rounds: int = 0  # verify workload
    lemma_trials: int = 0

    @property
    def training(self) -> bool:
        return self.sbm is not None

    def config(self, seed: int) -> dict:
        """Experiment config for the workload seed: the SBM seed is the
        workload seed and every mode runs one cell with seed 100 * seed."""
        return {
            "dataset": {"sbm": {**self.sbm, "seed": seed}},
            "k": 30,
            "reduction_levels": [0.5],
            "beta": 0.5,
            "scorer_kind": "bilinear",
            "hidden": 128,
            "metric": "cosine",
            "epochs": self.epochs,
            "patience": self.epochs,  # fixed work per cell
            "seeds": [100 * seed],
            "modes": list(self.modes),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_ingsl",
            "full method at criterion-6 scale: tape backward with np.add.at "
            "scatters, diversity scorer and contrastive term every epoch",
            threads=1, blas_threads=1, sbm=DESK_SBM, modes=("ingsl",),
            epochs=12,
        ),
        Workload(
            "wide_similarity",
            "1000-node similarity_only: n x n similarity and argsort top-K "
            "dominate; scorer, sigmoid prune and contrastive loss never run",
            threads=1, blas_threads=1, sbm=WIDE_SBM, modes=("similarity_only",),
            epochs=4,
        ),
        Workload(
            "verify",
            "lemma trials plus gradcheck battery: thousands of tiny tape ops "
            "and per-trial Python loops, the cost CI waits for",
            threads=1, blas_threads=1, rounds=6, lemma_trials=250,
        ),
        Workload(
            "desk_sweep_t2",
            "all four modes through the cli thread pool with INGSL_THREADS=2 "
            "and default BLAS threads; the only random_prune/no_reduction run",
            threads=2, blas_threads=None, sbm=DESK_SBM, modes=tuple(ALL_MODES),
            epochs=5,
        ),
    )
}


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads(w: Workload) -> None:
    """Fix the BLAS thread count for this process and its children; it takes
    effect only if numpy is not loaded yet. Single-client workloads use one
    thread: on two shared cores a second BLAS thread spin-waits whenever a
    neighbour holds the other core, which multiplies run-to-run noise."""
    for var in BLAS_THREAD_VARS:
        if w.blas_threads is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(w.blas_threads)


def import_ingsl() -> dict:
    """Import the library from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "ingsl"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ingsl package at {pkg}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"ingsl.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: ingsl was imported from {mods['cli'].__file__}, not {pkg}")
    return mods


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class Unit:
    """One cell or verify round of a repetition."""

    id: str
    wall_s: float
    epochs: int  # epochs run; a verify round counts as one
    attempted: int
    failed: int
    outcome: tuple  # compared across repetitions for determinism
    test_acc: float | None = None
    problems: tuple = ()


def _cell_problems(w: Workload, cell: dict, keep_count, reference: float | None) -> list[str]:
    problems = []
    mode, m, final = cell["mode"], cell["edges_candidate"], cell["edges_final"]
    if mode in TIE_EXCESS:
        excess = final - keep_count(m, cell["r"])
        if not 0 <= excess <= TIE_EXCESS[mode]:
            problems.append(f"edges_final {final} vs keep_count {final - excess}")
    elif final != m:
        problems.append(f"no_reduction kept {final} of {m} candidates")
    if cell["epochs_run"] != w.epochs:
        problems.append(f"ran {cell['epochs_run']} of {w.epochs} epochs")
    acc = cell["test_acc"]
    if reference is not None:
        if abs(acc - reference) > ACC_TOLERANCE:
            problems.append(f"test_acc {acc:.4f} vs reference {reference:.4f}")
    elif acc < ACC_FLOOR_OVER_CHANCE / len(w.sbm["block_sizes"]):
        problems.append(f"test_acc {acc:.4f} below floor")
    return problems


def cell_id(mode: str, r: float, seed: int) -> str:
    return f"{mode}/r{r:g}/s{seed}"


def run_training(w: Workload, cli, pruning, cfg, references: dict) -> list[Unit]:
    """One repetition: every cell through cli.run_experiment."""
    os.environ["INGSL_THREADS"] = str(w.threads)
    try:
        report = cli.run_experiment(cfg)
    except Exception as exc:  # every cell of the repetition counts as failed
        return [Unit(f"error/{i}", 0.0, 0, 1, 1, ("raised", repr(exc)),
                     problems=(repr(exc),)) for i in range(len(w.modes))]
    units = []
    for cell in report["cells"]:
        cid = cell_id(cell["mode"], cell["r"], cell["seed"])
        problems = _cell_problems(w, cell, pruning.keep_count, references.get(cid))
        units.append(Unit(
            cid, cell["wall_time_s"], cell["epochs_run"], 1, int(bool(problems)),
            (cell["test_acc"], cell["edges_final"], cell["edges_candidate"]),
            cell["test_acc"], tuple(problems),
        ))
    return units


def run_verify(w: Workload, cli, analysis, seed: int, tracer=None) -> list[Unit]:
    """One repetition: ``rounds`` x (both lemma checks + one gradcheck battery).
    With a tracer, the round is the cell id of its spans."""
    units = []
    for i in range(w.rounds):
        rseed = 100 * seed + i
        if tracer is not None:
            tracer.cell = f"round{i}"
        t0 = time.perf_counter()
        try:
            rep1 = analysis.lemma1_check(w.lemma_trials, seed=rseed)
            rep2 = analysis.lemma2_check(w.lemma_trials, seed=rseed)
            rows, _ = cli.run_gradcheck_battery(cli.default_battery(rseed), threshold=1e-4)
        except Exception as exc:
            units.append(Unit(f"round{i}", time.perf_counter() - t0, 1, 1, 1,
                              ("raised", repr(exc)), problems=(repr(exc),)))
            continue
        wall = time.perf_counter() - t0
        bad_rows = [r["op"] for r in rows if not r["max_rel_err"] < 1e-4]
        problems = [f"gradcheck {op}" for op in bad_rows]
        if rep1.violations or rep2.violations:
            problems.append(f"lemma violations {rep1.violations}+{rep2.violations}")
        units.append(Unit(
            f"round{i}", wall, 1,
            rep1.trials + rep2.trials + len(rows),
            rep1.violations + rep2.violations + len(bad_rows),
            (rep1.max_slack, rep2.max_slack, tuple((r["op"], r["max_rel_err"]) for r in rows)),
            problems=tuple(problems),
        ))
    return units
