"""Byte-identical CLI reports, checked against outputs committed under
``tests/golden/``.

The golden files hold ``gradcheck.json`` of ``gradcheck --trials 3 --seed 0``,
``lemmas.json`` of ``verify-lemmas --trials 2000 --seed 0``, and ``cells.csv``
and ``report.json`` (wall-time fields removed) of ``train --config
configs/ci_threads.json``. Those hold accuracies and edge counts only, so
``params.json`` holds the sha256 of the bytes of every best-epoch parameter,
of the pruned values and of the embeddings that ``train_ingsl`` returns for
each mode of that config at its first seed: a last-bit change in training
shows there. ``provenance.json`` names the numpy, the BLAS and
the OpenBLAS runtime core that wrote them: another BLAS, or the same one on
another core, may round differently, so on any mismatch the check skips and
never compares with a tolerance. A change that means to alter a report
re-records the files with ``scripts/record_golden.py``.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ingsl import cli
from ingsl.pruning import train_ingsl

from test_cli import CONFIGS, numpy_blas_function, strip_wall_time

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = [
    ["gradcheck", "--trials", "3", "--seed", "0"],
    ["verify-lemmas", "--trials", "2000", "--seed", "0"],
    ["train", "--config", str(CONFIGS / "ci_threads.json")],
]
FILES = ("gradcheck.json", "lemmas.json", "cells.csv", "report.json", "params.json")


def provenance() -> dict:
    """numpy's version, its BLAS's name and version, and the core OpenBLAS
    picked at run time (None where numpy cannot tell)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = None
    corename = numpy_blas_function(
        ("scipy_openblas_get_corename64_", "openblas_get_corename"), ctypes.c_char_p
    )
    core = None if corename is None else corename().decode()
    return {"numpy": np.__version__, "blas": blas, "openblas_core": core}


def params_digests() -> dict:
    """For each mode of ``configs/ci_threads.json`` at its first seed and
    reduction level, the sha256 of ``data.tobytes()`` of every best-epoch
    parameter, of ``pruned.values`` and of ``embeddings``, trained with BLAS
    at one thread as ``cli.run_experiment`` trains a cell."""
    cfg = cli.parse_config(json.loads((CONFIGS / "ci_threads.json").read_text()))
    seed, r = cfg.seeds[0], cfg.reduction_levels[0]
    g = cli._apply_noise(cli.resolve_dataset(cfg), cfg.noise, seed)
    set_blas = cli._blas_thread_setter()
    caller_threads = None if set_blas is None else set_blas(1)
    try:
        results = {mode: train_ingsl(g, cfg.train_config(mode, r, seed)) for mode in cfg.modes}
    finally:
        if set_blas is not None:
            set_blas(caller_threads)

    def sha(a: np.ndarray) -> str:
        return hashlib.sha256(a.tobytes()).hexdigest()

    return {
        mode: {
            **{name: sha(p.data) for name, p in res.params.items()},
            "pruned.values": sha(res.pruned.values.data),
            "embeddings": sha(res.embeddings),
        }
        for mode, res in results.items()
    }


def record(out: Path) -> None:
    """Run the golden commands through ``cli.main`` and leave ``FILES`` in ``out``."""
    for argv in COMMANDS:
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"ingsl {' '.join(argv)} exited with {code}")
    report = out / "report.json"
    stripped = strip_wall_time(json.loads(report.read_text()))
    report.write_text(json.dumps(stripped, sort_keys=True, indent=2) + "\n")
    (out / "params.json").write_text(json.dumps(params_digests(), sort_keys=True, indent=2) + "\n")


def test_reports_match_golden_bytes(tmp_path):
    recorded = json.loads((GOLDEN / "provenance.json").read_text())
    current = provenance()
    if current != recorded:
        pytest.skip(f"golden outputs were recorded under {recorded}; this host has {current}")
    record(tmp_path)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
