"""Byte-identical CLI reports, checked against outputs committed under
``tests/golden/``.

The golden files hold ``gradcheck.json`` of ``gradcheck --trials 3 --seed 0``,
``lemmas.json`` of ``verify-lemmas --trials 2000 --seed 0``, and ``cells.csv``
and ``report.json`` (wall-time fields removed) of ``train --config
configs/ci_threads.json``. ``provenance.json`` names the numpy, the BLAS and
the OpenBLAS runtime core that wrote them: another BLAS, or the same one on
another core, may round differently, so on any mismatch the check skips and
never compares with a tolerance. A change that means to alter a report
re-records the files with ``scripts/record_golden.py``.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

from ingsl import cli

from test_cli import CONFIGS, numpy_blas_function, strip_wall_time

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = [
    ["gradcheck", "--trials", "3", "--seed", "0"],
    ["verify-lemmas", "--trials", "2000", "--seed", "0"],
    ["train", "--config", str(CONFIGS / "ci_threads.json")],
]
FILES = ("gradcheck.json", "lemmas.json", "cells.csv", "report.json")


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


def record(out: Path) -> None:
    """Run the golden commands through ``cli.main`` and leave ``FILES`` in ``out``."""
    for argv in COMMANDS:
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"ingsl {' '.join(argv)} exited with {code}")
    report = out / "report.json"
    stripped = strip_wall_time(json.loads(report.read_text()))
    report.write_text(json.dumps(stripped, sort_keys=True, indent=2) + "\n")


def test_reports_match_golden_bytes(tmp_path):
    recorded = json.loads((GOLDEN / "provenance.json").read_text())
    current = provenance()
    if current != recorded:
        pytest.skip(f"golden outputs were recorded under {recorded}; this host has {current}")
    record(tmp_path)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
