#!/usr/bin/env python3
"""Re-record the golden outputs under tests/golden/ and the numpy, BLAS
and OpenBLAS core they came from. Run it only for a change that means to
alter a report, and log why; ``git diff tests/golden`` then shows each
changed number.

Usage: PYTHONPATH=src python scripts/record_golden.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_golden import GOLDEN, provenance, record

if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    record(GOLDEN)
    source = provenance()
    (GOLDEN / "provenance.json").write_text(json.dumps(source, indent=2) + "\n")
    print(f"recorded {GOLDEN} under {source}")
