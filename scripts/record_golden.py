#!/usr/bin/env python3
"""Re-record the golden outputs under tests/golden/ and the numpy, BLAS
and OpenBLAS core they came from. Run it only for a change that means to
alter a report, and log why; ``git diff tests/golden`` then shows each
changed number.

The commands write into a temporary directory, and the files are copied
into tests/golden/ only once every command has succeeded: a failing run
leaves the golden set as it was.

Usage: PYTHONPATH=src python scripts/record_golden.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_golden import FILES, GOLDEN, provenance, record

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        record(out)
        source = provenance()
        (out / "provenance.json").write_text(json.dumps(source, indent=2) + "\n")
        GOLDEN.mkdir(exist_ok=True)
        for name in (*FILES, "provenance.json"):
            shutil.copyfile(out / name, GOLDEN / name)
    print(f"recorded {GOLDEN} under {source}")
