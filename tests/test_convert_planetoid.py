import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ingsl.graph import load_bundle

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "convert_planetoid.py"

# Ten papers in three classes, three binary word features each.
CONTENT = """\
p0 1 0 0 Beta
p1 0 1 0 Alpha
p2 1 1 0 Beta
p3 0 0 1 Gamma
p4 1 0 1 Alpha
p5 0 1 1 Gamma
p6 1 1 1 Alpha
p7 0 0 0 Beta
p8 1 0 0 Gamma
p9 0 1 0 Alpha
"""

# <cited> <citing>: a pair, its duplicate and its reverse, a self-citation,
# two unknown ids, a line with three fields and a blank line.
CITES = """\
p0 p1
p1 p0
p0 p1
p9 p2
p3 p3
p4 unknown
ghost p5
p5 p8
p7 p6 extra

"""


@pytest.fixture
def convert(monkeypatch):
    spec = importlib.util.spec_from_file_location("convert_planetoid", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # The real split (20 per class train, 500 val) needs a larger graph.
    monkeypatch.setattr(script, "TRAIN_PER_CLASS", 2)
    monkeypatch.setattr(script, "VAL_COUNT", 2)
    return script.convert


def test_converts_and_round_trips(tmp_path, capsys, convert):
    (tmp_path / "toy.content").write_text(CONTENT)
    (tmp_path / "toy.cites").write_text(CITES)
    out = tmp_path / "bundle"
    g = convert(str(tmp_path / "toy.content"), str(tmp_path / "toy.cites"), str(out))

    assert np.array_equal(g.edges, [[0, 1], [2, 9], [5, 8]])
    assert capsys.readouterr().out.strip().endswith(
        "n=10, edges=3, d=3, classes=3 (3 citation lines skipped)"
    )
    # Classes sort by name: Alpha 0, Beta 1, Gamma 2.
    assert g.labels.tolist() == [1, 0, 1, 2, 0, 2, 0, 1, 2, 0]
    assert g.features[6].tolist() == [1.0, 1.0, 1.0]
    # The first two of each class in content order train, the next two
    # remaining nodes validate, and the rest test.
    assert np.flatnonzero(g.train_mask).tolist() == [0, 1, 2, 3, 4, 5]
    assert np.flatnonzero(g.val_mask).tolist() == [6, 7]
    assert np.flatnonzero(g.test_mask).tolist() == [8, 9]

    back = load_bundle(out)
    for name in ("features", "labels", "edges", "train_mask", "val_mask", "test_mask"):
        assert np.array_equal(getattr(back, name), getattr(g, name)), name
    assert back.classes == g.classes
