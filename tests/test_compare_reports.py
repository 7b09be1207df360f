"""Smoke test of `tools/compare_reports.py`, the byte-comparison harness."""

import importlib.util
import shutil
from pathlib import Path

from test_known_outcomes import ROWS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = [
    ["spectrum", "--system", "pt", "--g", "1", "--h", "1", "--format", "json"],
    ["ladder", "--system", "do", "--a", "1", "--format", "csv", "--out", "r.csv"],
]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "tools" / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_matches_and_a_changed_tolerance_differs(tmp_path):
    tool = _load_tool()
    assert tool.compare(str(ROOT), str(ROOT), CORPUS) == []

    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    systems = changed / "src" / "sincoord" / "systems.py"
    text = systems.read_text(encoding="utf-8")
    literal = '"spectrum_closure",\n        np.maximum(worst_plus, worst_minus),\n        1e-9,'
    assert text.count(literal) == 1
    systems.write_text(text.replace(literal, literal.replace("1e-9", "2e-9")), encoding="utf-8")
    assert tool.compare(str(ROOT), str(changed), CORPUS) == [
        " ".join(CORPUS[0]) + ": stdout differ"
    ]


def test_the_corpus_ends_with_the_known_outcome_rows():
    corpus = _load_tool().default_corpus()
    assert len(corpus) == 359
    assert corpus[-len(ROWS):] == [row[1].split() for row in ROWS]
