"""The package's public surface."""

import ast
import re
from pathlib import Path

import kstepkd

ROOT = Path(__file__).resolve().parents[1]


def test_all_exports_resolve():
    missing = [name for name in kstepkd.__all__ if not hasattr(kstepkd, name)]
    assert missing == []
    assert len(set(kstepkd.__all__)) == len(kstepkd.__all__)


def test_exports_are_pipeline_entry_points():
    """Every exported name is one that the CLI, the config or the pipeline
    uses, as a name or an attribute: the package exports no library
    surface that no entry point runs."""
    used = set()
    for stem in ("cli", "config", "pipeline"):
        tree = ast.parse((ROOT / "src" / "kstepkd" / f"{stem}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    assert sorted(set(kstepkd.__all__) - used) == []


def test_readme_src_line_count():
    """The README's "`src/` holds N lines" figure is the line total of
    src/kstepkd/*.py, as ``wc -l`` counts it."""
    figures = re.findall(r"`src/`\s+holds\s+(\d+)\s+lines", (ROOT / "README.md").read_text())
    total = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "kstepkd").glob("*.py"))
    assert figures and all(int(n) == total for n in figures), (figures, total)


def test_only_pipeline_writes_csv():
    """Every table goes through ``pipeline.write_table``: no other module
    imports csv."""
    importers = sorted(
        p.stem for p in (ROOT / "src" / "kstepkd").glob("*.py")
        if re.search(r"^\s*(import csv\b|from csv import)", p.read_text(), re.MULTILINE)
    )
    assert importers == ["pipeline"]
