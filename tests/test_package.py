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


def _references(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute and imported name in a
    Python file, and of every part of a string constant that reads as a
    dotted path (``"returns.actual_return"``, ``"kstepkd.cli:main"``)."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.:]+", node.value):
            refs += [(part, node.lineno) for part in re.split(r"[.:]", node.value)]
    return refs


def test_every_top_level_definition_is_used():
    """Every top-level function and class of ``src/kstepkd`` is referenced
    somewhere outside its own definition, in ``src/``, ``tests/``,
    ``bench/`` or ``pyproject.toml``: a wrapper whose last caller goes
    fails here instead of staying as dead surface."""
    files = sorted((ROOT / "src" / "kstepkd").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    refs = {path: _references(path) for path in files}
    toml = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    unused = []
    for path in sorted((ROOT / "src" / "kstepkd").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            used = node.name in toml or any(
                name == node.name and not (other == path and line in inside)
                for other, found in refs.items() for name, line in found
            )
            if not used:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_log_softmax_is_written_once():
    """A log of a sum of exps (``np.log(`` then ``np.exp(`` on one line)
    appears in ``src/kstepkd`` once, inside ``log_softmax``: every
    log-softmax, decode's too, goes through it."""
    inside, outside = [], []
    for path in sorted((ROOT / "src" / "kstepkd").glob("*.py")):
        text = path.read_text()
        body = {line for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef) and node.name == "log_softmax"
                for line in range(node.lineno, node.end_lineno + 1)}
        for n, line in enumerate(text.splitlines(), 1):
            if re.search(r"np\.log\(.*np\.exp\(", line):
                (inside if n in body else outside).append(f"{path.stem}:{n}")
    assert len(inside) == 1 and outside == [], (inside, outside)


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
