"""The package ships only code that runs: no top-level function or class only the tests reach."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "taulab"

# names kept in src/ although nothing there calls them, one reason each
ALLOWED_UNCALLED = {
    "export_table": "the inverse of hecke.ingest_table: writes a table that ingest_table reads back",
}


def uncalled_definitions() -> list[str]:
    """``module.name`` of each top-level def or class that nothing in src/ or the benchmark names.

    A name counts as used when a ``Name`` or ``Attribute`` node spells it
    anywhere in src/taulab outside its own definition, so a function that
    only calls itself is still unused.  The benchmark reaches functions by
    name from outside src/ (perfbench/*.py and BENCHMARK.json), so a word
    match there counts too.
    """
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    bench += (ROOT / "BENCHMARK.json").read_text()
    defined, used_in = [], {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used_in.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    used_in.setdefault(node.attr, set()).add(owner)
    return [
        f"{module}.{name}"
        for module, name in defined
        if not used_in.get(name, set()) - {(module, name)}
        and not re.search(rf"\b{name}\b", bench)
    ]


def test_every_definition_in_src_is_reached_from_src_or_the_benchmark():
    uncalled = [d for d in uncalled_definitions() if d.split(".")[1] not in ALLOWED_UNCALLED]
    assert not uncalled, f"only the tests reach {uncalled}: move them beside their tests"


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose name is gone, or is now called, is dropped from the list
    names = {d.split(".")[1] for d in uncalled_definitions()}
    assert set(ALLOWED_UNCALLED) <= names, set(ALLOWED_UNCALLED) - names
