"""Oracles live in ``tests/``: a source scan of ``src/repro``.

A function or method named ``*_reference`` or ``*_oracle`` is a slower
restatement of a shipped kernel.  It belongs in ``tests/oracles/`` unless a
shipped command runs it, and those few are listed in :data:`ALLOWED` with
the command that needs each.  Nothing in the package may import from the
test tree.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = {
    # `repro simulate --engine reference`, and `engine="auto"` (simulate,
    # sweep, telemetry) sends sparse traffic to this per-event loop.
    "run_reference",
}

#: Top-level names under which the test tree is importable.
TEST_PACKAGES = {"tests", "oracles", "helpers", "conftest"}


def test_no_oracles_or_test_imports_in_the_package():
    oracles, test_imports, defined = [], [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE.parent)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
                if node.name.endswith(("_reference", "_oracle")) and (
                    node.name not in ALLOWED
                ):
                    oracles.append(f"{where}:{node.lineno} {node.name}")
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            test_imports += [
                f"{where}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in TEST_PACKAGES
            ]
    assert not oracles, f"move to tests/oracles/: {oracles}"
    assert not test_imports, f"imports from the test tree: {test_imports}"
    # an allowlisted function that is gone must leave the list
    assert ALLOWED <= defined, ALLOWED - defined
