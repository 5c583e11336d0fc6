"""What importing ``repro`` loads: lazy package exports and their public API.

Every case runs in a fresh interpreter, so modules an earlier test imported
cannot hide a missing export or stand in for an eager import.  A failure
names the module (and line) that pulled a forbidden one in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package whose ``__init__`` declares an ``__all__``.
PACKAGES = sorted(
    "repro" + ("." + p.parent.name if p.parent.name != "repro" else "")
    for p in (SRC / "repro").glob("**/__init__.py")
)

#: Subsystems a paper-table run (Tables 1, 3 and 4) never calls.
NOT_FOR_TABLES = (
    "repro.sim", "repro.critpath", "repro.telemetry", "repro.service",
    "repro.tenancy", "repro.validation", "repro.paper",
)

#: Prints ``{forbidden module: "importer:line"}`` for the modules loaded
#: under the prefixes in ``FORBIDDEN`` once ``BODY`` has run.
BLAME = textwrap.dedent(
    """\
    import json, sys

    FORBIDDEN = {forbidden!r}
    culprits = {{}}

    class Blame:
        def find_spec(self, name, path=None, target=None):
            if name.startswith(FORBIDDEN) and name not in culprits:
                frame = sys._getframe(1)
                while frame.f_globals.get("__name__", "").startswith(
                    ("importlib", "repro._exports")
                ):
                    frame = frame.f_back
                culprits[name] = f"{{frame.f_globals['__name__']}}:{{frame.f_lineno}}"
            return None

    sys.meta_path.insert(0, Blame())
    {body}
    print(json.dumps(culprits))
    """
)


def run_fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_by(body: str, forbidden: tuple[str, ...]) -> dict[str, str]:
    return run_fresh(BLAME.format(forbidden=forbidden, body=body))


def test_import_repro_loads_no_subpackage():
    subpackages = tuple(p + "." for p in PACKAGES if p != "repro")
    assert loaded_by("import repro", subpackages) == {}


def test_paper_tables_load_no_unused_subsystem():
    body = (
        "from repro.analysis import build_table1, build_table3, build_table4; "
        "build_table1(max_ranks=16); build_table3(max_ranks=16); "
        "build_table4(max_ranks=64)"
    )
    assert loaded_by(body, NOT_FOR_TABLES) == {}


def test_the_blame_names_the_importer():
    """The check above would name who pulled a forbidden module in."""
    culprits = loaded_by("from repro.analysis import report", ("repro.model.energy",))
    assert culprits == {"repro.model.energy": culprits["repro.model.energy"]}
    assert culprits["repro.model.energy"].startswith("repro.analysis.report:")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    code = textwrap.dedent(
        f"""\
        import importlib, json
        module = importlib.import_module({package!r})
        listed = dir(module)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        unlisted = [n for n in module.__all__ if n not in listed]
        print(json.dumps({{"missing": missing, "unlisted": unlisted}}))
        """
    )
    assert run_fresh(code) == {"missing": [], "unlisted": []}


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import(package):
    code = textwrap.dedent(
        f"""\
        import json, sys
        namespace = {{}}
        exec("from {package} import *", namespace)
        exported = sys.modules[{package!r}].__all__
        print(json.dumps(sorted(set(exported) - set(namespace))))
        """
    )
    assert run_fresh(code) == []


def test_unknown_name_raises_attribute_error_naming_the_package():
    code = textwrap.dedent(
        f"""\
        import importlib, json
        messages = {{}}
        for package in {PACKAGES!r}:
            try:
                getattr(importlib.import_module(package), "no_such_name")
            except AttributeError as exc:
                messages[package] = str(exc)
        print(json.dumps(messages))
        """
    )
    assert run_fresh(code) == {
        package: f"module {package!r} has no attribute 'no_such_name'"
        for package in PACKAGES
    }
