"""The package has no runtime dependency outside the standard library: every
import in ``src/hitchin_supports`` names the package itself or a
standard-library module.  The modules are parsed, not imported, except by
the check of what ``import hitchin_supports.cli`` loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "hitchin_supports"


def _absolute_imports() -> list[tuple[str, str]]:
    """(file name, top-level module) for every absolute import of the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    out = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside the package
            out += [(path.name, top) for top in sorted({name.split(".")[0] for name in names})]
    return out


def test_every_import_is_the_package_or_the_standard_library():
    allowed = sys.stdlib_module_names | {"hitchin_supports"}
    assert [(path, top) for path, top in _absolute_imports() if top not in allowed] == []


def test_no_module_imports_dataclasses():
    """Its import pulls in ``inspect`` and ``ast``, and each decoration runs
    code at import: start-up of every CLI process paid for both."""
    assert [(path, top) for path, top in _absolute_imports() if top == "dataclasses"] == []


def test_cli_import_leaves_heavy_modules_unloaded():
    """``import hitchin_supports.cli`` in a fresh interpreter loads none of
    these; ``csv``, ``traceback`` and ``selftest`` are imported where they
    are used."""
    unloaded = ("dataclasses", "inspect", "csv", "traceback", "hitchin_supports.selftest")
    code = f"import sys, hitchin_supports.cli; print(sorted(set({unloaded!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
