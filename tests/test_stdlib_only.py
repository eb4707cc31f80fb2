"""The package has no runtime dependency outside the standard library: every
import in ``src/hitchin_supports`` names the package itself or a
standard-library module.  The modules are parsed, not imported."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "hitchin_supports"


def test_every_import_is_the_package_or_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside the package
            top = {name.split(".")[0] for name in names}
            outside += [(path.name, name) for name in sorted(top - sys.stdlib_module_names - {"hitchin_supports"})]
    assert outside == []
