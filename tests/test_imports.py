"""Every imported name in the package and the scripts is used, and the
package imports nothing but numpy and the standard library at run time.

Package `__init__.py` files re-export on purpose and are skipped, as is an
import whose statement carries `# noqa: F401` (a name kept for a caller
outside the module, such as the benchmark's hooks in `pipeline`).
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*ROOT.glob("src/weakbox_kit/*.py"), *ROOT.glob("scripts/*.py")] if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name an import statement binds and the module
    never reads, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            if alias.name != "*":
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a.b import c, d as e\nimport x.y  # noqa: F401\nprint(sys.argv, e)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}.{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_module_loads_scipy():
    # a fresh interpreter, so nothing the test session imported counts
    code = (
        "import importlib, pkgutil, sys, weakbox_kit\n"
        "for m in pkgutil.iter_modules(weakbox_kit.__path__):\n"
        "    importlib.import_module('weakbox_kit.' + m.name)\n"
        "print(len(list(pkgutil.iter_modules(weakbox_kit.__path__))), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split(maxsplit=1)
    assert int(out[0]) == len(list(ROOT.glob("src/weakbox_kit/*.py"))) - 1
    assert out[1].strip() == "[]"
