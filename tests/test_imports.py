"""Every imported name in the package and the scripts is used.

Package `__init__.py` files re-export on purpose and are skipped, as is an
import whose statement carries `# noqa: F401` (a name kept for a caller
outside the module, such as the benchmark's hooks in `pipeline`).
"""

import ast
import pathlib

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
