"""Each module of the package, other than its __init__, uses every name it
imports: a deletion that leaves an import behind fails here.  Standard
library only (ast), so the check needs no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctxclass"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in order of first import; a
    name read only inside a string annotation counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Dataset"; other strings parse or not
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((name for name in imported if name not in read), key=imported.get)


def test_the_package_has_modules_to_check():
    assert {"classify.py", "data.py", "preprocess.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "import bisect\nimport numpy as np\nfrom .data import MISSING, Dataset\n" \
             "def f(d: 'Dataset'):\n    return np.asarray(d)\n"
    assert unused_imports(source) == ["bisect", "MISSING"]
