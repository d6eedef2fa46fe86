"""No module under src/nlchb or tests imports a name it never uses.

No linter runs on this code, so this AST scan is the check. The package
`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for path in [*(ROOT / "src" / "nlchb").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, as 'name (line n)'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_finds_unused_and_keeps_used():
    source = "import os\nimport numpy as np\nimport nlchb.solver\nfrom .kernel import a, b\n"
    source += "np.zeros(1)\nnlchb.solver.advance\nprint(b)\n"
    assert unused_imports(source) == ["os (line 1)", "a (line 4)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
