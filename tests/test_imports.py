"""Every import in the package sits at module level: a function-level
import is how an import cycle gets hidden, so none may come back."""

import ast
from pathlib import Path

import aspeq

PACKAGE = Path(aspeq.__file__).parent


def test_no_import_below_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                nested.append(f"{path.name}:{node.lineno}")
    assert not nested, f"imports below module level: {', '.join(nested)}"
