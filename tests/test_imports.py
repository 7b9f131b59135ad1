"""Every import in the package sits at module level: a function-level
import is how an import cycle gets hidden, so none may come back.  The
CLI's imports stay light: no ``dataclasses``, which would pull in
``inspect`` and the compiler modules on every start-up.  And every
function the traced benchmark run wraps by name still exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import aspeq

PACKAGE = Path(aspeq.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_no_import_below_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                nested.append(f"{path.name}:{node.lineno}")
    assert not nested, f"imports below module level: {', '.join(nested)}"


def test_cli_import_loads_no_dataclasses():
    # a fresh interpreter without site-packages, so only aspeq's own imports count
    probe = "import sys, aspeq.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_traced_layer_names_resolve():
    # perfbench/spans.py looks each `LAYERS` name up in its aspeq module
    # when a traced run starts; a deleted or renamed function fails here
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"aspeq.{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"aspeq.{layer}"), name, None))
    ]
    assert not missing, f"traced names missing from aspeq: {', '.join(missing)}"
