"""Every import in the package sits at module level: a function-level
import is how an import cycle gets hidden, so none may come back.  The
CLI's imports stay light: no ``dataclasses``, which would pull in
``inspect`` and the compiler modules on every start-up.  Every
function the traced benchmark run wraps by name still exists, and the
public names are pinned."""

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


PUBLIC = [
    "ASEPair", "Atom", "CapacityError", "GeneratorConfig", "ParseError", "Program", "ProgramClass",
    "Rule", "SweepReport", "Universe", "Verdict", "VerificationError", "Witness",
    "a_minimal_models", "answer_sets", "ase_check_normal", "ase_models", "aue_check_hcf", "aue_models",
    "bound_sets", "brute_force_oracle", "build_strong_witness", "build_uniform_witness",
    "check_shift_safe", "classical_models", "classify", "decide", "decide_horn_bounded",
    "decide_horn_rel", "decide_ordinary", "decide_rel_strong", "decide_rel_uniform", "decide_strong",
    "decide_uniform", "eliminate_constraints_negation", "eliminate_constraints_positive",
    "exhaustive_sweep", "horn_least_model", "is_a_hcf", "is_ase_model", "is_hcf", "is_se_model",
    "parse_program", "random_program", "reduct", "render", "s_r", "satisfies", "se_consequence",
    "se_models", "shift_one", "shift_program", "shift_rule", "ue_class_check", "ue_consequence",
    "ue_models", "var_of",
]


def test_public_names_are_pinned():
    # `__all__` is derived from the imports in `aspeq/__init__.py`; the
    # names are part of the contract, so a new or lost import fails here
    assert aspeq.__all__ == PUBLIC
    assert all(callable(getattr(aspeq, n)) for n in PUBLIC)
