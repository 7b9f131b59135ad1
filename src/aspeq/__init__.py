"""Equivalence checking for propositional disjunctive logic programs.

The library decides ordinary, strong, uniform, and relativized
strong/uniform equivalence under answer-set semantics, enumerates the
model-theoretic characterizations (SE-, UE-, A-SE-, A-UE-models), and
produces counterexample witnesses when equivalence fails.
"""

from .syntax import Atom, Rule, Program, Universe, ParseError, parse_program, render, var_of
from .semantics import (
    CapacityError,
    answer_sets,
    bound_sets,
    classical_models,
    horn_least_model,
    reduct,
    satisfies,
)
from .se import (
    decide_strong,
    decide_uniform,
    is_se_model,
    se_consequence,
    se_models,
    ue_class_check,
    ue_consequence,
    ue_models,
)
from .relativized import (
    ASEPair,
    a_minimal_models,
    ase_check_normal,
    ase_models,
    aue_check_hcf,
    aue_models,
    is_ase_model,
)
from .equivalence import (
    Verdict,
    VerificationError,
    Witness,
    brute_force_oracle,
    build_strong_witness,
    build_uniform_witness,
    decide,
    decide_horn_bounded,
    decide_horn_rel,
    decide_ordinary,
    decide_rel_strong,
    decide_rel_uniform,
)
from .transforms import (
    check_shift_safe,
    eliminate_constraints_negation,
    eliminate_constraints_positive,
    is_a_hcf,
    is_hcf,
    s_r,
    shift_one,
    shift_program,
    shift_rule,
)
from .classify import ProgramClass, classify
from .harness import GeneratorConfig, SweepReport, exhaustive_sweep, random_program

# the public names: every callable imported above
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and callable(v))
