"""The per-Y rows under the SE-, UE-, A-SE- and A-UE-model listings,
checked against the per-pair definitions on the exhaustive families."""

from itertools import islice, product

import pytest

from aspeq.equivalence import _first_difference
from aspeq.harness import ATOM_NAMES, family_programs
from aspeq.relativized import ASEPair, ase_models, aue_models, is_ase_model, valid_shape
from aspeq.se import is_se_model, se_models, ue_models
from aspeq.semantics import CapacityError, _ase_pairs, _maximal_row, _row, submasks
from aspeq.syntax import Universe, facts_program

from conftest import prog

# the exhaustive sweeps' families: 2 atoms with up to two rules, 3 atoms
# with up to one
FAMILIES = [(2, 2), (3, 1)]


def _family(atoms: int, max_rules: int):
    uni = Universe(ATOM_NAMES[:atoms])
    return uni.full_mask, family_programs(uni, uni.full_mask, max_rules)


def _candidates(over: int, a: int) -> list[tuple[int, int]]:
    # every A-SE-interpretation over `over`, in (y, x) order
    return [(x, y) for y in submasks(over) for x in submasks(y) if valid_shape(x, y, a)]


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_se_models_match_definition(atoms, max_rules):
    over, progs = _family(atoms, max_rules)
    for p in progs:
        expect = [(x, y) for x, y in _candidates(over, over) if is_se_model(p, x, y)]
        assert se_models(p, over) == expect, p.rules


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_ase_models_match_definition(atoms, max_rules):
    over, progs = _family(atoms, max_rules)
    for p in progs:
        for a in submasks(over):
            expect = [(x, y) for x, y in _candidates(over, a) if is_ase_model(p, ASEPair(x, y, a))]
            assert [(pr.x, pr.y) for pr in ase_models(p, a, over)] == expect, (a, p.rules)


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_ue_models_are_full_alphabet_aue_models(atoms, max_rules):
    over, progs = _family(atoms, max_rules)
    for p in progs:
        assert ue_models(p, over) == [(pr.x, pr.y) for pr in aue_models(p, over, over)], p.rules


def test_over_must_cover_program_atoms():
    uni = Universe(["a", "b"])
    p = prog("a :- not b. b :- not a.", uni)
    a = uni.mask_of(["a"])
    with pytest.raises(ValueError, match="cover var"):
        se_models(p, a)
    with pytest.raises(ValueError, match="cover var"):
        ase_models(p, a, a)
    with pytest.raises(ValueError, match="cover var"):
        ue_models(p, a)
    with pytest.raises(ValueError, match="cover var"):
        aue_models(p, a, a)


@pytest.mark.parametrize("atoms,max_rules,stride", [(2, 2, 101), (3, 1, 23)])
def test_first_difference_is_the_least_differing_y(atoms, max_rules, stride):
    # the Y at which `decide` stops and the strong witness search starts
    over, progs = _family(atoms, max_rules)
    alphabets = list(submasks(over))
    listings = {}
    for i, p in enumerate(progs):
        for a in alphabets:
            listings[i, a] = (ase_models(p, a, over), aue_models(p, a, over))
    for i, j in islice(product(range(len(progs)), repeat=2), 0, None, stride):
        for a in alphabets:
            for kind, row in enumerate((_row, _maximal_row)):
                diff = set(listings[i, a][kind]) ^ set(listings[j, a][kind])
                expect = min((pr.y for pr in diff), default=None)
                got = _first_difference(progs[i], progs[j], a, over, row)
                assert got == expect, (progs[i].rules, progs[j].rules, a, row.__name__)


def test_pair_kernel_checks_its_arguments_at_the_call():
    uni = Universe(["a", "b"])
    p = prog("a :- not b. b :- not a.", uni)
    with pytest.raises(ValueError, match="cover var"):
        _ase_pairs(p, uni.full_mask, uni.mask_of(["a"]))
    big = Universe([f"v{i}" for i in range(25)])
    with pytest.raises(CapacityError):
        _ase_pairs(facts_program(big.full_mask, big), big.full_mask, big.full_mask)
