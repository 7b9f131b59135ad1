import pytest

from aspeq.syntax import (
    Atom,
    ParseError,
    Program,
    Rule,
    Universe,
    bits,
    facts_program,
    parse_program,
    render,
    rule_to_str,
    var_of,
)


def test_parse_disjunctive_fact():
    uni = Universe()
    p = parse_program("a | b.", uni)
    assert p.rules == {Rule(uni.mask_of(["a", "b"]), 0, 0)}


def test_parse_two_default_rules():
    uni = Universe()
    p = parse_program("a :- not b. b :- not a.", uni)
    a, b = 1 << uni.intern("a"), 1 << uni.intern("b")
    assert p.rules == {Rule(a, 0, b), Rule(b, 0, a)}


def test_parse_constraint():
    uni = Universe()
    p = parse_program(":- a, b.", uni)
    (r,) = p.rules
    assert r.is_constraint and r.pos == uni.mask_of(["a", "b"]) and r.neg == 0


def test_parse_falsity_bare_dot():
    uni = Universe()
    p = parse_program(".", uni)
    assert p.rules == {Rule(0, 0, 0)}
    assert rule_to_str(Rule(0, 0, 0), uni) == "."


def test_parse_comments_and_whitespace():
    uni = Universe()
    p = parse_program("% leading comment\n  a :- b , not c . % trailing\n", uni)
    (r,) = p.rules
    assert r.head == uni.mask_of(["a"])
    assert r.pos == uni.mask_of(["b"])
    assert r.neg == uni.mask_of(["c"])


def test_duplicate_rules_collapse():
    uni = Universe()
    p = parse_program("a. a. a | a.", uni)
    assert p.rules == {Rule(uni.mask_of(["a"]), 0, 0)}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_program("a :-")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_program("A.")
    with pytest.raises(ParseError):
        parse_program("not.")
    with pytest.raises(ParseError):
        parse_program("a b.")
    with pytest.raises(ParseError):
        parse_program("a ; b.")
    # a failed parse interns none of the atoms it read before the error
    uni = Universe(["z"])
    with pytest.raises(ParseError) as e:
        parse_program("a :- b, c. d :- ", uni)
    assert str(e.value) == "1:17: expected atom"
    assert uni.names == ["z"] and uni.index == {"z": 0}


@pytest.mark.parametrize("text, message, line, col", [
    # unexpected character: line 1, a later line, after a comment, after \r\n, the last character
    ("a ; b.", "unexpected character ';'", 1, 3),
    ("a.\nb :- c, 1.", "unexpected character '1'", 2, 9),
    ("% x ; y\nb :- ;", "unexpected character ';'", 2, 6),
    ("a.\r\nb :- é.", "unexpected character 'é'", 2, 6),
    ("a.\nb.;", "unexpected character ';'", 2, 3),
    # expected atom
    ("a :- .", "expected atom", 1, 6),
    ("a.\nb :- c, |.", "expected atom", 2, 9),
    ("% c\na :- b, .", "expected atom", 2, 9),
    ("a.\r\nb :- |.", "expected atom", 2, 6),
    ("a.\nb :- not", "expected atom", 2, 9),
    # invalid atom token
    ("A.", "invalid atom token 'A'", 1, 1),
    ("a.\nb :- not not.", "invalid atom token 'not'", 2, 10),
    ("% c\nb | Zed.", "invalid atom token 'Zed'", 2, 5),
    ("a.\r\nb :- c, _x.", "invalid atom token '_x'", 2, 9),
    ("a.\nb :- B", "invalid atom token 'B'", 2, 6),
    # expected dot
    ("a b.", "expected dot", 1, 3),
    ("a.\nb :- c d.", "expected dot", 2, 8),
    ("% c\na | b c.", "expected dot", 2, 7),
    ("a.\r\nb :- c :- d.", "expected dot", 2, 8),
    ("a.\n% only\nb", "expected dot", 3, 2),
    ("a. \r\n  b | c :- d, not e\r\n", "expected dot", 3, 1),
])
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (str(e.value), e.value.line, e.value.col) == (f"{line}:{col}: {message}", line, col)


def test_var_of():
    uni = Universe()
    p = parse_program("a | b.", uni)
    assert var_of(p) == uni.mask_of(["a", "b"])
    assert var_of(Program(frozenset(), uni)) == 0
    p4 = parse_program("a :- not b. a :- b.", uni)
    assert var_of(p4) == uni.mask_of(["a", "b"])


def test_render_round_trip():
    for text in [
        "a | b.",
        "a :- not b. b :- not a.",
        ":- a, b.",
        ".",
        "a :- b, not c. c | d :- e, not a.",
        "",
    ]:
        uni = Universe()
        p = parse_program(text, uni)
        assert parse_program(render(p), uni) == p


def test_shared_universe_keeps_ids_stable():
    uni = Universe()
    p = parse_program("a. b.", uni)
    q = parse_program("c :- a.", uni)
    assert uni.names == ["a", "b", "c"]
    assert (p.var | q.var) == uni.full_mask


def test_universe_rejects_bad_names():
    uni = Universe()
    for bad in ["Not", "not", "1a", ""]:
        with pytest.raises(ValueError):
            uni.intern(bad)


def test_fmt_and_decode():
    uni = Universe(["b", "a"])
    assert uni.fmt(0) == "{}"
    assert uni.fmt(uni.full_mask) == "{a,b}"
    assert uni.fmt_pair(0, uni.full_mask) == "({},{a,b})"
    assert uni.decode(uni.full_mask) == ("a", "b")


def test_universe_atom():
    uni = Universe(["b", "a"])
    assert uni.atom(1) == Atom(1, "a")
    with pytest.raises(IndexError):
        uni.atom(2)


def test_bits_ascending():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []


def test_facts_program():
    uni = Universe(["a", "b"])
    p = facts_program(uni.full_mask, uni)
    assert p.rules == {Rule(1, 0, 0), Rule(2, 0, 0)}


def test_program_union_requires_shared_universe():
    u1, u2 = Universe(["a"]), Universe(["a"])
    p = parse_program("a.", u1)
    q = parse_program("a.", u2)
    with pytest.raises(ValueError):
        p.union(q)
    assert (p | parse_program("b.", u1)).rules == {Rule(1, 0, 0), Rule(2, 0, 0)}
