"""Fuzz gates for the parser, the renderer and the CLI's error path."""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings, strategies as st

from aspeq.cli import main
from aspeq.syntax import _TOKEN_RE, ParseError, Program, Rule, Universe, parse_program, render

NAMES = ("a", "b", "c", "nota", "not_", "x_1", "zZ9", "n")
# the characters the grammar gives a meaning to, plus a few it rejects
TEXT = st.text(alphabet=st.sampled_from(list("abn ot:-|,.%\n\t_AZ09;!é")), max_size=40)


@st.composite
def programs(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    uni = Universe(names)
    mask = st.integers(min_value=0, max_value=uni.full_mask)
    rules = draw(st.lists(st.builds(Rule, mask, mask, mask), max_size=6))
    return Program(frozenset(rules), uni)


@settings(max_examples=200, deadline=None)
@given(programs())
def test_render_parse_round_trip(p):
    text = render(p)
    assert render(parse_program(text, p.universe)) == text
    # a fresh universe numbers the atoms by first occurrence, which can
    # reorder rules with equal heads, but it reads back the same rules
    assert sorted(render(parse_program(text)).splitlines()) == sorted(text.splitlines())


@settings(max_examples=300, deadline=None)
@given(TEXT | st.text(max_size=20))
def test_random_text_parses_or_raises_parse_error_inside_it(text):
    uni = Universe(["a", "nota"])
    try:
        parse_program(text, uni)
    except ParseError as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines)
        assert 1 <= e.col <= len(lines[e.line - 1]) + 1
        # the position is the offending character, the start of the offending token, or the end
        at = sum(len(s) + 1 for s in lines[:e.line - 1]) + e.col - 1
        message = str(e).split(": ", 1)[1]
        if message.startswith("unexpected character"):
            assert message == f"unexpected character {text[at]!r}"
        else:
            assert at == len(text) or at in _token_starts(text)
            if message.startswith("invalid atom token"):
                assert message == f"invalid atom token {_TOKEN_RE.match(text, at).group()!r}"
        # a failed parse leaves the shared universe as it was
        assert uni.names == ["a", "nota"] and uni.index == {"a": 0, "nota": 1}


def _token_starts(text):
    # the offsets where a token other than whitespace or a comment begins
    starts, i = set(), 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not (m.group().isspace() or m.group().startswith("%")):
            starts.add(i)
        i = m.end()
    return starts


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    good = d / "good.lp"
    good.write_text("a | b. c :- a, not b.")
    return d, str(good)


def _check(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(text=TEXT, junk=st.binary(max_size=8))
def test_cli_check_on_malformed_files_returns_2(files, text, junk):
    d, good = files
    try:
        parse_program(text)
        malformed = False
    except ParseError:
        malformed = True
    assume(malformed)
    bad = d / "bad.lp"
    bad.write_text(text, encoding="utf-8")
    undecodable = d / "undecodable.lp"
    undecodable.write_bytes(b"\xff" + junk)
    for path in (str(bad), str(undecodable)):
        for argv in (["check", path, good], ["check", good, path, "--format", "json"]):
            code, err = _check(argv)
            assert code == 2
            assert err.startswith(("parse error:", "error:"))
