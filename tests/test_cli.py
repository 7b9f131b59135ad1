import json

import pytest

from aspeq import harness
from aspeq.cli import main
from aspeq.harness import PROPERTIES
from aspeq.syntax import Universe, parse_program, render
from aspeq.transforms import shift_one


@pytest.fixture
def lp(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    return write


def test_check_strong_equivalent(lp, capsys):
    p = lp("p.lp", "a | b. a :- not b.")
    q = lp("q.lp", "a | b.")
    assert main(["check", p, q, "--mode", "strong"]) == 0
    assert "equivalent (strong)" in capsys.readouterr().out


def test_check_strong_witness_text(lp, capsys):
    p = lp("p.lp", "a | b.")
    q = lp("q.lp", "a :- not b. b :- not a.")
    assert main(["check", p, q, "--mode", "strong"]) == 1
    out = capsys.readouterr().out
    assert "not equivalent (strong)" in out
    assert "context:" in out and "a :- b." in out
    assert "distinguishing: {a,b}" in out
    assert f"answer set of {p} plus the context only" in out


def test_check_json_schema(lp, capsys):
    p = lp("p.lp", "a | b.")
    q = lp("q.lp", "a :- not b. b :- not a.")
    assert main(["check", p, q, "--mode", "uniform", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "schema": 1,
        "mode": "uniform",
        "alphabet": ["a", "b"],
        "equivalent": True,
        "method": None,
        "witness": None,
    }
    assert main(["check", p, q, "--mode", "rel-strong", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["method"] == "generic"
    assert main(["check", p, q, "--mode", "strong", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is False
    w = doc["witness"]
    assert w["side"] in ("left", "right")
    assert w["context"] == ["a :- b.", "b :- a."]
    assert w["distinguishing"] == ["a", "b"]


def test_check_rel_modes_with_alphabet(lp, capsys):
    p = lp("p.lp", "a | b.")
    q = lp("q.lp", "a :- not b. b :- not a. c :- a, b. :- c.")
    assert main(["check", p, q, "--mode", "rel-uniform", "--alphabet", "a,b"]) == 1
    capsys.readouterr()
    assert main(["check", p, q, "--mode", "rel-uniform", "--alphabet-all-but", "c"]) == 1
    capsys.readouterr()
    assert main(["check", p, q, "--mode", "rel-uniform", "--alphabet", "a"]) == 0
    assert "relative to {a}" in capsys.readouterr().out


def test_check_ordinary(lp, capsys):
    p = lp("p.lp", "a | b.")
    q = lp("q.lp", "a :- not b. b :- not a.")
    assert main(["check", p, q, "--mode", "ordinary"]) == 0


def test_parse_error_exit_code(lp, capsys):
    bad = lp("bad.lp", "a :-")
    ok = lp("ok.lp", "a.")
    assert main(["check", bad, ok]) == 2
    assert "parse error" in capsys.readouterr().err


def test_capacity_exit_code(lp, capsys):
    wide = lp("wide.lp", " ".join(f"x{i}." for i in range(25)))
    assert main(["models", wide, "--kind", "se"]) == 3
    assert "capacity" in capsys.readouterr().err


def test_bad_alphabet_exit_code(lp, capsys):
    p = lp("p.lp", "a.")
    assert main(["check", p, p, "--alphabet", " ", "--mode", "rel-strong"]) == 2


def test_models_listings(lp, capsys):
    p = lp("p.lp", "a | b.")
    assert main(["models", p, "--kind", "as"]) == 0
    assert capsys.readouterr().out.splitlines() == ["{a}", "{b}"]
    assert main(["models", p, "--kind", "classical"]) == 0
    assert capsys.readouterr().out.splitlines() == ["{a}", "{b}", "{a,b}"]
    assert main(["models", p, "--kind", "se"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "({a},{a})", "({b},{b})", "({a},{a,b})", "({b},{a,b})", "({a,b},{a,b})",
    ]
    assert main(["models", p, "--kind", "ase", "--alphabet", "a"]) == 0
    out = capsys.readouterr().out
    assert "({a},{a})" in out


def test_models_json(lp, capsys):
    p = lp("p.lp", "a | b.")
    assert main(["models", p, "--kind", "ue", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1 and doc["kind"] == "ue"
    assert [["a"], ["a"]] in doc["models"]
    assert main(["models", p, "--kind", "aue", "--alphabet", "a", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alphabet"] == ["a"]


def test_shift_whole_program(lp, capsys):
    p = lp("p.lp", "a | b. c :- a.")
    assert main(["shift", p]) == 0
    out = capsys.readouterr().out
    assert "a :- not b." in out and "b :- not a." in out and "c :- a." in out


def test_shift_single_rule_and_range(lp, capsys):
    text = "c | d :- a. a | b. d :- e. b | e :- not c. :- a, e."
    path = lp("p.lp", text)
    assert main(["shift", path, "--rule", "6"]) == 2
    assert "out of range" in capsys.readouterr().err
    # --rule N shifts the rule printed on line N of the rendered program
    uni = Universe()
    p = parse_program(text, uni)
    lines = render(p).splitlines()
    assert len(lines) == 5
    outputs = set()
    for n, line in enumerate(lines, start=1):
        (target,) = parse_program(line, uni).rules
        assert main(["shift", path, "--rule", str(n), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["program"] == render(shift_one(p, target)).splitlines()
        outputs.add(tuple(doc["program"]))
    # the three disjunctive rules shift to three different programs, the
    # two others leave the program as it is
    assert len(outputs) == 4


def test_shift_check_alphabet(lp, capsys):
    safe = lp("safe.lp", "a | b. :- a, b.")
    assert main(["shift", safe, "--check-alphabet", "a,b"]) == 0
    assert "safe" in capsys.readouterr().out
    bare = lp("bare.lp", "a | b.")
    assert main(["shift", bare, "--check-alphabet", "a,b"]) == 0
    assert "unsafe" in capsys.readouterr().out


def test_sweep_ok_and_json(capsys):
    assert main(["sweep", "--property", "ue-subset-se", "--atoms", "2"]) == 0
    assert "0 counterexamples" in capsys.readouterr().out
    assert main(["sweep", "--property", "shift-subset", "--atoms", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexamples"] == [] and doc["checked"] > 0


def test_sweep_without_property_runs_every_property(capsys):
    assert main(["sweep", "--atoms", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(PROPERTIES)
    assert all(line.endswith(", 0 counterexamples") for line in lines)
    assert main(["sweep", "--atoms", "1", "--format", "json"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [d["property"] for d in docs] == sorted(PROPERTIES)
    assert all(d["schema"] == 1 and d["checked"] > 0 and d["counterexamples"] == [] for d in docs)


@pytest.mark.parametrize("argv", [["check", "{bad}", "{ok}"], ["check", "{ok}", "{bad}"],
                                  ["models", "{bad}"], ["shift", "{bad}"]])
def test_unreadable_input_is_a_usage_error(lp, tmp_path, capsys, argv):
    ok = lp("ok.lp", "a.")
    for bad in (str(tmp_path / "missing.lp"), str(tmp_path)):
        assert main([arg.format(bad=bad, ok=ok) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err and "Traceback" not in err


def test_sweep_past_the_family_cap_exits_3(monkeypatch, capsys):
    def unbuilt(*args):
        raise AssertionError("family built past the cap")

    monkeypatch.setattr(harness, "family_programs", unbuilt)
    assert main(["sweep", "--property", "hierarchy", "--atoms", "2", "--max-rules", "3"]) == 3
    assert capsys.readouterr().err == "capacity exceeded: 7807 family programs exceed the sweep cap of 667\n"


def test_sweep_rejects_bad_bounds(capsys):
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--property", "hierarchy", "--atoms", "-1"])
    assert e.value.code == 2
    assert main(["sweep", "--property", "hierarchy", "--max-rules", "-1"]) == 2
    assert "error: max_rules must not be negative" in capsys.readouterr().err


def test_golden_stdout_bytes(lp, capsys):
    # exact stdout of each report: JSON key order ("schema" first) and the
    # whole text block
    p = lp("p.lp", "a | b.\n")
    q = lp("q.lp", "a :- not b. b :- not a.\n")
    safe = lp("safe.lp", "a | b. :- a, b.\n")
    empty = lp("empty.lp", "% nothing\n")
    cases = [
        (["check", p, q, "--mode", "strong"], 1,
         "not equivalent (strong)\ncontext:\n  a :- b.\n  b :- a.\ndistinguishing: {a,b}\n"
         f"answer set of {p} plus the context only\n"),
        (["check", p, q, "--mode", "strong", "--format", "json"], 1,
         '{"schema": 1, "mode": "strong", "alphabet": ["a", "b"], "equivalent": false, "method": null, '
         '"witness": {"context": ["a :- b.", "b :- a."], "distinguishing": ["a", "b"], "side": "left"}}\n'),
        (["models", p, "--kind", "se"], 0,
         "({a},{a})\n({b},{b})\n({a},{a,b})\n({b},{a,b})\n({a,b},{a,b})\n"),
        (["models", p, "--kind", "se", "--format", "json"], 0,
         '{"schema": 1, "kind": "se", "alphabet": null, "models": [[["a"], ["a"]], [["b"], ["b"]], '
         '[["a"], ["a", "b"]], [["b"], ["a", "b"]], [["a", "b"], ["a", "b"]]]}\n'),
        (["shift", safe, "--check-alphabet", "a,b"], 0,
         ":- a, b.\na :- not b.\nb :- not a.\nsafe\n"),
        (["shift", safe, "--check-alphabet", "a,b", "--format", "json"], 0,
         '{"schema": 1, "program": [":- a, b.", "a :- not b.", "b :- not a."], "safe": true}\n'),
        (["shift", empty], 0, ""),
        (["shift", empty, "--format", "json"], 0, '{"schema": 1, "program": [], "safe": null}\n'),
        (["sweep", "--property", "hierarchy", "--atoms", "1"], 0,
         "hierarchy: checked 1369, 0 counterexamples\n"),
        (["sweep", "--property", "hierarchy", "--atoms", "1", "--format", "json"], 0,
         '{"schema": 1, "property": "hierarchy", "checked": 1369, "counterexamples": []}\n'),
    ]
    for argv, code, out in cases:
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, ""), argv
