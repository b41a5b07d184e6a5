"""Command-line interface: problem files, subcommands, exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from probsyll.cli import (ProblemFileError, load_problem, main,
                          parse_rational, parse_value_set)
import probsyll
from probsyll import EventError, OpenInterval, ParseError, parse_conditional

F = Fraction


def write(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


PRECISE_FIG3 = """
# Figure III premise assessment
[assess]
C / B = 0.7
A / B = 4/5
B / (A | B) = 1/2

[target]
C / A
"""

BOX_PROBLEM = """
[assess]
C / B in [0, 1/4]
A / B in [9/10, 1]
B / (A | B) in [1/2, 1]

[target]
C / A
"""

INCOHERENT = """
[assess]
A / A = 1/2
"""


class TestValueParsing:
    def test_parse_rational(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("0.3") == F(3, 10)
        assert parse_rational(" 1 ") == 1
        with pytest.raises(ProblemFileError):
            parse_rational("abc")
        with pytest.raises(ProblemFileError):
            parse_rational("1/0")

    def test_parse_value_set(self):
        assert parse_value_set("1/2") == OpenInterval.point(F(1, 2))
        assert parse_value_set("{3/4}") == OpenInterval.point(F(3, 4))
        assert parse_value_set("[0, 1]") == OpenInterval.closed(0, 1)
        assert parse_value_set("(0, 1]") == OpenInterval(0, 1, lower_open=True)
        assert parse_value_set("[1/4, 3/4)") \
            == OpenInterval(F(1, 4), F(3, 4), upper_open=True)


class TestProblemFiles:
    def test_load_precise(self, tmp_path):
        problem = load_problem(write(tmp_path, PRECISE_FIG3))
        assert problem.is_precise
        assert problem.point_values() == [F(7, 10), F(4, 5), F(1, 2)]
        assert str(problem.target) == "C / A"

    def test_load_box(self, tmp_path):
        problem = load_problem(write(tmp_path, BOX_PROBLEM))
        assert not problem.is_precise
        assert problem.box() == (OpenInterval.closed(0, F(1, 4)),
                                 OpenInterval.closed(F(9, 10), 1),
                                 OpenInterval.closed(F(1, 2), 1))

    def test_event_definitions_substituted(self, tmp_path):
        text = """
        [events]
        MP = M & P

        [assess]
        MP / M | P = 1/3
        """
        problem = load_problem(write(tmp_path, text))
        (ce, iv), = problem.assessments
        assert ce.consequent.atoms() == frozenset("MP")
        assert iv == OpenInterval.point(F(1, 3))

    def test_syllogism_section(self, tmp_path):
        text = "[syllogism]\nname = barbara\nimport = conditional\n"
        problem = load_problem(write(tmp_path, text))
        assert problem.syllogism == {"name": "barbara", "import": "conditional"}

    @pytest.mark.parametrize("bad", [
        "[nope]\n",
        "A / B = 1\n",  # content before any section
        "[assess]\nA / B\n",  # no value
        "[events]\njust_a_name\n",
        "[events]\nA = A & B\n[assess]\nA / C = 1/2\n",  # cyclic definition
        "[events]\n = A & B\n",  # no name
        "[events]\n1X Y = C\n",  # not an identifier
    ])
    def test_malformed_files(self, tmp_path, bad):
        with pytest.raises(ProblemFileError):
            load_problem(write(tmp_path, bad))


class TestCheckCommand:
    def test_coherent_precise(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, PRECISE_FIG3)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("coherent")
        assert "witness:" in out

    def test_incoherent_precise(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, INCOHERENT)])
        assert code == 1
        assert "incoherent" in capsys.readouterr().out

    def test_box_g_coherence(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, BOX_PROBLEM)])
        assert code == 0
        assert "g-coherent" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, PRECISE_FIG3), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["coherent"] is True
        witness = [F(v) for v in report["witness"]]
        assert sum(witness) == 1

    @pytest.mark.parametrize("text, witness", [
        (PRECISE_FIG3, ["1/4", "3/20", "1/2", "1/10", "0"]),
        # A / (A | B) = 0 starves B / A, so the check recurses on I0 = {B / A}.
        ("[assess]\nC / B = 2/3\nB / A = 1/2\nA / (A | B) = 0\nD / (B | C) = 1/4\n",
         ["0"] * 8 + ["2/3", "1/4", "1/12", "0", "0"]),
    ])
    def test_witness_pinned(self, tmp_path, capsys, text, witness):
        # Many witnesses solve these systems; the one reported is the vertex
        # that Bland's rule reaches, so this pins the simplex's pivot path.
        code = main(["check", write(tmp_path, text), "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["witness"] == witness

    def test_definitions_expanding_too_far(self, tmp_path, capsys):
        # Each line doubles the formula: D22 would have 2**24 - 1 nodes.
        lines = ["[events]", "D0 = A & B"]
        lines += [f"D{k} = D{k - 1} | D{k - 1}" for k in range(1, 23)]
        lines += ["[assess]", "D22 / C = 1/2"]
        code = main(["check", write(tmp_path, "\n".join(lines) + "\n")])
        assert code == 2
        assert "nodes" in capsys.readouterr().err

    def test_definitions_expanding_within_cap(self, tmp_path, capsys):
        # 6,143 nodes over 12 atoms, under MAX_NODES: D8 is evaluated once as
        # a truth table over the 4,096 worlds, not walked once per world.
        lines = ["[events]", "D0 = (A & B & C & D & E & F) | (G & H & I & J & K & L)"]
        lines += [f"D{k} = D{k - 1} | D{k - 1}" for k in range(1, 9)]
        lines += ["[assess]", "D8 / A = 1/2"]
        code = main(["check", write(tmp_path, "\n".join(lines) + "\n")])
        assert code == 0
        assert "witness: 1/2 1/2" in capsys.readouterr().out

    @pytest.mark.parametrize("formula", [
        "(" * 3000 + "A" + ")" * 3000,
        " & ".join(["A"] * 600),
    ])
    def test_too_deep_formula(self, tmp_path, capsys, formula):
        code = main(["check", write(tmp_path, f"[assess]\n{formula} / C = 1/2\n")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["A / B = 1e-300000", "A / B in [0, 1e-300000]"])
    def test_literal_too_long(self, tmp_path, capsys, line):
        # Refused from the text: as a Fraction its denominator has 300,001 digits.
        start = time.perf_counter()
        code = main(["check", write(tmp_path, f"[assess]\n{line}\n")])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBadBounds:
    """Values outside [0, 1] and empty intervals end in exit 2 and one message."""

    @pytest.mark.parametrize("command", ["check", "propagate"])
    @pytest.mark.parametrize("line", [
        "A / B in [1/2, 2]",
        "A / B = 3/2",
        "A / B in (1/2, 1/2]",
    ])
    def test_rejected(self, tmp_path, capsys, command, line):
        text = f"[assess]\n{line}\n" + ("[target]\nC / B\n" if command == "propagate" else "")
        code = main([command, write(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "propagate"])
    def test_reported_as_written(self, tmp_path, capsys, command):
        # Not the box with its open faces shrunk by eps, nor a grid point.
        text = "[assess]\nA / B in (0, 2)\n[target]\nC / B\n"
        code = main([command, write(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err and "(0, 2)" in err and "eps" not in err


class TestPropagateCommand:
    def test_precise_interval(self, tmp_path, capsys):
        code = main(["propagate", write(tmp_path, PRECISE_FIG3)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[5/18, 17/18]" in out

    def test_oracle_flag(self, tmp_path, capsys):
        code = main(["propagate", write(tmp_path, PRECISE_FIG3), "--oracle",
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["oracle_verified"] is True
        assert report["interval"] == {"lower": "5/18", "upper": "17/18",
                                      "lower_open": False, "upper_open": False}

    def test_box_sampled(self, tmp_path, capsys):
        code = main(["propagate", write(tmp_path, BOX_PROBLEM), "--grid", "3",
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["sampled"] is True
        lo, hi = F(report["interval"]["lower"]), F(report["interval"]["upper"])
        # sampled hull is contained in the closed-form union [0, 25/38]
        assert 0 <= lo <= hi <= F(25, 38)

    def test_grid_too_large(self, tmp_path, capsys):
        code = main(["propagate", write(tmp_path, BOX_PROBLEM), "--grid", "1000000"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_informative_flag(self, tmp_path, capsys):
        text = "[assess]\nB / A = 9/10\n\n[target]\nC / A\n"
        code = main(["propagate", write(tmp_path, text), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["non_informative"] is True

    def test_incoherent_premises(self, tmp_path, capsys):
        text = INCOHERENT + "\n[target]\nB / A\n"
        code = main(["propagate", write(tmp_path, text)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_target(self, tmp_path, capsys):
        code = main(["propagate", write(tmp_path, INCOHERENT)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSyllogismCommand:
    def test_named_form(self, capsys):
        code = main(["syllogism", "barbara"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s-valid" in out
        assert "sigma: {1}" in out

    def test_mood_with_figure(self, capsys):
        code = main(["syllogism", "AAI", "--figure", "III"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma: (0, 1]" in out

    def test_no_import_invalid(self, capsys):
        code = main(["syllogism", "barbara", "--import", "none"])
        out = capsys.readouterr().out
        assert code == 1
        assert "invalid" in out

    def test_oracle(self, capsys):
        code = main(["syllogism", "darapti", "--oracle", "--grid", "3",
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["oracle_verified"] is True

    def test_json_fields(self, capsys):
        code = main(["syllogism", "bocardo", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["figure"] == "III"
        assert report["mood"] == "OAO"
        assert report["sigma"] == {"lower": "0", "upper": "1",
                                   "lower_open": False, "upper_open": True}
        assert report["strictly_valid"] is True

    def test_python_dash_m(self):
        src = str(Path(probsyll.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "probsyll", "syllogism", "barbara"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=120)
        assert result.returncode == 0, result.stderr
        assert "verdict: s-valid" in result.stdout

    def test_unknown_name(self, capsys):
        code = main(["syllogism", "bramantip"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCatalogCommand:
    def test_text_listing(self, capsys):
        code = main(["catalog"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 18
        assert any("Barbara" in l and "s-valid" in l for l in lines)
        assert any("Barbari" in l and "valid (not s-valid)" in l for l in lines)

    def test_json_listing(self, capsys):
        code = main(["catalog", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        forms = report["forms"]
        assert len(forms) == 18
        assert sum(1 for f in forms if f["strictly_valid"]) == 14
        assert all(f["valid"] for f in forms)

    def test_defaults_listing(self, capsys):
        code = main(["catalog", "--defaults"])
        out = capsys.readouterr().out
        assert code == 0
        assert "M ~> P, S ~> M, (S v M) ~/> ~S |=s S ~> P" in out

    def test_no_import_catalog(self, capsys):
        code = main(["catalog", "--import", "none", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(not f["valid"] for f in report["forms"])
        assert all(f["sigma"] == {"lower": "0", "upper": "1",
                                  "lower_open": False, "upper_open": False}
                   for f in report["forms"])

    def test_options_do_not_carry_over(self, capsys):
        # main reuses one parser: options of one call must not leak into the next.
        assert main(["catalog", "--defaults", "--import", "none"]) == 0
        first = capsys.readouterr().out
        assert main(["catalog"]) == 0
        second = capsys.readouterr().out
        assert "~>" in first and "sigma=" not in first
        assert "~>" not in second and "sigma=" in second
        assert "s-valid" in second  # conditional import again, not none
        assert main(["catalog", "--defaults", "--import", "none"]) == 0
        assert capsys.readouterr().out == first

    def test_closed_stdout(self, tmp_path, monkeypatch, capsys):
        # `probsyll catalog --defaults | head -1`: the reader has gone.
        class Closed:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", Closed(target.fileno()))
            code = main(["catalog", "--defaults"])
            assert code == 2
            assert capsys.readouterr().err == ""
            # The descriptor now writes to the null device, so the flush at
            # interpreter exit has somewhere to go.
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))


# Lines built from the problem-file and formula syntax, so that drawn text
# reaches past the first parse error as well as failing at it.
_FORMULA = st.one_of(
    st.sampled_from(["A", "B", "C", "A & B", "!C", "(A | B)", "A & !A"]),
    st.lists(st.sampled_from(["A", "B", "x_y", "1X", "!", "&", "|", "(", ")", " ", "/"]),
             min_size=1, max_size=8).map("".join),
)
_NUMBER = st.sampled_from(["0", "1", "1/2", "0.3", "2", "-1", "1/0", "x"])
_VALUE = st.one_of(
    _NUMBER,
    st.builds("{}{}, {}{}".format, st.sampled_from("[("), _NUMBER, _NUMBER,
              st.sampled_from("])")),
    st.builds("{{{}}}".format, _NUMBER),
)
_LINES = {  # lines that fit each section
    "[events]": st.builds("{} = {}".format, _FORMULA, _FORMULA),
    "[assess]": st.builds("{} / {} {} {}".format, _FORMULA, _FORMULA,
                          st.sampled_from(["=", "in"]), _VALUE),
    "[target]": st.builds("{} / {}".format, _FORMULA, _FORMULA),
    "[syllogism]": st.builds("{} = {}".format, st.sampled_from(["name", "figure", "import"]),
                             st.sampled_from(["barbara", "I", "none", ""])),
}
_LINE = st.one_of(st.sampled_from(["", "# comment", "[", "[nope]", *_LINES]), _FORMULA,
                  *_LINES.values())
_SECTION = st.sampled_from(sorted(_LINES)).flatmap(
    lambda head: st.lists(st.one_of(_LINES[head], _LINE), max_size=4).map(
        lambda lines: "\n".join((head, *lines))))
_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=80),
    st.lists(_LINE, max_size=8).map("\n".join),
    st.lists(_SECTION, min_size=1, max_size=4).map("\n".join),
)


class TestFuzz:
    """Arbitrary text either parses or raises one of the documented errors."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_TEXT, _LINES["[target]"]))
    def test_parse_conditional(self, text):
        try:
            parse_conditional(text)
        except (ParseError, EventError):
            pass

    @settings(max_examples=500, deadline=None)
    @given(text=_TEXT)
    def test_load_problem(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz-problem.txt"
        path.write_text(text, encoding="utf-8")
        try:
            load_problem(str(path))
        except (ParseError, ProblemFileError, EventError):
            pass
