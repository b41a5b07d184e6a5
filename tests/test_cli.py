"""Command-line interface: problem files, subcommands, exit codes."""

import json
from fractions import Fraction

import pytest

from probsyll.cli import (ProblemFileError, load_problem, main,
                          parse_rational, parse_value_set)
from probsyll import OpenInterval

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
        box = problem.box()
        assert box.lowers == (0, F(9, 10), F(1, 2))
        assert box.uppers == (F(1, 4), 1, 1)

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

    @pytest.mark.parametrize("formula", [
        "(" * 3000 + "A" + ")" * 3000,
        " & ".join(["A"] * 600),
    ])
    def test_too_deep_formula(self, tmp_path, capsys, formula):
        code = main(["check", write(tmp_path, f"[assess]\n{formula} / C = 1/2\n")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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
