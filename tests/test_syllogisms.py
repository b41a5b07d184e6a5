"""Syllogistic verdicts, defaults translation, p-entailment, quantifiers."""

from fractions import Fraction
from itertools import product

import pytest

from probsyll import (
    Figure, ImportKind, OpenInterval, SentenceKind, SentenceType, SyllogismForm,
    UnknownForm, canonical_family, catalog, check_p_entailment,
    conclusion_set, evaluate_syllogism, form_by_name, gq_syllogism,
    import_constraint, interpret_sentence, parse_conditional, parse_mood,
    premise_box, to_defaults,
)

F = Fraction

# name -> (sigma as text, strictly valid) under conditional existential import
EXPECTED_VERDICTS = {
    "Barbara": ("{1}", True),
    "Barbari": ("{1}", False),
    "Celarent": ("{0}", True),
    "Celaront": ("{0}", False),
    "Darii": ("(0, 1]", True),
    "Ferio": ("[0, 1)", True),
    "Camestres": ("{1}", True),
    "Camestrop": ("{1}", False),
    "Cesare": ("{1}", True),
    "Cesaro": ("{1}", False),
    "Baroco": ("(0, 1]", True),
    "Festino": ("(0, 1]", True),
    "Darapti": ("(0, 1]", True),
    "Datisi": ("(0, 1]", True),
    "Disamis": ("(0, 1]", True),
    "Felapton": ("[0, 1)", True),
    "Ferison": ("[0, 1)", True),
    "Bocardo": ("[0, 1)", True),
}


class TestSentences:
    def test_interpretations(self):
        s = lambda k: SentenceType(SentenceKind(k), "S", "P")
        assert str(interpret_sentence(s("A"))) == "p(P|S) = 1"
        assert str(interpret_sentence(s("E"))) == "p(P|S) = 0"
        assert str(interpret_sentence(s("I"))) == "p(P|S) > 0"
        assert str(interpret_sentence(s("O"))) == "p(!P|S) > 0"

    def test_constraint_intervals(self):
        s = lambda k: SentenceType(SentenceKind(k), "S", "P")
        assert interpret_sentence(s("A")).interval() == OpenInterval.point(1)
        assert interpret_sentence(s("I")).interval() \
            == OpenInterval(0, 1, lower_open=True)

    def test_constraint_complement(self):
        c = interpret_sentence(SentenceType(SentenceKind.O, "S", "P"))
        comp = c.complement()
        assert str(comp) == "p(!!P|S) < 1"
        assert comp.interval() == OpenInterval(0, 1, upper_open=True)

    def test_empty_constraints_rejected(self):
        c = interpret_sentence(SentenceType(SentenceKind.I, "S", "P"))
        bad = type(c)(c.event, ">", F(1))
        with pytest.raises(ValueError):
            bad.interval()

    def test_form_sentences_term_order(self):
        form = form_by_name("Cesare")  # Figure II EAE
        major, minor, concl = form.sentences()
        assert (major.subject, major.predicate) == ("P", "M")
        assert (minor.subject, minor.predicate) == ("S", "M")
        assert (concl.subject, concl.predicate) == ("S", "P")
        form = form_by_name("Darapti")  # Figure III AAI
        major, minor, _ = form.sentences()
        assert (major.subject, major.predicate) == ("M", "P")
        assert (minor.subject, minor.predicate) == ("M", "S")


class TestImport:
    def test_conditional_import_constraints(self):
        assert str(import_constraint(Figure.I, "conditional")) == "p(S|(S | M)) > 0"
        assert str(import_constraint(Figure.II, "conditional")) == "p(S|(S | P)) > 0"
        assert str(import_constraint(Figure.III, "conditional")) == "p(M|(S | M)) > 0"

    def test_unconditional_import_constraints(self):
        assert str(import_constraint(Figure.I, "unconditional")) == "p(S|T) > 0"
        assert str(import_constraint(Figure.III, "unconditional")) == "p(M|T) > 0"

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            import_constraint(Figure.I, ImportKind.NONE)


class TestBoxes:
    def test_barbara_box(self):
        box = premise_box(form_by_name("Barbara"), "conditional")
        assert box[0] == OpenInterval.point(1)
        assert box[1] == OpenInterval.point(1)
        assert box[2] == OpenInterval(0, 1, lower_open=True)

    def test_no_import_t_closed(self):
        box = premise_box(form_by_name("Barbara"), "none")
        assert box[2] == OpenInterval.closed(0, 1)

    def test_figure2_minor_reflected(self):
        # Camestres AEE: minor E says p(M|S)=0, canonical y = p(!M|S) = 1
        box = premise_box(form_by_name("Camestres"), "conditional")
        assert box[1] == OpenInterval.point(1)
        # Festino EIO: minor I says p(M|S)>0, so y = p(!M|S) in [0,1)
        box = premise_box(form_by_name("Festino"), "conditional")
        assert box[1] == OpenInterval(0, 1, upper_open=True)

    def test_conclusion_sets(self):
        assert conclusion_set(form_by_name("Barbara")) == OpenInterval.point(1)
        assert conclusion_set(form_by_name("Darii")) \
            == OpenInterval(0, 1, lower_open=True)
        # Figure II conclusions are reflected onto p(!P|S)
        assert conclusion_set(form_by_name("Camestres")) == OpenInterval.point(1)
        assert conclusion_set(form_by_name("Baroco")) \
            == OpenInterval(0, 1, lower_open=True)


class TestCatalog:
    def test_catalog_size_and_names(self):
        forms = catalog()
        assert len(forms) == 18
        assert [f.name for f in forms[:3]] == ["Barbara", "Barbari", "Celarent"]
        assert {f.figure for f in forms} == set(Figure)

    def test_form_by_name_case_insensitive(self):
        assert form_by_name("bArBaRa").mood_str == "AAA"
        with pytest.raises(UnknownForm):
            form_by_name("Bramantip")  # Figure IV, out of scope

    def test_parse_mood(self):
        assert parse_mood("aai") == (SentenceKind.A, SentenceKind.A, SentenceKind.I)
        with pytest.raises(UnknownForm):
            parse_mood("AX")
        with pytest.raises(UnknownForm):
            parse_mood("AAZ")

    def test_all_verdicts_with_conditional_import(self):
        for form in catalog():
            verdict = evaluate_syllogism(form, ImportKind.CONDITIONAL)
            sigma_text, strict = EXPECTED_VERDICTS[form.name]
            assert str(verdict.sigma) == sigma_text, form.name
            assert verdict.valid, form.name
            assert verdict.strictly_valid == strict, form.name

    def test_unconditional_import_same_sigma(self):
        for name in ("Barbara", "Festino", "Bocardo", "Barbari"):
            form = form_by_name(name)
            a = evaluate_syllogism(form, ImportKind.CONDITIONAL)
            b = evaluate_syllogism(form, ImportKind.UNCONDITIONAL)
            assert a.sigma == b.sigma
            assert a.valid == b.valid and a.strictly_valid == b.strictly_valid

    def test_no_import_never_valid(self):
        for form in catalog():
            verdict = evaluate_syllogism(form, ImportKind.NONE)
            assert verdict.sigma == OpenInterval.closed(0, 1), form.name
            assert not verdict.valid, form.name

    def test_invalid_mood(self):
        # AAA is invalid in Figure II even with import
        form = SyllogismForm(Figure.II, parse_mood("AAA"))
        verdict = evaluate_syllogism(form, ImportKind.CONDITIONAL)
        assert not verdict.valid

    @pytest.mark.parametrize("import_kind", list(ImportKind))
    def test_all_moods(self, import_kind):
        # Of the 64 moods in each of Figures I-III, exactly the 18 catalog
        # forms are valid under either import, and none without import.
        valid = {(form.figure, form.mood) for form in catalog()}
        found = set()
        for figure in Figure:
            for mood in product("AEIO", repeat=3):
                form = SyllogismForm(figure, parse_mood("".join(mood)))
                if evaluate_syllogism(form, import_kind).valid:
                    found.add((figure, form.mood))
        assert found == (set() if import_kind is ImportKind.NONE else valid)


class TestDefaults:
    def test_barbara_rule(self):
        rule = to_defaults(form_by_name("Barbara"))
        assert rule.serialize() \
            == "M ~> P, S ~> M, (S v M) ~/> ~S |=s S ~> P"

    def test_barbari_not_strict(self):
        rule = to_defaults(form_by_name("Barbari"))
        assert rule.serialize() \
            == "M ~> P, S ~> M, (S v M) ~/> ~S |= S ~/> ~P"

    def test_camestres_rule(self):
        rule = to_defaults(form_by_name("Camestres"))
        assert rule.serialize() \
            == "P ~> M, S ~> ~M, (S v P) ~/> ~S |=s S ~> ~P"

    def test_bocardo_rule(self):
        rule = to_defaults(form_by_name("Bocardo"))
        assert rule.serialize() \
            == "M ~/> P, M ~> S, (S v M) ~/> ~M |=s S ~/> P"

    def test_ferio_rule(self):
        rule = to_defaults(form_by_name("Ferio"))
        assert rule.serialize() \
            == "M ~> ~P, S ~/> ~M, (S v M) ~/> ~S |=s S ~/> P"

    def test_non_catalog_rejected(self):
        with pytest.raises(UnknownForm):
            to_defaults(SyllogismForm(Figure.I, parse_mood("AEE")))


class TestPEntailment:
    def test_modus_ponens_chain_with_import(self):
        fam = (parse_conditional("P / M"), parse_conditional("M / S"),
               parse_conditional("S / S | M"))
        assert check_p_entailment(fam, parse_conditional("P / S"))

    def test_figure3_chain_with_import(self):
        fam = (parse_conditional("P / M"), parse_conditional("S / M"),
               parse_conditional("M / S | M"))
        assert check_p_entailment(fam, parse_conditional("P / S"))

    def test_unrelated_conclusion_not_entailed(self):
        assert not check_p_entailment((parse_conditional("B / A"),),
                                      parse_conditional("C / A"))

    def test_without_import_not_entailed(self):
        fam = (parse_conditional("P / M"), parse_conditional("M / S"))
        assert not check_p_entailment(fam, parse_conditional("P / S"))

    def test_inconsistent_premises_not_entailed(self):
        fam = (parse_conditional("A / A | !A"), parse_conditional("!A / A | !A"))
        assert not check_p_entailment(fam, parse_conditional("A / A"))


class TestGeneralizedQuantifiers:
    @pytest.mark.parametrize("y", [F(1, 2), F(3, 4), F(9, 10)])
    def test_baroco_with_threshold(self, y):
        sigma = gq_syllogism(Figure.II, [("=", 1), (">=", y)])
        assert sigma == OpenInterval.closed(y, 1)

    def test_zero_threshold_non_informative(self):
        sigma = gq_syllogism(Figure.II, [("=", 1), (">=", 0)])
        assert sigma == OpenInterval.closed(0, 1)

    def test_no_import_non_informative(self):
        sigma = gq_syllogism(Figure.II, [("=", 1), (">=", F(3, 4))],
                             import_kind="none")
        assert sigma == OpenInterval.closed(0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            gq_syllogism(Figure.II, [("=", 1)])
        with pytest.raises(ValueError):
            gq_syllogism(Figure.II, [("=", 1), (">=", F(3, 2))])
