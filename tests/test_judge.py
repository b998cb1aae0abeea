"""Tests for answer normalisation and the equivalence judge."""

import pytest
from hypothesis import given, strategies as st

from repro.core.question import (
    AnswerKind,
    AnswerSpec,
    Category,
    VisualContent,
    VisualType,
    make_mc_question,
    make_sa_question,
)
from repro.judge import (
    AutoJudge,
    HybridJudge,
    ManualCheckRegistry,
    answers_equivalent,
    boolean_equivalent,
    extract_option_letter,
    normalize_text,
    numeric_equivalent,
    parse_number_with_unit,
    text_equivalent,
)
from repro.judge.normalize import contains_phrase, strip_leadin


class TestNormalize:
    def test_case_and_whitespace(self):
        assert normalize_text("  The   ANSWER ") == "the answer"

    def test_punctuation_stripped(self):
        assert normalize_text("half adder.") == "half adder"

    def test_strip_leadin(self):
        assert strip_leadin("The answer is 42") == "42"
        assert strip_leadin("approximately 3.3 nm") == "3.3 nm"
        assert strip_leadin("42") == "42"

    def test_contains_phrase_word_boundaries(self):
        assert contains_phrase("it is a half adder circuit", "half adder")
        assert not contains_phrase("33.3 nm", "3.3 nm")
        assert not contains_phrase("0.7 bits", "7 bits")
        assert not contains_phrase("16000 nm", "1600 nm")


class TestOptionLetter:
    @pytest.mark.parametrize("response,expected", [
        ("B", "B"),
        ("b", "B"),
        ("(c)", "C"),
        ("D)", "D"),
        ("A) the first option", "A"),
        ("The answer is C.", "C"),
        ("Option B", "B"),
        ("answer: d", "D"),
    ])
    def test_extraction(self, response, expected):
        assert extract_option_letter(response) == expected

    @pytest.mark.parametrize("response", [
        "The adder", "42", "", "Because of B's behaviour in general",
    ])
    def test_non_letters(self, response):
        assert extract_option_letter(response) is None


class TestNumberParsing:
    @pytest.mark.parametrize("text,value,unit", [
        ("4.7 kOhm", 4700.0, "ohm"),
        ("3.3 nm", 3.3e-9, "m"),
        ("100 MHz", 1e8, "hz"),
        ("-3 dB", -3.0, "db"),
        ("50%", 50.0, "%"),
        ("2.5", 2.5, ""),
        ("1,000 Hz", 1000.0, "hz"),
        ("5.5 minutes", 330.0, "s"),
        ("4 MiB", 4 * 2 ** 20, "b"),
        ("1e6 Hz", 1e6, "hz"),
    ])
    def test_parse(self, text, value, unit):
        parsed = parse_number_with_unit(text)
        assert parsed is not None
        assert parsed[0] == pytest.approx(value)
        assert parsed[1] == unit

    def test_no_number_returns_none(self):
        assert parse_number_with_unit("an adder") is None


class TestNumericEquivalence:
    def test_same_value_different_prefix(self):
        assert numeric_equivalent("4.7 kOhm", "4700 Ohm")

    def test_tolerance(self):
        assert numeric_equivalent("100", "101", rel_tol=0.02)
        assert not numeric_equivalent("100", "110", rel_tol=0.02)

    def test_unitless_response_accepted_at_display_scale(self):
        assert numeric_equivalent("5.5 minutes", "5.5", unit_hint="minutes")

    def test_wrong_unit_rejected(self):
        assert not numeric_equivalent("5 V", "5 A")

    def test_garbage_rejected(self):
        assert not numeric_equivalent("5 V", "no idea")


class TestTextEquivalence:
    def test_alias_match(self):
        assert text_equivalent("Half adder", "half-adder",
                               aliases=("half-adder",))

    def test_containment_of_long_gold(self):
        assert text_equivalent("half adder", "it is a half adder circuit")

    def test_short_gold_requires_exact(self):
        assert not text_equivalent("B", "suburb")
        assert text_equivalent("B", "b")

    def test_leadin_stripped(self):
        assert text_equivalent("D2", "The answer is D2.")


class TestBooleanEquivalence:
    def test_reordered_terms(self):
        assert boolean_equivalent("S + R'Q", "R'Q + S")

    def test_factored_form(self):
        assert boolean_equivalent("AB + AC", "A(B + C)")

    def test_wrong_function(self):
        assert not boolean_equivalent("A + B", "AB")

    def test_prose_falls_back_to_text(self):
        assert boolean_equivalent("the or gate", "THE OR GATE")


def _mc_question():
    return make_mc_question(
        "j-1", Category.DIGITAL, "Pick.",
        VisualContent(VisualType.TABLE, "t"),
        ("4.6", "4.4", "3.0", "6.0"), 0,
        answer_kind=AnswerKind.NUMERIC, unit="ns")


def _sa_question(kind=AnswerKind.NUMERIC, text="5.5", unit="minutes",
                 aliases=()):
    return make_sa_question(
        "j-2", Category.MANUFACTURING, "How long?",
        VisualContent(VisualType.LAYOUT, "l"),
        AnswerSpec(kind, text, unit=unit, aliases=aliases))


class TestAnswersEquivalent:
    def test_mc_letter(self):
        assert answers_equivalent(_mc_question(), "A")
        assert not answers_equivalent(_mc_question(), "B")

    def test_mc_full_text(self):
        assert answers_equivalent(_mc_question(), "4.6")

    def test_mc_numeric_with_unit(self):
        assert answers_equivalent(_mc_question(), "4.6 ns")

    def test_mc_ambiguous_distractor_match_rejected(self):
        # "4.4" matches a distractor exactly -> wrong
        assert not answers_equivalent(_mc_question(), "4.4 ns")

    def test_empty_response_incorrect(self):
        assert not answers_equivalent(_mc_question(), "")
        assert not answers_equivalent(_mc_question(), "   ")

    def test_sa_numeric(self):
        question = _sa_question()
        assert answers_equivalent(question, "5.5 minutes")
        assert answers_equivalent(question, "5.5")
        assert answers_equivalent(question, "330 seconds")
        assert not answers_equivalent(question, "6.5 minutes")

    def test_sa_boolean(self):
        question = _sa_question(kind=AnswerKind.BOOLEAN_EXPR,
                                text="JQ' + K'Q", unit="")
        assert answers_equivalent(question, "K'Q + JQ'")
        assert not answers_equivalent(question, "JQ + K'Q'")

    def test_sa_text_alias(self):
        question = _sa_question(kind=AnswerKind.TEXT, text="Topology B",
                                unit="", aliases=("B", "the chain topology"))
        assert answers_equivalent(question, "B")
        assert answers_equivalent(question, "I would pick the chain topology")


class TestJudges:
    def test_auto_judge_verdict(self):
        judge = AutoJudge(keep_transcript=True)
        verdict = judge.judge(_mc_question(), "A")
        assert verdict.correct and verdict.method == "auto"
        assert judge.transcript[-1]["verdict"] == "YES"

    def test_hybrid_manual_override(self):
        manual = ManualCheckRegistry()
        manual.record("j-1", "weird phrasing", True)
        judge = HybridJudge(manual=manual)
        verdict = judge.judge(_mc_question(), "weird phrasing")
        assert verdict.correct and verdict.method == "manual"

    def test_hybrid_manual_rule(self):
        manual = ManualCheckRegistry()
        manual.record_rule("j-1", lambda r: True if "four point six" in r
                           else None)
        judge = HybridJudge(manual=manual)
        assert judge.judge(_mc_question(), "four point six ns").correct
        assert not judge.judge(_mc_question(), "nonsense").correct

    def test_manual_flag_routes_to_manual_method(self):
        question = make_sa_question(
            "j-3", Category.PHYSICAL, "p",
            VisualContent(VisualType.LAYOUT, "l"),
            AnswerSpec(AnswerKind.TEXT, "yes",
                       requires_manual_check=True))
        verdict = HybridJudge().judge(question, "yes")
        assert verdict.method == "manual"

    def test_registry_len(self):
        manual = ManualCheckRegistry()
        manual.record("a", "x", True)
        manual.record_rule("b", lambda r: None)
        assert len(manual) == 2


@given(st.text(max_size=60))
def test_judge_never_crashes_on_arbitrary_response(response):
    judge = AutoJudge()
    for question in (_mc_question(), _sa_question()):
        verdict = judge.judge(question, response)
        assert isinstance(verdict.correct, bool)


@given(st.floats(-1e6, 1e6).filter(lambda x: abs(x) > 1e-3))
def test_numeric_self_equivalence(value):
    text = f"{value:.6g}"
    assert numeric_equivalent(text, text)


class TestVerdictMemo:
    """``answers_equivalent`` memoises verdicts on the frozen question."""

    @pytest.fixture(scope="class")
    def zoo_responses(self, chipvqa, chipvqa_challenge):
        import dataclasses

        from repro.models import NO_CHOICE, WITH_CHOICE, build_zoo

        # fresh instances: the shared fixture datasets may already carry memos
        pairs = []
        for dataset, setting in ((chipvqa, WITH_CHOICE),
                                 (chipvqa_challenge, NO_CHOICE)):
            questions = [dataclasses.replace(q) for q in dataset]
            for provider in build_zoo():
                answers = provider.answer_batch(questions, setting)
                pairs.extend(zip(questions, (a.text for a in answers)))
        return pairs

    def test_memoized_verdict_equals_decision_procedure(self,
                                                        zoo_responses):
        from repro.judge.equivalence import _decide_equivalent

        assert len(zoo_responses) == 12 * 2 * 142
        for question, response in zoo_responses:
            assert answers_equivalent(question, response) \
                == _decide_equivalent(question, response)

    def test_second_pass_hits_the_memo(self, zoo_responses, monkeypatch):
        from repro.judge import equivalence

        first = [answers_equivalent(q, r) for q, r in zoo_responses]
        calls = []
        real = equivalence._decide_equivalent
        monkeypatch.setattr(equivalence, "_decide_equivalent",
                            lambda q, r: calls.append(r) or real(q, r))
        second = [answers_equivalent(q, r) for q, r in zoo_responses]
        assert second == first
        assert calls == []
        for question, _ in zoo_responses:
            assert len(question.__dict__["_verdicts"]) \
                <= equivalence.VERDICT_MEMO_CAP

    def test_memo_never_exceeds_its_cap(self):
        from repro.judge.equivalence import (
            VERDICT_MEMO_CAP,
            _decide_equivalent,
        )

        question = _sa_question()
        for index in range(3 * VERDICT_MEMO_CAP):
            response = f"{index / 10:g} minutes"
            assert answers_equivalent(question, response) \
                == _decide_equivalent(question, response)
            assert len(question.__dict__["_verdicts"]) <= VERDICT_MEMO_CAP
        assert answers_equivalent(question, "5.5 minutes")

    def test_manual_override_beats_a_memoized_verdict(self):
        question = _mc_question()
        assert HybridJudge().judge(question, "B").correct is False
        manual = ManualCheckRegistry()
        manual.record(question.qid, "B", True)
        verdict = HybridJudge(manual=manual).judge(question, "B")
        assert verdict.correct and verdict.method == "manual"

    def test_transcript_records_memoized_verdicts(self):
        question = _mc_question()
        judge = AutoJudge(keep_transcript=True)
        judge.judge(question, "A")
        judge.judge(question, "A")
        assert [t["verdict"] for t in judge.transcript] == ["YES", "YES"]
