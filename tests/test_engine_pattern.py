import pytest

from windsent.engines import score_pattern_avg
from windsent.lexicons import load_lexicon


class TestPatternAveraging:
    def test_zero_match(self, lexicons):
        score = score_pattern_avg(["zzz", "10"], lexicons.pattern)
        assert score.polarity == 0.0
        assert score.subjectivity == 0.0

    def test_great_awful_mean(self, lexicons):
        score = score_pattern_avg(["great", "awful"], lexicons.pattern)
        assert score.polarity == (0.8 + -1.0) / 2
        great = lexicons.pattern._pattern["great"].subjectivity
        awful = lexicons.pattern._pattern["awful"].subjectivity
        assert score.subjectivity == (great + awful) / 2

    def test_unmatched_tokens_do_not_dilute(self, lexicons):
        alone = score_pattern_avg(["great"], lexicons.pattern)
        padded = score_pattern_avg(["zzz", "great", "qqq", "www"], lexicons.pattern)
        assert alone.polarity == padded.polarity == 0.8

    def test_wrong_kind(self, lexicons):
        with pytest.raises(TypeError, match="^expected a pattern lexicon, got valence$"):
            score_pattern_avg(["great"], lexicons.valence)


class TestIntensifiers:
    def test_intensifier_multiplies_next_matched_word(self, lexicons):
        factor = lexicons.pattern._pattern["very"].intensity_factor
        score = score_pattern_avg(["very", "great"], lexicons.pattern)
        assert score.polarity == min(0.8 * factor, 1.0)

    def test_intensifier_does_not_enter_the_mean(self, lexicons):
        plain = score_pattern_avg(["great"], lexicons.pattern)
        modified = score_pattern_avg(["very", "great"], lexicons.pattern)
        assert plain.subjectivity == modified.subjectivity

    def test_dampener_reduces_magnitude(self, lexicons):
        factor = lexicons.pattern._pattern["slightly"].intensity_factor
        assert factor < 1
        score = score_pattern_avg(["slightly", "great"], lexicons.pattern)
        assert score.polarity == 0.8 * factor

    def test_intensifier_with_gap_has_no_effect(self, lexicons):
        score = score_pattern_avg(["very", "zzz", "great"], lexicons.pattern)
        assert score.polarity == 0.8

    def test_per_word_clamp(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("boost\t0.0\t0.0\t1\t2.0\nstrong\t0.9\t0.5\t0\t1.0\n",
                        encoding="utf-8")
        lex = load_lexicon(path, "pattern")
        score = score_pattern_avg(["boost", "strong"], lex)
        assert score.polarity == 1.0  # 0.9 * 2.0 clamped per word


class TestPatternNegation:
    def test_negation_damps_by_half_and_flips(self, lexicons):
        score = score_pattern_avg(["not", "great"], lexicons.pattern)
        assert score.polarity == 0.8 * -0.5

    def test_negation_window_is_three_tokens(self, lexicons):
        inside = score_pattern_avg(["not", "x", "x", "great"], lexicons.pattern)
        outside = score_pattern_avg(["not", "x", "x", "x", "great"], lexicons.pattern)
        assert inside.polarity == 0.8 * -0.5
        assert outside.polarity == 0.8

    def test_negation_does_not_alter_subjectivity(self, lexicons):
        plain = score_pattern_avg(["great"], lexicons.pattern)
        negated = score_pattern_avg(["not", "great"], lexicons.pattern)
        assert plain.subjectivity == negated.subjectivity


class TestPaperSubjectivityOrdering:
    def test_opinion_text_beats_factual_text(self, lexicons):
        opinionated = ["not", "like", "offshore", "wind", "energy", "boring"]
        factual = ["offshore", "wind", "energy", "cost", "10", "more", "current",
                   "usage", "cannot", "afford", "profit", "20", "lower", "year"]
        subjective = score_pattern_avg(opinionated, lexicons.pattern)
        objective = score_pattern_avg(factual, lexicons.pattern)
        assert subjective.subjectivity > objective.subjectivity
