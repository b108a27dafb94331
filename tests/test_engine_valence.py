import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent.engines import (
    NORMALIZATION_ALPHA as ALPHA,
    compound_from_sum,
    score_valence_rule,
)


def expected_compound(raw_sum: float) -> float:
    # independent evaluation of the normalization every test relies on
    return raw_sum / math.sqrt(raw_sum * raw_sum + ALPHA)


class TestCompoundBasics:
    def test_empty_tokens(self, lexicons):
        score = score_valence_rule([], lexicons.valence)
        assert score.polarity == 0.0
        assert score.proportions == (0.0, 1.0, 0.0)

    def test_single_good(self, lexicons):
        score = score_valence_rule(["good"], lexicons.valence)
        assert score.polarity == expected_compound(1.9)
        assert score.polarity == pytest.approx(0.4404, abs=5e-5)

    def test_zero_match_is_exact_zero(self, lexicons):
        score = score_valence_rule(["zzz", "qqq", "10"], lexicons.valence)
        assert score.polarity == 0.0
        assert score.proportions == (0.0, 1.0, 0.0)

    def test_wrong_lexicon_kind(self, lexicons):
        with pytest.raises(TypeError, match="^expected a valence lexicon, got pattern$"):
            score_valence_rule(["good"], lexicons.pattern)


class TestNegation:
    def test_not_good_flips_and_damps(self, lexicons):
        score = score_valence_rule(["not", "good"], lexicons.valence)
        assert score.polarity < 0
        assert score.polarity == expected_compound(1.9 * -0.74)

    def test_negation_outside_window_ignored(self, lexicons):
        tokens = ["not", "x1", "x2", "x3", "good"]
        score = score_valence_rule(tokens, lexicons.valence)
        assert score.polarity == expected_compound(1.9)

    def test_negated_negative_turns_positive(self, lexicons):
        score = score_valence_rule(["not", "terrible"], lexicons.valence)
        assert score.polarity > 0

    @pytest.mark.parametrize("negation", sorted(
        {"not", "no", "never", "nt", "neither", "nor", "cannot"}))
    def test_every_negation_word_flips(self, negation, lexicons):
        score = score_valence_rule([negation, "good"], lexicons.valence)
        assert score.polarity == expected_compound(1.9 * -0.74)


class TestBoosters:
    def test_amplifier_raises_positive(self, lexicons):
        plain = score_valence_rule(["good"], lexicons.valence)
        boosted = score_valence_rule(["very", "good"], lexicons.valence)
        assert boosted.polarity == expected_compound(1.9 + 0.293)
        assert boosted.polarity > plain.polarity

    def test_amplifier_deepens_negative(self, lexicons):
        boosted = score_valence_rule(["very", "terrible"], lexicons.valence)
        assert boosted.polarity == expected_compound(-2.1 - 0.293)

    def test_dampener_moves_toward_zero(self, lexicons):
        damped = score_valence_rule(["slightly", "good"], lexicons.valence)
        assert damped.polarity == expected_compound(1.9 - 0.293)

    def test_stacked_modifiers_apply_per_word(self, lexicons):
        stacked = score_valence_rule(["really", "very", "good"], lexicons.valence)
        assert stacked.polarity == expected_compound(1.9 + 0.293 + 0.293)

    def test_modifier_itself_never_scores(self, lexicons):
        # "super" is an amplifier even though its surface could carry valence
        score = score_valence_rule(["super"], lexicons.valence)
        assert score.polarity == 0.0

    def test_booster_monotonicity_over_lexicon(self, lexicons):
        for word, valence in lexicons.valence._valence.items():
            if valence <= 0:
                continue
            plain = score_valence_rule([word], lexicons.valence).polarity
            boosted = score_valence_rule(["very", word], lexicons.valence).polarity
            assert boosted >= plain, word


class TestCapsAndExclamations:
    def test_caps_ignored_without_raw_text(self, lexicons):
        score = score_valence_rule(["horrible"], lexicons.valence)
        assert score.polarity == expected_compound(-2.9)

    def test_caps_bump_with_raw_text(self, lexicons):
        score = score_valence_rule(["horrible"], lexicons.valence,
                                   raw_text="this is HORRIBLE")
        assert score.polarity == expected_compound(-2.9 - 0.733)

    def test_uniform_caps_carry_no_emphasis(self, lexicons):
        score = score_valence_rule(["great", "job"], lexicons.valence,
                                   raw_text="GREAT JOB")
        assert score.polarity == expected_compound(3.1)

    def test_exclamations_amplify_with_sign(self, lexicons):
        one = score_valence_rule(["good"], lexicons.valence, raw_text="good!")
        assert one.polarity == expected_compound(1.9 + 0.292)
        neg = score_valence_rule(["terrible"], lexicons.valence, raw_text="terrible!!")
        assert neg.polarity == expected_compound(-2.1 - 2 * 0.292)

    def test_exclamations_saturate(self, lexicons):
        four = score_valence_rule(["good"], lexicons.valence, raw_text="good!!!!")
        nine = score_valence_rule(["good"], lexicons.valence, raw_text="good!!!!!!!!!")
        assert four.polarity == nine.polarity == expected_compound(1.9 + 4 * 0.292)

    def test_exclamations_monotone_up_to_saturation(self, lexicons):
        values = [
            score_valence_rule(["good"], lexicons.valence, raw_text="good" + "!" * k).polarity
            for k in range(7)
        ]
        assert values == sorted(values)
        assert values[4] == values[5] == values[6]

    def test_zero_signal_stays_exact_zero_despite_exclamations(self, lexicons):
        score = score_valence_rule(["zzz"], lexicons.valence, raw_text="zzz!!!")
        assert score.polarity == 0.0


class TestContrastClause:
    def test_paper_example_tilts_positive(self, lexicons):
        tokens = ["renewable", "energy", "source", "maybe", "bit", "expensive",
                  "but", "much", "healthy"]
        score = score_valence_rule(tokens, lexicons.valence)
        assert score.polarity > 0

    def test_weights_applied_around_but(self, lexicons):
        tokens = ["good", "but", "terrible"]
        score = score_valence_rule(tokens, lexicons.valence)
        assert score.polarity == expected_compound(1.9 * 0.5 + (-2.1) * 1.5)

    def test_no_but_no_weighting(self, lexicons):
        tokens = ["good", "terrible"]
        score = score_valence_rule(tokens, lexicons.valence)
        assert score.polarity == expected_compound(1.9 - 2.1)


class TestProportions:
    def test_mixed_masses(self, lexicons):
        score = score_valence_rule(["good", "terrible", "zzz"], lexicons.valence)
        pos, neu, neg = score.proportions
        total = 1.9 + 2.1 + 1.0
        assert pos == 1.9 / total
        assert neu == 1.0 / total
        assert neg == 2.1 / total

    def test_sum_to_one(self, lexicons):
        score = score_valence_rule(["good", "bad", "x", "not", "nice"], lexicons.valence)
        assert abs(sum(score.proportions) - 1.0) <= 1e-9


class TestNormalizationShape:
    def test_matches_direct_evaluation(self):
        for i in range(-40, 41):
            s = i / 2
            direct = s * (s * s + ALPHA) ** -0.5
            assert abs(compound_from_sum(s, ALPHA) - direct) <= 1e-12

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_odd_and_bounded(self, s):
        value = compound_from_sum(s, ALPHA)
        assert -1.0 < value < 1.0
        assert compound_from_sum(-s, ALPHA) == -value

    @given(st.floats(min_value=-50, max_value=49.5, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_strictly_increasing(self, s):
        assert compound_from_sum(s, ALPHA) < compound_from_sum(s + 0.5, ALPHA)

