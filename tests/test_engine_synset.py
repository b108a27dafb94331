import pytest

from windsent.corpus import Comment, CommentCollection
from windsent.engines import (
    score_all,
    score_synset,
    score_valence_rule,
    score_pattern_avg,
    tag_pos,
)
from windsent.lexicons import load_lexicon
from windsent.preprocess import default_config, preprocess_corpus


class TestTagPos:
    @pytest.mark.parametrize("token,tag", [
        ("quickly", "adv"),
        ("turbine", "noun"),
        ("estimable", "adj"),
        ("dangerous", "adj"),
        ("hopeful", "adj"),
        ("walked", "verb"),
        ("swimming", "verb"),
        ("kill", "verb"),       # table entry beats the default
        ("killing", "noun"),    # table entry beats the -ing suffix rule
        ("good", "adj"),
        ("zzz", "noun"),
    ])
    def test_examples(self, token, tag):
        (tok, result), = tag_pos([token])
        assert tok == token and result == tag

    def test_empty(self):
        assert tag_pos([]) == []


class TestSynsetScoring:
    def test_zero_match(self, lexicons):
        score = score_synset([("zzz", "noun")], lexicons.synset)
        assert score.polarity == 0.0

    def test_estimable_positive_in_esteem_context(self, lexicons):
        score = score_synset([("estimable", "adj")], lexicons.synset)
        assert score.polarity == 0.75

    def test_estimable_neutral_in_item_context(self, lexicons):
        score = score_synset([("estimable", "noun")], lexicons.synset)
        assert score.polarity == 0.0

    def test_single_sense_modes_agree(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("x.n.01\tnoun\t0.5\t0.25\t1\tx\n", encoding="utf-8")
        lex = load_lexicon(path, "synset")
        first = score_synset([("x", "noun")], lex, "first_sense")
        averaged = score_synset([("x", "noun")], lex, "average_senses")
        assert first.polarity == averaged.polarity == 0.25

    def test_average_senses_rank_weighting(self, lexicons):
        # estimable adj: rank 1 diff 0.75, rank 2 diff 0.0
        score = score_synset([("estimable", "adj")], lexicons.synset,
                             "average_senses")
        expected = (0.75 / 1 + 0.0 / 2) / (1 / 1 + 1 / 2)
        assert score.polarity == expected

    def test_mean_over_matched_tokens_only(self, lexicons):
        alone = score_synset([("good", "adj")], lexicons.synset)
        padded = score_synset([("good", "adj"), ("zzz", "noun")], lexicons.synset)
        assert alone.polarity == padded.polarity

    def test_pos_sensitivity(self, lexicons):
        as_noun = score_synset([("good", "noun")], lexicons.synset)
        as_adj = score_synset([("good", "adj")], lexicons.synset)
        assert as_noun.polarity != as_adj.polarity

    def test_unknown_disambiguation(self, lexicons):
        with pytest.raises(ValueError):
            score_synset([("good", "adj")], lexicons.synset, "oracle")

    def test_wrong_kind(self, lexicons):
        with pytest.raises(TypeError, match="^expected a synset lexicon, got valence$"):
            score_synset([("good", "adj")], lexicons.valence)


class TestScoreAll:
    def make_documents(self, text):
        collection = CommentCollection((Comment(id="c", text=text),), "mem")
        return preprocess_corpus(collection, default_config())

    def test_dropped_document_rejected(self, lexicons):
        doc = self.make_documents("   ")[0]
        with pytest.raises(ValueError):
            score_all(doc, lexicons)

    def test_zero_signal_consistency(self, lexicons):
        doc = self.make_documents("qqq zzz 123 456")[0]
        scores = score_all(doc, lexicons)
        assert scores.valence_rule.polarity == 0.0
        assert scores.pattern_avg.polarity == 0.0
        assert scores.synset.polarity == 0.0

    def test_engine_independence(self, lexicons):
        doc = self.make_documents("clean energy is a great idea for whales")[0]
        together = score_all(doc, lexicons)
        assert together.valence_rule == score_valence_rule(doc.tokens, lexicons.valence)
        assert together.pattern_avg == score_pattern_avg(doc.tokens, lexicons.pattern)
        assert together.synset == score_synset(tag_pos(doc.tokens), lexicons.synset)

    def test_modes_differ_only_in_valence(self, lexicons):
        doc = self.make_documents("The turbines are HORRIBLE and ruin the view!!!")[0]
        paper = score_all(doc, lexicons, mode="paper_faithful")
        native = score_all(doc, lexicons, mode="engine_native")
        assert paper.pattern_avg == native.pattern_avg
        assert paper.synset == native.synset
        assert native.valence_rule.polarity < paper.valence_rule.polarity

    def test_unknown_mode_rejected(self, lexicons):
        doc = self.make_documents("clean energy wins")[0]
        with pytest.raises(ValueError):
            score_all(doc, lexicons, mode="hybrid")

    def test_golden_manifest_scores(self, lexicons, manifest, golden_corpus_path):
        """Per-comment engine outputs must equal the frozen oracle values,
        including the engine-native valence extras."""
        from windsent.corpus import load_corpus
        collection = load_corpus(golden_corpus_path, "jsonl")
        documents = {d.comment_id: d
                     for d in preprocess_corpus(collection, default_config())}
        for row in manifest["comments"]:
            doc = documents[row["id"]]
            scores = score_all(doc, lexicons)
            recorded = row["scores"]
            assert scores.pattern_avg.polarity == recorded["pattern_avg"]["polarity"]
            assert scores.pattern_avg.subjectivity == recorded["pattern_avg"]["subjectivity"]
            assert scores.synset.polarity == recorded["synset"]["polarity"]
            valence = recorded["valence_rule"]
            assert scores.valence_rule.polarity == valence["polarity"]
            pos, neu, neg = scores.valence_rule.proportions
            assert {"pos": pos, "neu": neu, "neg": neg} == valence["proportions"]

            native = score_all(doc, lexicons, mode="engine_native")
            assert native.valence_rule.polarity == row["native_valence"]["polarity"]

            averaged = score_all(doc, lexicons, disambiguation="average_senses")
            assert averaged.synset.polarity == row["synset_average_senses"]
