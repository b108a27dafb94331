import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windsent.analytics import top_words, word_qualifies
from windsent.engines import score_pattern_avg, score_synset, score_valence_rule
from windsent.lexicons import (
    DuplicateWordError,
    LexiconFileError,
    MalformedEntryError,
    OutOfRangeScoreError,
    PatternEntry,
    PatternLexicon,
    SynsetEntry,
    SynsetLexicon,
    DEFAULT_LEMMAS_PATH,
    ValenceLexicon,
    _check_word,
    bundled_lexicon_dir,
    load_lemmas,
    load_lexicon,
    load_lexicon_set,
    load_table,
)
from windsent.preprocess import normalize


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestValenceLoading:
    def test_basic_entry(self, tmp_path):
        lex = load_lexicon(write(tmp_path / "v.tsv", "great\t3.1\n"), "valence")
        assert len(lex._valence) == 1
        assert lex._valence.get("great") == 3.1

    def test_out_of_range(self, tmp_path):
        with pytest.raises(OutOfRangeScoreError) as exc:
            load_lexicon(write(tmp_path / "v.tsv", "great\t9.0\n"), "valence")
        assert exc.value.line == 1

    def test_duplicate_word(self, tmp_path):
        with pytest.raises(DuplicateWordError):
            load_lexicon(write(tmp_path / "v.tsv", "good\t1.0\ngood\t2.0\n"), "valence")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        lex = load_lexicon(
            write(tmp_path / "v.tsv", "# header\n\ngood\t1.9\n"), "valence")
        assert lex._valence == {"good": 1.9}

    def test_bad_field_count(self, tmp_path):
        with pytest.raises(MalformedEntryError):
            load_lexicon(write(tmp_path / "v.tsv", "good\n"), "valence")

    def test_uppercase_word_rejected(self, tmp_path):
        with pytest.raises(MalformedEntryError):
            load_lexicon(write(tmp_path / "v.tsv", "Good\t1.0\n"), "valence")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconFileError):
            load_lexicon(tmp_path / "nope.tsv", "valence")


class TestPatternLoading:
    def test_entry_fields(self, tmp_path):
        lex = load_lexicon(
            write(tmp_path / "p.tsv", "great\t0.8\t0.75\t0\t1.0\nvery\t0.0\t0.0\t1\t1.3\n"),
            "pattern")
        entry = lex._pattern["very"]
        assert entry.is_intensifier and entry.intensity_factor == 1.3
        assert lex._pattern["great"].polarity == 0.8

    def test_polarity_bound(self, tmp_path):
        with pytest.raises(OutOfRangeScoreError):
            load_lexicon(write(tmp_path / "p.tsv", "w\t1.5\t0.5\t0\t1.0\n"), "pattern")

    def test_nonpositive_factor(self, tmp_path):
        with pytest.raises(OutOfRangeScoreError):
            load_lexicon(write(tmp_path / "p.tsv", "w\t0.5\t0.5\t1\t0.0\n"), "pattern")

    def test_bad_flag(self, tmp_path):
        with pytest.raises(MalformedEntryError):
            load_lexicon(write(tmp_path / "p.tsv", "w\t0.5\t0.5\tmaybe\t1.0\n"), "pattern")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind,row,field", [
    ("valence", "w\t{}", "valence"),
    ("pattern", "w\t{}\t0.5\t0\t1.0", "polarity"),
    ("pattern", "w\t0.5\t{}\t0\t1.0", "subjectivity"),
    ("pattern", "w\t0.0\t0.0\t1\t{}", "intensity_factor"),
    ("synset", "x.a.01\tadj\t{}\t0.0\t1\tx", "pos_score"),
    ("synset", "x.a.01\tadj\t0.0\t{}\t1\tx", "neg_score"),
])
def test_non_finite_number_rejected(tmp_path, kind, row, field, value):
    path = write(tmp_path / f"{kind}.tsv", "# header\n" + row.format(value) + "\n")
    with pytest.raises(MalformedEntryError) as exc:
        load_lexicon(path, kind)
    assert exc.value.line == 2
    assert field in exc.value.reason and "not finite" in exc.value.reason


def test_entry_errors_name_the_file(tmp_path):
    for source in bundled_lexicon_dir().iterdir():
        write(tmp_path / source.name, source.read_text(encoding="utf-8"))
    bad = tmp_path / "pattern.tsv"
    write(bad, bad.read_text(encoding="utf-8") + "w\t0.0\t0.0\t1\tnan\n")
    with pytest.raises(MalformedEntryError) as exc:
        load_lexicon_set(tmp_path)
    line = len(bad.read_text(encoding="utf-8").splitlines())
    assert exc.value.line == line
    assert exc.value.reason == "intensity_factor is not finite: 'nan'"
    assert str(exc.value) == f"{bad}: line {line}: {exc.value.reason}"


class TestSynsetLoading:
    def test_score_sum_invariant(self, tmp_path):
        with pytest.raises(MalformedEntryError):
            load_lexicon(
                write(tmp_path / "s.tsv", "x.a.01\tadj\t0.7\t0.5\t1\tx\n"), "synset")

    def test_rank_collision(self, tmp_path):
        text = "x.a.01\tadj\t0.5\t0.0\t1\tx\nx.a.02\tadj\t0.0\t0.5\t1\tx\n"
        with pytest.raises(MalformedEntryError):
            load_lexicon(write(tmp_path / "s.tsv", text), "synset")

    def test_sense_ordering(self, tmp_path):
        text = ("x.a.02\tadj\t0.0\t0.5\t2\tx\n"
                "x.a.01\tadj\t0.5\t0.0\t1\tx\n")
        lex = load_lexicon(write(tmp_path / "s.tsv", text), "synset")
        senses = lex._synsets.get(("x", "adj"), ())
        assert [s.sense_rank for s in senses] == [1, 2]

    def test_unknown_lemma_empty(self, tmp_path):
        lex = load_lexicon(write(tmp_path / "s.tsv", "x.a.01\tadj\t0.5\t0.0\t1\tx\n"),
                           "synset")
        assert lex._synsets.get(("zzzz", "adj"), ()) == ()

    def test_bad_pos(self, tmp_path):
        with pytest.raises(MalformedEntryError):
            load_lexicon(write(tmp_path / "s.tsv", "x.q.01\tqqq\t0.5\t0.0\t1\tx\n"),
                         "synset")

    # the id and the lemma list are checked although no entry keeps them
    @pytest.mark.parametrize("row,error,reason", [
        # stripping the line drops an empty leading field, so the row is short
        ("\tadj\t0.5\t0.0\t1\ty", MalformedEntryError, "expected 6 fields, got 5"),
        ("x.a.01\tadj\t0.5\t0.0\t2\ty", DuplicateWordError, "duplicate word 'x.a.01'"),
        # each item of the lemma list is a word, an empty one too
        ("y.a.01\tadj\t0.5\t0.0\t1\t,", MalformedEntryError, "not one clean token: ''"),
        ("y.a.01\tadj\t0.5\t0.0\t1\tzorp,,blorp", MalformedEntryError,
         "not one clean token: ''"),
        ("y.a.01\tadj\t0.5\t0.0\t1\tzorp,", MalformedEntryError, "not one clean token: ''"),
    ], ids=["empty-synset-id", "repeated-synset-id", "empty-lemma-list", "empty-middle-lemma",
            "empty-last-lemma"])
    def test_synset_row_refused(self, tmp_path, row, error, reason):
        text = "x.a.01\tadj\t0.5\t0.0\t1\tx\n" + row + "\n"
        with pytest.raises(error) as exc:
            load_lexicon(write(tmp_path / "s.tsv", text), "synset")
        assert (exc.value.line, exc.value.reason) == (2, reason)
        assert exc.value.code == error.code


class TestWrongKind:
    def test_engine_entry_kind_checks(self, lexicons):
        with pytest.raises(TypeError, match="^expected a valence lexicon, got pattern$"):
            score_valence_rule(["good"], lexicons.pattern)
        with pytest.raises(TypeError, match="^expected a pattern lexicon, got valence$"):
            score_pattern_avg(["good"], lexicons.valence)
        with pytest.raises(TypeError, match="^expected a synset lexicon, got valence$"):
            score_synset([("good", "adj")], lexicons.valence)
        with pytest.raises(TypeError, match="^expected a valence lexicon, got synset$"):
            top_words([], [], lexicons.synset, "valence_rule", "positive")

    @pytest.mark.parametrize("not_a_lexicon,type_name", [
        (None, "NoneType"), ({"good": 1.9}, "dict"), ("valence", "str"),
    ])
    def test_a_non_lexicon_is_named_by_its_type(self, not_a_lexicon, type_name):
        with pytest.raises(TypeError, match=f"^expected a valence lexicon, got {type_name}$"):
            score_valence_rule(["good"], not_a_lexicon)
        with pytest.raises(TypeError, match=f"^expected a pattern lexicon, got {type_name}$"):
            score_pattern_avg(["good"], not_a_lexicon)
        with pytest.raises(TypeError, match=f"^expected a synset lexicon, got {type_name}$"):
            score_synset([("good", "adj")], not_a_lexicon)
        with pytest.raises(TypeError, match=f"^expected a valence lexicon, got {type_name}$"):
            top_words([], [], not_a_lexicon, "valence_rule", "positive")
        # word_qualifies takes any lexicon kind, so the last kind it tries is named
        with pytest.raises(TypeError, match=f"^expected a synset lexicon, got {type_name}$"):
            word_qualifies(not_a_lexicon, "good", "positive")


class TestBundledLexicons:
    """The golden manifest records every bundled score; the loader must
    reproduce it entry for entry."""

    def test_valence_matches_manifest(self, lexicons, manifest):
        recorded = manifest["lexicons"]["valence"]
        assert len(lexicons.valence._valence) == len(recorded)
        for word, value in recorded.items():
            assert lexicons.valence._valence.get(word) == value

    def test_pattern_matches_manifest(self, lexicons, manifest):
        recorded = manifest["lexicons"]["pattern"]
        assert len(lexicons.pattern._pattern) == len(recorded)
        for word, (pol, subj, flag, factor) in recorded.items():
            entry = lexicons.pattern._pattern[word]
            assert (entry.polarity, entry.subjectivity,
                    entry.is_intensifier, entry.intensity_factor) \
                == (pol, subj, flag, factor)

    def test_synsets_match_manifest(self, lexicons, manifest):
        # the loader keeps each (lemma, tag, rank) unique, so it names one sense
        rows = manifest["lexicons"]["synset"]
        loaded = {(lemma, tag, sense.sense_rank)
                  for (lemma, tag), senses in lexicons.synset._synsets.items()
                  for sense in senses}
        assert loaded == {(lemma, pos, rank)
                          for _, pos, _, _, rank, lemmas in rows for lemma in lemmas}
        for _, pos, ps, ns, rank, lemmas in rows:
            for lemma in lemmas:
                senses = lexicons.synset._synsets.get((lemma, pos), ())
                match = [s for s in senses if s.sense_rank == rank]
                assert len(match) == 1
                entry = match[0]
                assert (entry.pos_score, entry.neg_score, entry.sense_rank) \
                    == (ps, ns, rank)

    def test_fixed_reference_values(self, lexicons):
        assert lexicons.valence._valence.get("good") == 1.9
        assert lexicons.valence._valence.get("terrible") == -2.1
        assert lexicons.valence._valence.get("great") == 3.1
        assert lexicons.valence._valence.get("zzzz") is None
        assert lexicons.pattern._pattern["great"].polarity == 0.8
        assert lexicons.pattern._pattern["awful"].polarity == -1.0

    def test_estimable_senses(self, lexicons):
        adj = lexicons.synset._synsets.get(("estimable", "adj"), ())
        assert len(adj) == 2
        assert adj[0].sense_rank == 1 and adj[0].pos_score == 0.75 and adj[0].neg_score == 0.0
        assert adj[1].sense_rank == 2 and adj[1].pos_score == 0.0 and adj[1].neg_score == 0.0
        noun = lexicons.synset._synsets.get(("estimable", "noun"), ())
        assert len(noun) == 1
        assert noun[0].pos_score == 0.0 and noun[0].neg_score == 0.0

    def test_good_noun_vs_adj_distinct(self, lexicons):
        noun = lexicons.synset._synsets.get(("good", "noun"), ())
        adj = lexicons.synset._synsets.get(("good", "adj"), ())
        assert noun and adj
        assert noun != adj

    def test_repeated_lookup_deterministic(self, lexicons):
        first = lexicons.synset._synsets.get(("good", "adj"), ())
        second = lexicons.synset._synsets.get(("good", "adj"), ())
        assert first == second


def test_records_hold_only_what_scoring_reads():
    assert PatternEntry._fields == (
        "polarity", "subjectivity", "is_intensifier", "intensity_factor")
    assert SynsetEntry._fields == ("pos_score", "neg_score", "sense_rank")
    assert ValenceLexicon._fields == ("_valence",)
    assert PatternLexicon._fields == ("_pattern",)
    assert SynsetLexicon._fields == ("_synsets", "lemmas")


def test_load_lexicon_set_bundled(lexicons):
    assert lexicons.valence.kind == "valence"
    assert lexicons.pattern.kind == "pattern"
    assert lexicons.synset.kind == "synset"


_SHORTENS = "is not final: a suffix rule shortens it to"


@pytest.mark.parametrize("rows,expected", [
    ("lenses\tlens", f"line 3: lemma 'lens' {_SHORTENS} 'len'"),
    ("farm\tfarms", f"line 3: lemma 'farms' {_SHORTENS} 'farm'"),
    ("zqing\tzqingings", f"line 3: lemma 'zqingings' {_SHORTENS} 'zqinging'"),
    ("farm\tfarming", f"line 3: lemma 'farming' {_SHORTENS} 'farm'"),
    ("zqing\tzqings\nzqings\tzqing",
     "line 3: lemma 'zqings' is not final: the table maps it to 'zqing'"),
    ("box\tboxed\nboxe\tbox", f"line 3: lemma 'boxed' {_SHORTENS} 'box'"),
    ("boxes\tbox\nbox\tbox\ncrates\tcrate\ncrate\tbox",
     "line 5: lemma 'crate' is not final: the table maps it to 'box'"),
], ids=["lens", "suffix-cycle", "onward", "back-to-start", "2-cycle", "chain", "later-row"])
def test_load_lemmas_refuses_a_lemma_that_is_not_final(tmp_path, rows, expected):
    # the walk would go on past the table, or round a cycle; a comment and a
    # final row come first, so the error names the first non-final row's line
    path = write(tmp_path / "lemmas.tsv", "# inflected<TAB>lemma\nruns\trun\n" + rows + "\n")
    with pytest.raises(MalformedEntryError) as exc:
        load_lemmas(path)
    assert exc.value.code == "lexicon/malformed-entry"
    assert str(exc.value) == f"{path}: {expected}"


def test_load_lemmas_runs_the_row_checks_first(tmp_path):
    path = write(tmp_path / "lemmas.tsv", "lenses\tlens\nlenses\tlens\n")
    with pytest.raises(DuplicateWordError) as exc:
        load_lemmas(path)
    assert exc.value.line == 2


def test_load_lemmas_loads_final_lemmas(tmp_path):
    # a key that maps to itself is final, although a suffix rule shortens it
    path = write(tmp_path / "lemmas.tsv", "lens\tlens\nlenses\tlens\n")
    assert load_lemmas(path) == {"lens": "lens", "lenses": "lens"}
    assert load_lemmas(DEFAULT_LEMMAS_PATH) == load_table(DEFAULT_LEMMAS_PATH)


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_lexicon(tmp_path / "x.tsv", "emoji")


def test_empty_lexicon_files_load_as_empty(tmp_path):
    for kind in ("valence", "pattern", "synset"):
        path = tmp_path / f"{kind}.tsv"
        path.write_text("# nothing here\n", encoding="utf-8")
        lex = load_lexicon(path, kind)
        assert lex == type(lex)({})
        if kind == "valence":
            assert score_valence_rule(["good"], lex).polarity == 0.0
        elif kind == "pattern":
            assert score_pattern_avg(["good"], lex).polarity == 0.0
        else:
            assert score_synset([("good", "adj")], lex).polarity == 0.0


# short strings over every code point, and over the characters where
# lowercasing, punctuation and URL prefixes interact
_word_chars = st.sampled_from([*"aZ_'.:/-#ßİǅΣς\u212a\u0307\u00a0\u3000\x1c\t ",
                               "www.", "http://"])


@given(st.one_of(st.text(max_size=6),
                 st.lists(_word_chars, max_size=5).map("".join)))
@example("don't")
@example("wind_farm")
@example(":)")
@example("")
@example("nul\x00")
@example("\ud800")
@example("\uffff")
@settings(max_examples=500, deadline=None)
def test_word_rule_accepts_exactly_what_cleaning_leaves_unchanged(word):
    # ... and what an SVG can hold: only characters of XML 1.0's Char
    try:
        accepted = _check_word(word, 1) == word
    except MalformedEntryError:
        accepted = False
    xml_chars = all(c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
                    or c >= "\U00010000" for c in word)
    assert accepted == (normalize(word).split() == [word] and xml_chars)
