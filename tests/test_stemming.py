import hashlib
import itertools
import random
import string

import pytest

from windsent.stemming import stem


# full-run outputs of the classical algorithm (hand-traced through the five
# steps; see the published suffix tables)
CASES = [
    ("energies", "energi"),     # step 1a: -ies -> -i
    ("wind", "wind"),           # fixpoint
    ("relational", "relat"),    # step 2 -ational -> -ate, step 5a drops the e
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("matting", "mat"),
    ("mating", "mate"),
    ("meeting", "meet"),
    ("meetings", "meet"),
    ("milling", "mill"),
    ("messing", "mess"),
    ("hopping", "hop"),
    ("falling", "fall"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("skies", "ski"),
    ("generalization", "gener"),
    ("oscillators", "oscil"),
    ("sensational", "sensat"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valency", "valenc"),
    ("hesitancy", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
]


@pytest.mark.parametrize("word,expected", CASES)
def test_classical_traces(word, expected):
    assert stem(word) == expected


def test_short_tokens_pass_through():
    assert stem("a") == "a"
    assert stem("is") == "is"


def test_non_alphabetic_pass_through():
    assert stem("10") == "10"
    assert stem("wind2energy") == "wind2energy"


def test_non_ascii_pass_through():
    assert stem("éolienne") == "éolienne"
    assert stem("cafés") == "cafés"


def test_stateless_between_calls():
    assert stem("relational") == "relat"
    assert stem("wind") == "wind"
    assert stem("relational") == "relat"


# Every suffix the five steps test for, plus a few inflections that chain
# into them, so generated words reach each rule of each step.
PORTER_SUFFIXES = (
    "s sses ies ed eed ing at bl iz y e l ll ational tional enci anci izer bli "
    "alli entli eli ousli ization ation ator alism iveness fulness ousness "
    "aliti iviti biliti logi icate ative alize iciti ical ful ness al ance "
    "ence er ic able ible ant ement ment ent sion tion ion ou ism ate iti ous "
    "ive ize ly li"
).split()
STEM_BASES = ("gener", "relat", "condit", "sensit", "form", "hope", "digit",
              "vile", "analog", "oper", "feud", "decis", "callous", "radic",
              "adopt", "rat", "control", "roll", "hop", "fil", "agr", "sky")
# sha256 of the newline-joined stems of pinned_words(), recorded from the
# line-by-line port of the reference C code.
PINNED_DIGEST = "7fe0ea371f535d38d5e63e60cfc94910d6963d2ad57549feed126823cac5a67f"


def pinned_words(count=50_000, seed=1980):
    rng = random.Random(seed)
    letters = string.ascii_lowercase
    words = []
    for _ in range(count):
        if rng.random() < 0.5:
            word = rng.choice(STEM_BASES)
        else:
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        for _ in range(rng.randint(0, 3)):
            word += rng.choice(PORTER_SUFFIXES)
        if rng.random() < 0.1:
            word += rng.choice(letters)
        words.append(word)
    return words


def short_words():
    """Every 3-letter word, and every 4-letter word over letters that reach
    the vowel, y, double-consonant and cvc cases; suffix stripping can leave
    one or two letters of these, where off-by-one slicing shows."""
    words = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=3)]
    words += ["".join(p) for p in itertools.product("aeiouysdgnlztbwx", repeat=4)]
    return words


# sha256 of the newline-joined stems of short_words() (83,112 words), recorded
# from the cursor-based implementation that preceded the string functions.
SHORT_DIGEST = "4d2dbee59024cedeb7613e26e6b3db676d97847467f204532dc1df988ec66039"


def test_stems_match_the_pinned_digest():
    for words, digest in ((pinned_words(), PINNED_DIGEST), (short_words(), SHORT_DIGEST)):
        joined = "\n".join(stem(word) for word in words)
        assert hashlib.sha256(joined.encode("ascii")).hexdigest() == digest
