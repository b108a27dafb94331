"""Classical five-step suffix-stripping stemmer.

Operates on lowercase ASCII-letter tokens; anything else (digits, mixed
alphanumerics, non-ASCII) passes through unchanged, as do tokens of one or
two characters. Includes the two customary refinements ("bli" -> "ble" in
step 2 and the "logi" -> "log" rule). Steps 2-4 are ordered suffix tables, as
in the algorithm's published statement; steps 1 and 5 are code.

Each step maps a word to a word. A rule's condition reads the stem (the word
less the rule's suffix) through its pattern: one "c" or "v" per letter, ``y``
being a vowel right after a consonant and a consonant elsewhere. m is the
number of "vc" pairs; *v* is a "v" anywhere; *d is a final pair of equal
letters with pattern "c"; *o is a final "cvc" whose last letter is not w, x, y.
"""

from __future__ import annotations

# Keyed by the penultimate letter (steps 2 and 4) or the last letter
# (step 3). Order matters: only the first suffix that ends the word is used.
_STEP2 = {
    "a": (("ational", "ate"), ("tional", "tion")),
    "c": (("enci", "ence"), ("anci", "ance")),
    "e": (("izer", "ize"),),
    "l": (("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"),
          ("ousli", "ous")),
    "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
    "s": (("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
          ("ousness", "ous")),
    "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
    "g": (("logi", "log"),),
}
_STEP3 = {
    "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
    "i": (("iciti", "ic"),),
    "l": (("ical", "ic"), ("ful", "")),
    "s": (("ness", ""),),
}
_STEP4 = {
    "a": ("al",), "c": ("ance", "ence"), "e": ("er",), "i": ("ic",),
    "l": ("able", "ible"), "n": ("ant", "ement", "ment", "ent"),
    "o": ("ion", "ou"), "s": ("ism",), "t": ("ate", "iti"), "u": ("ous",),
    "v": ("ive",), "z": ("ize",),
}


def _pattern(stem: str) -> str:
    pattern = ""
    for ch in stem:
        vowel = ch in "aeiou" or (ch == "y" and pattern[-1:] == "c")
        pattern += "v" if vowel else "c"
    return pattern


def _measure(stem: str) -> int:
    return _pattern(stem).count("vc")


def _double_consonant(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _pattern(stem)[-1] == "c"


def _cvc(stem: str) -> bool:
    return _pattern(stem)[-3:] == "cvc" and stem[-1] not in "wxy"


def _step1ab(word: str) -> str:
    # plurals and -ed / -ing; "sses" -> "ss" and "ies" -> "i" both drop two
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    for suffix in ("ed", "ing"):
        stem = word[: -len(suffix)]
        if word.endswith(suffix) and "v" in _pattern(stem):
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _double_consonant(stem):
                return stem if stem[-1] in "lsz" else stem[:-1]
            return stem + "e" if _measure(stem) == 1 and _cvc(stem) else stem
    return word


def _replace_suffix(word: str, rules: tuple[tuple[str, str], ...]) -> str:
    # steps 2 and 3: (m > 0) suffix -> replacement
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + replacement if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    # (m > 1) suffix -> nothing; "ion" also needs the stem to end in s or t
    for suffix in _STEP4.get(word[-2:-1], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 1 and (suffix != "ion" or stem.endswith(("s", "t"))):
                return stem
            return word
    return word


def _step5(word: str) -> str:
    # dropping a final vowel leaves m unchanged, so one measure serves both
    m = _measure(word)
    if word.endswith("e") and (m > 1 or (m == 1 and not _cvc(word[:-1]))):
        word = word[:-1]
    if m > 1 and word.endswith("l") and _double_consonant(word):
        word = word[:-1]
    return word


def stem(token: str) -> str:
    """Stem a lowercase token; non-ASCII or non-alphabetic tokens and tokens
    shorter than three characters pass through unchanged."""
    if len(token) <= 2 or not token.isascii() or not token.isalpha():
        return token
    word = _step1ab(token)
    if word.endswith("y") and "v" in _pattern(word[:-1]):  # step 1c
        word = word[:-1] + "i"
    word = _replace_suffix(word, _STEP2.get(word[-2:-1], ()))
    word = _replace_suffix(word, _STEP3.get(word[-1:], ()))
    return _step5(_step4(word))
