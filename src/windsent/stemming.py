"""Classical five-step suffix-stripping stemmer.

Operates on lowercase ASCII-letter tokens; anything else (digits, mixed
alphanumerics, non-ASCII) passes through unchanged, as do tokens of one or
two characters. Includes the two customary refinements found in virtually
every circulating implementation of the algorithm ("bli" -> "ble" in step 2
and the "logi" -> "log" rule). Steps 2-4 are ordered suffix tables, as in the
algorithm's published statement; steps 1 and 5 are code.
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


class _Stemmer:
    """Per-call working state: the buffer ``b`` with live end index ``k``
    and the rule offset ``j`` set by suffix matches."""

    def __init__(self, word: str):
        self.b = word
        self.k = len(word) - 1
        self.j = 0

    def cons(self, i: int) -> bool:
        ch = self.b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            return i == 0 or not self.cons(i - 1)
        return True

    def m(self) -> int:
        # number of consonant-vowel sequences in b[0..j]
        i = 0
        while True:
            if i > self.j:
                return 0
            if not self.cons(i):
                break
            i += 1
        i += 1
        n = 0
        while True:
            while True:
                if i > self.j:
                    return n
                if self.cons(i):
                    break
                i += 1
            i += 1
            n += 1
            while True:
                if i > self.j:
                    return n
                if not self.cons(i):
                    break
                i += 1
            i += 1

    def vowel_in_stem(self) -> bool:
        return any(not self.cons(i) for i in range(self.j + 1))

    def double_cons(self, j: int) -> bool:
        return j > 0 and self.b[j] == self.b[j - 1] and self.cons(j)

    def cvc(self, i: int) -> bool:
        if i < 2 or not self.cons(i) or self.cons(i - 1) or not self.cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def ends(self, s: str) -> bool:
        length = len(s)
        if s[-1] != self.b[self.k]:
            return False
        if length > self.k + 1:
            return False
        if self.b[self.k - length + 1 : self.k + 1] != s:
            return False
        self.j = self.k - length
        return True

    def set_to(self, s: str) -> None:
        self.b = self.b[: self.j + 1] + s
        self.k = len(self.b) - 1

    def r(self, s: str) -> None:
        if self.m() > 0:
            self.set_to(s)

    def step1ab(self) -> None:
        # plurals and -ed / -ing
        if self.b[self.k] == "s":
            if self.ends("sses"):
                self.k -= 2
            elif self.ends("ies"):
                self.set_to("i")
            elif self.b[self.k - 1] != "s":
                self.k -= 1
        if self.ends("eed"):
            if self.m() > 0:
                self.k -= 1
        elif (self.ends("ed") or self.ends("ing")) and self.vowel_in_stem():
            self.k = self.j
            if self.ends("at"):
                self.set_to("ate")
            elif self.ends("bl"):
                self.set_to("ble")
            elif self.ends("iz"):
                self.set_to("ize")
            elif self.double_cons(self.k):
                if self.b[self.k - 1] not in "lsz":
                    self.k -= 1
            elif self.m() == 1 and self.cvc(self.k):
                self.set_to("e")

    def step1c(self) -> None:
        if self.ends("y") and self.vowel_in_stem():
            self.b = self.b[: self.k] + "i"

    def replace_suffix(self, rules: tuple[tuple[str, str], ...]) -> None:
        # steps 2 and 3
        for suffix, replacement in rules:
            if self.ends(suffix):
                self.r(replacement)
                return

    def step4(self) -> None:
        for suffix in _STEP4.get(self.b[self.k - 1], ()):
            if self.ends(suffix):
                if (suffix != "ion" or self.b[self.j] in "st") and self.m() > 1:
                    self.k = self.j
                return

    def step5(self) -> None:
        self.j = self.k
        if self.b[self.k] == "e":
            a = self.m()
            if a > 1 or (a == 1 and not self.cvc(self.k - 1)):
                self.k -= 1
        if self.b[self.k] == "l" and self.double_cons(self.k) and self.m() > 1:
            self.k -= 1

    def run(self) -> str:
        self.step1ab()
        self.step1c()
        self.replace_suffix(_STEP2.get(self.b[self.k - 1], ()))
        self.replace_suffix(_STEP3.get(self.b[self.k], ()))
        self.step4()
        self.step5()
        return self.b[: self.k + 1]


def stem(token: str) -> str:
    """Stem a lowercase token; non-ASCII or non-alphabetic tokens and tokens
    shorter than three characters pass through unchanged."""
    if len(token) <= 2 or not token.isascii() or not token.isalpha():
        return token
    return _Stemmer(token).run()
