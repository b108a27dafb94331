"""Seeded corpus generator for the benchmark workloads (stdlib only).

Every corpus is a pure function of (workload, seed): the same pair gives the
same bytes. Vocabulary comes from the bundled data files (lexicon words,
stopwords, lemma-table forms, POS-table words, modifier words) plus seeded
pseudo-words, so no download is needed and every cleaning and scoring branch
is reachable. The vocabulary and its Zipf ranking are fixed (VOCABULARY_SEED);
the seed draws the comments. Under a steep Zipf law a few head words carry
much of the corpus, so a per-seed ranking would make the cost of a workload
depend on which words the seed happened to put first.

``generate`` writes the corpus file and returns a ``Corpus`` that also knows,
independently of the package, which lines are planted bad records and which
records are valid; the correctness gate builds its expectations from that.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "windsent" / "data"

NEGATIONS = ("not", "no", "never", "nt", "neither", "nor", "cannot")
DEGREE = ("very", "really", "extremely", "totally", "so", "too", "much",
          "slightly", "somewhat", "barely", "kinda", "bit", "fairly", "almost")
CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
INFLECTIONS = ("ies", "ing", "ed", "es", "s")
PSEUDO_WORDS = 20000  # draws for the seeded pseudo-word pool
VOCABULARY_SEED = 20240914


@dataclass(frozen=True)
class Shape:
    """Knobs of one workload's corpus. Rates are per token unless noted."""

    fmt: str                    # "jsonl" | "csv"
    records: int                # records written, bad ones included
    length: tuple[int, int]     # raw words per comment, uniform in [lo, hi]
    zipf_s: float               # Zipf exponent over the shared vocabulary
    fresh_rate: float           # share of words that are new inflected pseudo-words
    stopword_rate: float
    lexicon_rate: float         # extra draws straight from sentiment lexicons
    caps_rate: float
    negation_rate: float
    degree_rate: float
    but_rate: float             # per comment
    exclaim_rate: float         # per comment
    url_rate: float             # per comment
    hashtag_rate: float
    malformed_rate: float       # per record, lenient workloads only
    blank_rate: float           # per record: whitespace-only text


@dataclass(frozen=True)
class Corpus:
    path: Path
    records: tuple[tuple[str, str], ...]   # valid (id, text) in file order
    bad_lines: tuple[int, ...]             # planted malformed record lines


def _data_words(name: str, column: int = 0) -> list[str]:
    words = []
    for raw in (DATA / name).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            words.append(line.split("\t")[column])
    return words


def _synset_lemmas() -> list[str]:
    lemmas = []
    for raw in (DATA / "lexicons" / "synset.tsv").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lemmas.extend(line.split("\t")[5].split(","))
    return lemmas


def _bundled_vocabulary() -> tuple[list[str], list[str], list[str]]:
    """(sentiment words, stopwords, other real words), each sorted and
    de-duplicated so the seeded shuffle alone decides the order."""
    sentiment = set(_data_words("lexicons/valence.tsv"))
    sentiment |= set(_data_words("lexicons/pattern.tsv"))
    sentiment |= set(_synset_lemmas())
    stop = set(_data_words("stopwords.txt"))
    other = set(_data_words("lemmas.tsv")) | set(_data_words("lemmas.tsv", 1))
    other |= set(_data_words("pos_tags.tsv")) | set(NEGATIONS) | set(DEGREE)
    other -= sentiment | stop
    return sorted(sentiment - stop), sorted(stop), sorted(other)


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                   for _ in range(rng.randint(2, 4))) + rng.choice(CONSONANTS)


class _Vocabulary:
    def __init__(self, shape: Shape):
        rng = random.Random(VOCABULARY_SEED)
        sentiment, stop, other = _bundled_vocabulary()
        pseudo = sorted({_pseudo_word(rng) for _ in range(PSEUDO_WORDS)})
        real = sentiment + other
        rng.shuffle(real)
        rng.shuffle(pseudo)
        # real words take the head of the Zipf ranking, pseudo-words the tail
        self.ranked = real[:200] + pseudo[:200] + real[200:] + pseudo[200:]
        cumulative = 0.0
        self.cum_weights = []
        for rank in range(len(self.ranked)):
            cumulative += 1.0 / (rank + 1) ** shape.zipf_s
            self.cum_weights.append(cumulative)
        self.sentiment = sentiment
        self.stop = stop


def _comment(shape: Shape, vocab: _Vocabulary, rng: random.Random) -> str:
    pools = ((shape.stopword_rate, vocab.stop), (shape.lexicon_rate, vocab.sentiment),
             (shape.negation_rate, NEGATIONS), (shape.degree_rate, DEGREE))
    length = rng.randint(*shape.length)
    words = []
    for word in rng.choices(vocab.ranked, cum_weights=vocab.cum_weights, k=length):
        roll = rng.random()
        if roll < shape.fresh_rate:
            word = _pseudo_word(rng) + rng.choice(INFLECTIONS)
        else:
            roll -= shape.fresh_rate
            for rate, pool in pools:
                if roll < rate:
                    word = rng.choice(pool)
                    break
                roll -= rate
        if rng.random() < shape.caps_rate:
            word = word.upper()
        elif rng.random() < shape.hashtag_rate:
            word = "#" + word
        words.append(word)
    if rng.random() < shape.but_rate and len(words) > 2:
        words.insert(rng.randrange(1, len(words)), "but")
    if rng.random() < shape.url_rate:
        words.insert(rng.randrange(len(words) + 1),
                     f"https://example.org/{_pseudo_word(rng)}?id={rng.randrange(10**6)}")
    if len(words) > 4 and rng.random() < 0.3:
        words[rng.randrange(1, len(words) - 1)] += ","
    words[0] = words[0][:1].upper() + words[0][1:]
    text = " ".join(words)
    if rng.random() < shape.exclaim_rate:
        text += "!" * rng.randint(1, 5)
    elif rng.random() < 0.5:
        text += "."
    return text


# lenient loading skips these kinds and reports each line; invalid JSON is
# not planted because it aborts even a lenient load
_BAD_RECORDS = (
    lambda cid, text: {"text": text},
    lambda cid, text: {"id": cid},
    lambda cid, text: {"id": cid, "text": ""},
    lambda cid, text: {"id": cid, "text": 17},
    lambda cid, text: {"id": 17, "text": text},
    lambda cid, text: {"id": "   ", "text": text},
)


def _jsonl_lines(shape: Shape, vocab: _Vocabulary, rng: random.Random):
    lines: list[str] = []
    records: list[tuple[str, str]] = []
    bad: list[int] = []
    for i in range(shape.records):
        cid = f"c{i:07d}"
        roll = rng.random()
        if roll < shape.malformed_rate and records:
            text = _comment(shape, vocab, rng)
            if rng.random() < 0.25:
                obj = {"id": rng.choice(records)[0], "text": text}   # duplicate id
            else:
                obj = rng.choice(_BAD_RECORDS)(cid, text)
            bad.append(len(lines) + 1)
        else:
            if roll < shape.malformed_rate + shape.blank_rate:
                text = rng.choice((" ", "\t ", "   "))
            else:
                text = _comment(shape, vocab, rng)
            obj = {"id": cid, "text": text}
            if rng.random() < 0.5:
                obj["source_group"] = f"group-{rng.randrange(12)}"
            if rng.random() < 0.5:
                obj["timestamp"] = f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T12:00:00Z"
            records.append((cid, text))
        lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    return "".join(line + "\n" for line in lines), records, bad


def _csv_text(shape: Shape, vocab: _Vocabulary, rng: random.Random):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "text", "source_group", "timestamp"])
    records = []
    for i in range(shape.records):
        cid = f"c{i:07d}"
        text = _comment(shape, vocab, rng)
        if rng.random() < 0.2:
            text = f'"{text}" she said'
        writer.writerow([cid, text, f"group-{rng.randrange(12)}", ""])
        records.append((cid, text))
    return buffer.getvalue(), records, []


def generate(shape: Shape, seed: int, path: Path) -> Corpus:
    rng = random.Random(seed)
    vocab = _Vocabulary(shape)
    if shape.fmt == "csv":
        text, records, bad = _csv_text(shape, vocab, rng)
    else:
        text, records, bad = _jsonl_lines(shape, vocab, rng)
    path.write_text(text, encoding="utf-8", newline="")
    return Corpus(path, tuple(records), tuple(bad))


def write_single(fmt: str, seed: int, path: Path) -> Corpus:
    """One-comment corpus in the given format, for the set-up probe."""
    sentiment, _, _ = _bundled_vocabulary()
    text = "Honestly " + " ".join(random.Random(seed).sample(sentiment, 5)) + " today"
    if fmt == "csv":
        body = f"id,text,source_group,timestamp\nc0000000,{text},,\n"
    else:
        body = json.dumps({"id": "c0000000", "text": text}) + "\n"
    path.write_text(body, encoding="utf-8", newline="")
    return Corpus(path, (("c0000000", text),), ())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    native: bool                        # engine-native mode (valence sees raw text)
    average_senses: bool                # synset disambiguation by averaging senses
    distinct_share: tuple[float, float]  # allowed distinct/tokens range
    drop_share: tuple[float, float]      # allowed dropped/records range
    skipped_share: tuple[float, float]   # allowed bad lines/records range

    @property
    def disambiguation(self) -> str:
        return "average_senses" if self.average_senses else "first_sense"

    @property
    def flags(self) -> tuple[str, ...]:
        """`windsent analyze` flags for these settings. Planted bad records
        need --lenient, which skips them instead of aborting."""
        flags = ("--mode", "engine-native") if self.native else ()
        if self.average_senses:
            flags += ("--disambiguation", "average-senses")
        if self.shape.malformed_rate:
            flags += ("--lenient",)
        return flags


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="zipf_paper",
            why="realistic reuse: Zipf tokens over bundled and pseudo-words, "
                "default paper-faithful settings; per-token caching matters most here",
            # zipf_s 1.75 gives ~70 tokens per distinct token at 5k comments
            # and ~250 at 40k, the reuse of a large social-media corpus, at a
            # size that leaves many runs per measuring window
            shape=Shape(fmt="jsonl", records=5000, length=(5, 25),
                        zipf_s=1.75, fresh_rate=0.0, stopword_rate=0.25,
                        lexicon_rate=0.12, caps_rate=0.03, negation_rate=0.03,
                        degree_rate=0.03, but_rate=0.15, exclaim_rate=0.2,
                        url_rate=0.1, hashtag_rate=0.03, malformed_rate=0.0,
                        blank_rate=0.0),
            native=False, average_senses=False,
            distinct_share=(0.01, 0.02), drop_share=(0.0, 0.05), skipped_share=(0.0, 0.0)),
        Workload(
            name="longtail_native",
            why="long CSV comments of mostly distinct inflected words, engine-native "
                "and average-senses: cleaning and raw-text valence dominate, caches miss",
            shape=Shape(fmt="csv", records=800, length=(60, 120),
                        zipf_s=1.0, fresh_rate=0.6, stopword_rate=0.08,
                        lexicon_rate=0.12, caps_rate=0.15, negation_rate=0.05,
                        degree_rate=0.04, but_rate=0.7, exclaim_rate=0.7,
                        url_rate=0.3, hashtag_rate=0.05, malformed_rate=0.0,
                        blank_rate=0.0),
            native=True, average_senses=True,
            distinct_share=(0.45, 0.9), drop_share=(0.0, 0.01), skipped_share=(0.0, 0.0)),
        Workload(
            name="short_lenient",
            why="very short lenient JSONL with planted bad records: per-comment "
                "costs, ingestion, drops, skipped.jsonl and per-row report writing",
            shape=Shape(fmt="jsonl", records=12000, length=(1, 7),
                        zipf_s=1.0, fresh_rate=0.0, stopword_rate=0.2,
                        lexicon_rate=0.1, caps_rate=0.03, negation_rate=0.02,
                        degree_rate=0.02, but_rate=0.05, exclaim_rate=0.2,
                        url_rate=0.05, hashtag_rate=0.03, malformed_rate=0.03,
                        blank_rate=0.02),
            native=False, average_senses=False,
            distinct_share=(0.1, 0.3), drop_share=(0.3, 0.5),
            skipped_share=(0.02, 0.04)),
    )
}
