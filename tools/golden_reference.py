#!/usr/bin/env python3
"""Golden-corpus oracle.

Generates the bundled 50-comment synthetic corpus and computes every expected
output (cleaned tokens, per-comment scores for the three engines, labels,
distributions, subjectivity histogram, top-word rankings, and the full
report.json) with deliberately straight-line code that does NOT import the
windsent package. The outputs written to tests/golden/ are frozen reference
values; the package implementation must reproduce them byte for byte.

Conventions that the package must match exactly (float identity):
  - left-to-right accumulation with plain "+" loops (builtin sum() of floats
    is compensated from Python 3.12 on)
  - compound normalization s / sqrt(s*s + alpha) via math.sqrt
  - proportions as direct divisions by the total
  - histogram mean = left-to-right sum / len, median = middle of sorted
    (average of two mids)
  - histogram bin of v = first b with v <= edges[b + 1], where edges are
    i / BINS, so a value on an edge joins the lower bin (compared with the
    edge itself, not via v * BINS, which rounds)
  - JSON: json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
"""

import hashlib
import json
import math
import string
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "windsent" / "data"
OUT = ROOT / "tests" / "golden"

# ---------------------------------------------------------------------------
# the synthetic corpus: 50 comments, ids g01..g50
# ---------------------------------------------------------------------------

COMMENTS = [
    ("g01", "Offshore wind turbines are killing whales!!", "ocean-city-voices", "2023-06-01T08:15:00Z"),
    ("g02", "The and a", None, None),
    ("g03", "   ", None, None),
    ("g04", "I do not like offshore wind energy, it's boring!", "cape-may-locals", "2023-06-02T10:30:00Z"),
    ("g05", "Offshore wind energy costs us 10% more than our current usage which we cannot afford due to our profits being 20% lower this year", "cape-may-locals", "2023-06-02T11:05:00Z"),
    ("g06", "Renewable energy sources maybe a bit expensive but are much healthier", None, "2023-06-03T09:00:00Z"),
    ("g07", "Clean energy is a great idea and will help our community thrive.", "atlantic-city-forum", "2023-06-03T14:20:00Z"),
    ("g08", "Check THIS out!! https://example.com/wind #wind", None, None),
    ("g09", "Wind farms are an eyesore and a threat to tourism", "wildwood-watch", "2023-06-04T16:45:00Z"),
    ("g10", "not a good idea for our coast", "wildwood-watch", None),
    ("g11", "This project is very promising and will create jobs", "atlantic-city-forum", "2023-06-05T09:12:00Z"),
    ("g12", "The turbines are HORRIBLE and ruin the view!!!", "ocean-city-voices", "2023-06-05T18:40:00Z"),
    ("g13", "ok", None, None),
    ("g14", "Electricity rates went up after the wind farm construction", None, "2023-06-06T07:55:00Z"),
    ("g15", "I absolutely love the new wind farm, it is beautiful", "atlantic-city-forum", "2023-06-06T12:00:00Z"),
    ("g16", "El proyecto eólico es bueno \U0001f642", None, None),
    ("g17", "The noise is a nuisance and the blades kill birds", "ocean-city-voices", "2023-06-07T20:10:00Z"),
    ("g18", "Fishermen worry about their catch but support clean energy", "cape-may-locals", "2023-06-08T06:30:00Z"),
    ("g19", "So true", None, None),
    ("g20", "Subsidies waste taxpayer money and the costs are huge", "wildwood-watch", "2023-06-08T13:25:00Z"),
    ("g21", "What a wonderful opportunity for sustainable progress!", "atlantic-city-forum", "2023-06-09T10:00:00Z"),
    ("g22", "The government never listens to residents", "wildwood-watch", None),
    ("g23", "Not terrible, actually quite nice", None, "2023-06-10T15:35:00Z"),
    ("g24", " \t  ", None, None),
    ("g25", "The beach view is ruined, property values will collapse", "ocean-city-voices", "2023-06-11T09:45:00Z"),
    ("g26", "Estimable advocates argue the estimable cost is worth it", None, "2023-06-11T17:05:00Z"),
    ("g27", "Solar panels and wind turbines quietly power the grid", None, "2023-06-12T08:00:00Z"),
    ("g28", "It is so expensive and totally unreliable", "wildwood-watch", "2023-06-12T19:30:00Z"),
    ("g29", "GREAT JOB NJ", None, None),
    ("g30", "The wind farm project was a huge success for everyone", "atlantic-city-forum", "2023-06-13T11:10:00Z"),
    ("g31", "Horrible horrible horrible", "ocean-city-voices", None),
    ("g32", "Never again", None, None),
    ("g33", "Cheap clean power beats dirty coal every time", "atlantic-city-forum", "2023-06-14T14:50:00Z"),
    ("g34", "They promised jobs but delivered nothing", "cape-may-locals", "2023-06-15T09:20:00Z"),
    ("g35", "Whales dolphins and birds deserve better protection", "ocean-city-voices", "2023-06-15T16:40:00Z"),
    ("g36", "The offshore wind debate continues at the town hall", None, "2023-06-16T18:00:00Z"),
    ("g37", "Such a scam, corrupt politicians and fraud everywhere", "wildwood-watch", "2023-06-17T07:30:00Z"),
    ("g38", "Barely noticeable from the shore and very quiet at night", None, "2023-06-17T21:15:00Z"),
    ("g39", "win win for the economy and the environment", "atlantic-city-forum", None),
    ("g40", "I hate the constant noise from those ugly turbines", "ocean-city-voices", "2023-06-18T12:25:00Z"),
    ("g41", "10 20 30 40", None, None),
    ("g42", "Tourists love our beautiful beaches", "cape-may-locals", "2023-06-19T10:05:00Z"),
    ("g43", "The project failed and wasted millions", "wildwood-watch", "2023-06-19T15:55:00Z"),
    ("g44", "Wind energy is the future of clean power in New Jersey", "atlantic-city-forum", "2023-06-20T08:45:00Z"),
    ("g45", "A truly terrible decision by the state", "wildwood-watch", "2023-06-20T17:20:00Z"),
    ("g46", "bad", None, None),
    ("g47", "Not bad at all, folks", None, "2023-06-21T13:00:00Z"),
    ("g48", "Storms damaged a blade yesterday, repairs cost money", "ocean-city-voices", "2023-06-21T19:50:00Z"),
    ("g49", "EXTREMELY DISAPPOINTED with the outcome!!", "wildwood-watch", "2023-06-22T09:35:00Z"),
    ("g50", "thank you for the informative meeting", None, "2023-06-22T20:00:00Z"),
]

# ---------------------------------------------------------------------------
# shared vocabulary constants (duplicated by design: the oracle is standalone)
# ---------------------------------------------------------------------------

NEGATIONS = {"not", "no", "never", "nt", "neither", "nor", "cannot"}
AMPLIFIERS = {
    "very", "really", "extremely", "absolutely", "incredibly", "totally",
    "completely", "utterly", "truly", "deeply", "especially", "particularly",
    "remarkably", "exceptionally", "hugely", "enormously", "insanely",
    "super", "so", "too", "much",
}
DAMPENERS = {
    "slightly", "somewhat", "barely", "hardly", "marginally", "scarcely",
    "kinda", "sorta", "bit", "little", "rather", "fairly", "almost",
    "nearly", "partly", "moderately",
}
CONTRAST = "but"
PUNCT = set(string.punctuation)
VOWELS = set("aeiou")

NEG_WINDOW = 3
NEG_FACTOR = -0.74
B_INC = 0.293
C_INC = 0.733
EX_INC = 0.292
MAX_EX = 4
BUT_DISCOUNT = 0.5
BUT_BOOST = 1.5
ALPHA = 15.0

EPSILON = 0.0
TOP_N = 30
BINS = 10
MIN_TOKENS = 3


# ---------------------------------------------------------------------------
# data loading (straight-line parsers for the bundled files)
# ---------------------------------------------------------------------------

def data_lines(path):
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


STOPWORDS = set(data_lines(DATA / "stopwords.txt"))

LEMMA_TABLE = {}
for _line in data_lines(DATA / "lemmas.tsv"):
    _k, _v = _line.split("\t")
    LEMMA_TABLE[_k] = _v

POS_TABLE = {}
for _line in data_lines(DATA / "pos_tags.tsv"):
    _k, _v = _line.split("\t")
    POS_TABLE[_k] = _v

VALENCE = {}
for _line in data_lines(DATA / "lexicons" / "valence.tsv"):
    _w, _s = _line.split("\t")
    VALENCE[_w] = float(_s)

PATTERN = {}  # word -> (polarity, subjectivity, is_intensifier, factor)
for _line in data_lines(DATA / "lexicons" / "pattern.tsv"):
    _w, _p, _s, _f, _m = _line.split("\t")
    PATTERN[_w] = (float(_p), float(_s), _f == "1", float(_m))

SYNSETS = {}  # (lemma, pos) -> list of (rank, pos_score, neg_score) sorted by rank
SYNSET_ROWS = []
for _line in data_lines(DATA / "lexicons" / "synset.tsv"):
    _sid, _pos, _ps, _ns, _rank, _lemmas = _line.split("\t")
    _ps, _ns, _rank = float(_ps), float(_ns), int(_rank)
    _lemma_list = _lemmas.split(",")
    SYNSET_ROWS.append([_sid, _pos, _ps, _ns, _rank, _lemma_list])
    for _lem in _lemma_list:
        SYNSETS.setdefault((_lem, _pos), []).append((_rank, _ps, _ns))
for _senses in SYNSETS.values():
    _senses.sort(key=lambda t: t[0])


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def normalize(text):
    # order: lowercase, drop URL tokens, delete '#', delete punctuation,
    # collapse whitespace
    text = text.lower()
    kept = []
    for piece in text.split():
        if piece.startswith("http://") or piece.startswith("https://") or piece.startswith("www."):
            continue
        kept.append(piece)
    text = " ".join(kept)
    text = text.replace("#", "")
    text = "".join(c for c in text if c not in PUNCT)
    return " ".join(text.split())


def suffix_lemma(tok):
    n = len(tok)
    if tok.endswith("ies") and n >= 5:
        return tok[:-3] + "y"
    if n >= 5 and (tok.endswith("ches") or tok.endswith("shes")
                   or tok.endswith("xes") or tok.endswith("zes")
                   or tok.endswith("sses")):
        return tok[:-2]
    if (tok.endswith("s") and not tok.endswith("ss") and not tok.endswith("us")
            and not tok.endswith("is") and n >= 4):
        return tok[:-1]
    if tok.endswith("ing") and n >= 6 and any(c in VOWELS for c in tok[:-3]):
        return tok[:-3]
    if (tok.endswith("ed") and not tok.endswith("eed") and n >= 5
            and any(c in VOWELS for c in tok[:-2])):
        return tok[:-2]
    return None


def lemmatize(tok):
    seen = set()
    cur = tok
    while cur not in seen:
        seen.add(cur)
        if cur in LEMMA_TABLE:
            nxt = LEMMA_TABLE[cur]
            if nxt == cur:
                return cur
            cur = nxt
            continue
        nxt = suffix_lemma(cur)
        if nxt is None:
            return cur
        cur = nxt
    return cur


def preprocess(text):
    """Returns (tokens, drop_reason)."""
    if text is None or not text.strip():
        return [], "null"
    toks = normalize(text).split()
    toks = [t for t in toks if t not in STOPWORDS]
    toks = [lemmatize(t) for t in toks]
    toks = [t for t in toks if t not in STOPWORDS]
    if len(toks) < MIN_TOKENS:
        return toks, "too_short"
    return toks, None


def tag_token(tok):
    if tok in POS_TABLE:
        return POS_TABLE[tok]
    if tok.endswith("ly"):
        return "adv"
    if tok.endswith("ing") or tok.endswith("ed"):
        return "verb"
    if tok.endswith("ous") or tok.endswith("ful") or tok.endswith("able"):
        return "adj"
    return "noun"


# ---------------------------------------------------------------------------
# the three engines
# ---------------------------------------------------------------------------

def score_valence(tokens, raw_text):
    caps_words = set()
    all_caps = False
    if raw_text is not None:
        cased = []
        for piece in raw_text.split():
            low = piece.lower()
            if low.startswith("http://") or low.startswith("https://") or low.startswith("www."):
                continue
            cleaned = "".join(c for c in piece if c not in PUNCT)
            if cleaned and any(c.isalpha() for c in cleaned):
                cased.append(cleaned)
        upper = [w for w in cased if w.isupper()]
        all_caps = bool(cased) and len(upper) == len(cased)
        caps_words = {w.lower() for w in upper}

    vals = []
    for i, tok in enumerate(tokens):
        if tok in NEGATIONS or tok in AMPLIFIERS or tok in DAMPENERS:
            vals.append(0.0)
            continue
        base = VALENCE.get(tok)
        if base is None:
            vals.append(0.0)
            continue
        v = base
        lo = i - NEG_WINDOW
        if lo < 0:
            lo = 0
        negated = False
        for t in tokens[lo:i]:
            if t in NEGATIONS:
                negated = True
                break
        if negated:
            v = v * NEG_FACTOR
        j = i - 1
        while j >= 0 and (tokens[j] in AMPLIFIERS or tokens[j] in DAMPENERS):
            if v > 0:
                sign = 1.0
            elif v < 0:
                sign = -1.0
            else:
                sign = 0.0
            if tokens[j] in AMPLIFIERS:
                v = v + sign * B_INC
            else:
                v = v - sign * B_INC
            j -= 1
        if caps_words and not all_caps and tok in caps_words:
            if v > 0:
                v = v + C_INC
            elif v < 0:
                v = v - C_INC
        vals.append(v)

    if CONTRAST in tokens:
        bi = tokens.index(CONTRAST)
        for k in range(len(vals)):
            if k < bi:
                vals[k] = vals[k] * BUT_DISCOUNT
            elif k > bi:
                vals[k] = vals[k] * BUT_BOOST

    s = 0.0
    for v in vals:
        s = s + v
    if raw_text is not None and s != 0.0:
        amp = min(raw_text.count("!"), MAX_EX) * EX_INC
        if s > 0:
            s = s + amp
        else:
            s = s - amp
    comp = s / math.sqrt(s * s + ALPHA)
    if comp > 1.0:
        comp = 1.0
    elif comp < -1.0:
        comp = -1.0

    pos = 0.0
    neg = 0.0
    neu = 0.0
    for v in vals:
        if v > 0:
            pos = pos + v
        elif v < 0:
            neg = neg - v
        else:
            neu = neu + 1.0
    total = pos + neg + neu
    if total == 0.0:
        props = (0.0, 1.0, 0.0)
    else:
        props = (pos / total, neu / total, neg / total)
    return comp, props


def score_pattern(tokens):
    sum_p = 0.0
    sum_s = 0.0
    count = 0
    for i, tok in enumerate(tokens):
        entry = PATTERN.get(tok)
        if entry is None or entry[2]:
            continue
        p = entry[0]
        if i > 0:
            prev = PATTERN.get(tokens[i - 1])
            if prev is not None and prev[2]:
                p = p * prev[3]
        lo = i - 3
        if lo < 0:
            lo = 0
        negated = False
        for t in tokens[lo:i]:
            if t in NEGATIONS:
                negated = True
                break
        if negated:
            p = p * -0.5
        if p > 1.0:
            p = 1.0
        elif p < -1.0:
            p = -1.0
        sum_p = sum_p + p
        sum_s = sum_s + entry[1]
        count += 1
    if count == 0:
        return 0.0, 0.0
    return sum_p / count, sum_s / count


def score_synset(tagged, disambiguation):
    total = 0.0
    matched = 0
    for tok, tag in tagged:
        senses = SYNSETS.get((tok, tag))
        if not senses:
            continue
        if disambiguation == "first_sense":
            contrib = senses[0][1] - senses[0][2]
        else:
            num = 0.0
            den = 0.0
            for rank, ps, ns in senses:
                num = num + (ps - ns) / rank
                den = den + 1.0 / rank
            contrib = num / den
        total = total + contrib
        matched += 1
    if matched == 0:
        return 0.0
    pol = total / matched
    if pol > 1.0:
        pol = 1.0
    elif pol < -1.0:
        pol = -1.0
    return pol


# ---------------------------------------------------------------------------
# labeling and analytics
# ---------------------------------------------------------------------------

def label_of(phi):
    if phi > EPSILON:
        return "positive"
    if abs(phi) <= EPSILON:
        return "neutral"
    return "negative"


def distribution(labels):
    counts = {"negative": 0, "neutral": 0, "positive": 0}
    for lab in labels:
        counts[lab] += 1
    total = counts["negative"] + counts["neutral"] + counts["positive"]
    if total == 0:
        props = {"negative": 0.0, "neutral": 0.0, "positive": 0.0}
    else:
        props = {k: counts[k] / total for k in ("negative", "neutral", "positive")}
    return counts, props


def histogram(values):
    edges = [i / BINS for i in range(BINS + 1)]
    counts = [0] * BINS
    for v in values:
        # bin b holds edges[b] < v <= edges[b + 1]: an edge joins the lower bin
        b = 0
        while b < BINS - 1 and v > edges[b + 1]:
            b += 1
        counts[b] += 1
    if values:
        total = 0.0
        for v in values:
            total = total + v
        mean = total / len(values)
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2
    else:
        mean = None
        median = None
    return edges, counts, mean, median


def word_qualifies(engine, word, side):
    if engine == "valence_rule":
        v = VALENCE.get(word)
        if v is None:
            return False
        return v > 0 if side == "positive" else v < 0
    if engine == "pattern_avg":
        entry = PATTERN.get(word)
        if entry is None:
            return False
        return entry[0] > 0 if side == "positive" else entry[0] < 0
    senses = SYNSETS.get((word, tag_token(word)))
    if not senses:
        return False
    diff = senses[0][1] - senses[0][2]
    return diff > 0 if side == "positive" else diff < 0


def top_words(kept, labels, engine, side):
    counts = {}
    for cid, tokens in kept:
        if labels[engine][cid] != side:
            continue
        for tok in tokens:
            if word_qualifies(engine, tok, side):
                counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [[w, c] for w, c in ranked[:TOP_N]]


# ---------------------------------------------------------------------------
# run everything
# ---------------------------------------------------------------------------

def report(records, input_file, native=False, disambiguation="first_sense"):
    """The report.json document for (id, text) records, without
    meta.config_digest. native scores the valence rule on the raw text as
    engine-native mode does; disambiguation is the synset sense rule."""
    kept = []
    dropped = []
    rows = []
    subjectivities = []
    labels = {"pattern_avg": {}, "synset": {}, "valence_rule": {}}
    for cid, text in records:
        tokens, reason = preprocess(text)
        if reason is not None:
            dropped.append({"id": cid, "reason": reason})
            continue
        kept.append((cid, tokens))
        comp, props = score_valence(tokens, text if native else None)
        pol_p, subj = score_pattern(tokens)
        pol_s = score_synset([(t, tag_token(t)) for t in tokens], disambiguation)
        row_labels = {"pattern_avg": label_of(pol_p), "synset": label_of(pol_s),
                      "valence_rule": label_of(comp)}
        for engine, lab in row_labels.items():
            labels[engine][cid] = lab
        subjectivities.append(subj)
        rows.append({
            "id": cid,
            "labels": row_labels,
            "scores": {
                "pattern_avg": {"polarity": pol_p, "subjectivity": subj},
                "synset": {"polarity": pol_s},
                "valence_rule": {
                    "polarity": comp,
                    "proportions": {"neg": props[2], "neu": props[1], "pos": props[0]},
                },
            },
        })

    distributions = {}
    rankings = {}
    for engine in labels:
        counts, props = distribution([labels[engine][cid] for cid, _ in kept])
        distributions[engine] = {"counts": counts, "proportions": props}
        rankings[engine] = {side: top_words(kept, labels, engine, side)
                            for side in ("negative", "positive")}
    edges, counts, mean, median = histogram(subjectivities)
    return {
        "comments": rows,
        "distributions": distributions,
        "dropped": dropped,
        "meta": {
            "corpus_size": len(records),
            "dropped_count": len(dropped),
            "epsilon": EPSILON,
            "input_file": input_file,
            "kept_count": len(kept),
            "pipeline_mode": "engine_native" if native else "paper_faithful",
            "top_n": TOP_N,
        },
        "rankings": rankings,
        "subjectivity": {"bin_edges": edges, "counts": counts, "mean": mean, "median": median},
    }


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    corpus_lines = []
    for cid, text, group, ts in COMMENTS:
        obj = {"id": cid, "text": text}
        if group is not None:
            obj["source_group"] = group
        if ts is not None:
            obj["timestamp"] = ts
        corpus_lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    (OUT / "corpus.jsonl").write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")

    id_checksum = hashlib.sha256("".join(cid for cid, _, _, _ in COMMENTS).encode("utf-8")).hexdigest()

    records = [(cid, text) for cid, text, _, _ in COMMENTS]
    doc = report(records, "corpus.jsonl")

    # manifest-only extras: every comment's cleaning, and for kept ones the
    # engine-native valence record and the average-senses synset score
    cleaned = []
    comment_rows = []
    rows = iter(doc["comments"])
    for cid, text in records:
        tokens, reason = preprocess(text)
        cleaned.append({"id": cid, "tokens": tokens, "drop_reason": reason})
        if reason is not None:
            continue
        ncomp, nprops = score_valence(tokens, text)
        comment_rows.append(dict(
            next(rows),
            native_valence={
                "polarity": ncomp,
                "proportions": {"neg": nprops[2], "neu": nprops[1], "pos": nprops[0]},
                "label": label_of(ncomp),
            },
            synset_average_senses=score_synset([(t, tag_token(t)) for t in tokens],
                                               "average_senses"),
        ))

    digest_source = {
        "bins": BINS,
        "disambiguation": "first_sense",
        "epsilon": EPSILON,
        "format": "jsonl",
        "input": "corpus.jsonl",
        "lemmas": "lemmas.tsv",
        "lemmatization": True,
        "lexicons": ["valence.tsv", "pattern.tsv", "synset.tsv"],
        "min_tokens": MIN_TOKENS,
        "mode": "paper_faithful",
        "stemming": False,
        "stopwords": "stopwords.txt",
        "top_n": TOP_N,
        "valence_rule": {
            "booster_increment": B_INC,
            "but_boost": BUT_BOOST,
            "but_discount": BUT_DISCOUNT,
            "caps_increment": C_INC,
            "exclamation_increment": EX_INC,
            "max_exclamations": MAX_EX,
            "negation_factor": NEG_FACTOR,
            "negation_window": NEG_WINDOW,
            "normalization_alpha": ALPHA,
        },
    }
    config_digest = hashlib.sha256(
        json.dumps(digest_source, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    doc["meta"]["config_digest"] = config_digest
    report_text = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    (OUT / "golden_report.json").write_text(report_text, encoding="utf-8")

    manifest = {
        "cleaned": cleaned,
        "comments": comment_rows,
        "config_digest": config_digest,
        "distributions": doc["distributions"],
        "id_checksum": id_checksum,
        "lexicons": {
            "pattern": {w: [e[0], e[1], e[2], e[3]] for w, e in PATTERN.items()},
            "synset": SYNSET_ROWS,
            "valence": VALENCE,
        },
        "rankings": doc["rankings"],
        "record_count": len(COMMENTS),
        "report_sha256": hashlib.sha256(report_text.encode("utf-8")).hexdigest(),
        "subjectivity": doc["subjectivity"],
    }
    (OUT / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    meta, subjectivity = doc["meta"], doc["subjectivity"]
    print(f"corpus: {meta['corpus_size']} comments, kept {meta['kept_count']}, "
          f"dropped {meta['dropped_count']}")
    print(f"id_checksum: {id_checksum}")
    print(f"config_digest: {config_digest}")
    for engine in ("pattern_avg", "synset", "valence_rule"):
        print(f"{engine}: {doc['distributions'][engine]['counts']}")
    print(f"subjectivity mean {subjectivity['mean']} median {subjectivity['median']}")
    print(f"histogram {subjectivity['counts']}")
    for engine in ("pattern_avg", "synset", "valence_rule"):
        for side in ("positive", "negative"):
            head = doc["rankings"][engine][side][:5]
            print(f"top {engine}/{side}: {head}")


if __name__ == "__main__":
    main()
