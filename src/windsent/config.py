"""Run configuration: flat key=value config file, CLI overrides, validation,
and the canonical settings digest recorded in reports.

The digest hashes only semantic settings (and file basenames, never absolute
paths) so that the same corpus and configuration yield the same digest on
any machine.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

from . import engines
from .corpus import CORPUS_FORMATS
from .engines import DISAMBIGUATION_FIRST, DISAMBIGUATIONS, MODE_PAPER, PIPELINE_MODES
from .errors import WindsentError, data_lines
from .lexicons import (DEFAULT_LEMMAS_PATH, DEFAULT_STOPWORDS_PATH, LexiconSet,
                       bundled_lexicon_dir)
from .svgplots import MAX_BINS

# The interpreter's own SHA-256, which hashlib falls back to: importing
# hashlib would map OpenSSL's libcrypto (3.4 MB resident) to hash one short
# string per run.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(WindsentError):
    code = "config/invalid"


_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def parse_path(value: str, key: str) -> Path:
    # Path("") is the working directory, which no one means by an empty value
    if not value:
        raise ConfigError(f"{key}: expected a path, got ''")
    return Path(value)


def _name(value: str, key: str) -> str:
    return value.strip().lower().replace("-", "_")


def _number(cast: type[int] | type[float]) -> Callable[[str, str], object]:
    what = "a whole number" if cast is int else "a number"

    def convert(value: str, key: str):
        try:
            return cast(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {what}, got {value!r}") from None
    return convert


# config key (also the CLI flag's argparse dest) -> (RunConfig field, converter).
# Converters only turn the text into the field's type; RunConfig.validate is
# the one place that checks the value.
SETTINGS: dict[str, tuple[str, Callable[[str, str], object]]] = {
    "input": ("input_path", parse_path),
    "format": ("input_format", _name),
    "out": ("out_dir", parse_path),
    "lexicons": ("lexicon_dir", parse_path),
    "mode": ("mode", _name),
    "epsilon": ("epsilon", _number(float)),
    "top_n": ("top_n", _number(int)),
    "plots": ("plots", parse_bool),
    "lenient": ("lenient", parse_bool),
    "min_tokens": ("min_token_count", _number(int)),
    "lemmatization": ("apply_lemmatization", parse_bool),
    "stopwords": ("stopwords_path", parse_path),
    "lemmas": ("lemmas_path", parse_path),
    "disambiguation": ("disambiguation", _name),
    "bins": ("bin_count", _number(int)),
}


class RunConfig(NamedTuple):
    """One run's settings, one field per ``SETTINGS`` entry."""

    input_path: Path
    input_format: str  # "csv" | "jsonl"
    out_dir: Path
    lexicon_dir: Path = bundled_lexicon_dir()
    mode: str = MODE_PAPER
    epsilon: float = 0.0
    top_n: int = 30
    plots: bool = False
    lenient: bool = False
    min_token_count: int = 3
    apply_lemmatization: bool = True
    stopwords_path: Path = DEFAULT_STOPWORDS_PATH
    lemmas_path: Path = DEFAULT_LEMMAS_PATH
    disambiguation: str = DISAMBIGUATION_FIRST
    bin_count: int = 10

    def validate(self) -> None:
        """Check each setting's value; each input file is checked where it is read."""
        if self.input_format not in CORPUS_FORMATS:
            raise ConfigError(f"format must be csv or jsonl, got {self.input_format!r}")
        if self.mode not in PIPELINE_MODES:
            raise ConfigError(
                f"mode must be paper-faithful or engine-native, got {self.mode!r}")
        if self.disambiguation not in DISAMBIGUATIONS:
            raise ConfigError("disambiguation must be first-sense or average-senses, "
                              f"got {self.disambiguation!r}")
        if not math.isfinite(self.epsilon) or math.copysign(1.0, self.epsilon) < 0:
            raise ConfigError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if self.top_n < 1:
            raise ConfigError("top-n must be >= 1")
        if self.min_token_count < 1:
            raise ConfigError("min-tokens must be >= 1")
        if not 1 <= self.bin_count <= MAX_BINS:
            raise ConfigError(f"bins must be in 1..{MAX_BINS}, got {self.bin_count}")
        try:
            self.input_path.name.encode("utf-8")  # the report records the name
        except UnicodeEncodeError:
            raise ConfigError("input file name is not valid UTF-8: "
                              f"{self.input_path.name!r}") from None

    def digest(self) -> str:
        source = {
            "bins": self.bin_count,
            "disambiguation": self.disambiguation,
            "epsilon": self.epsilon,
            "format": self.input_format,
            "input": self.input_path.name,
            "lemmas": self.lemmas_path.name,
            "lemmatization": self.apply_lemmatization,
            "lexicons": [f"{kind}.tsv" for kind in LexiconSet._fields],
            "min_tokens": self.min_token_count,
            "mode": self.mode,
            "stemming": False,  # no longer a setting; kept so digests stay comparable
            "stopwords": self.stopwords_path.name,
            "top_n": self.top_n,
            "valence_rule": {
                "booster_increment": engines.BOOSTER_INCREMENT,
                "but_boost": engines.BUT_BOOST,
                "but_discount": engines.BUT_DISCOUNT,
                "caps_increment": engines.CAPS_INCREMENT,
                "exclamation_increment": engines.EXCLAMATION_INCREMENT,
                "max_exclamations": engines.MAX_EXCLAMATIONS,
                "negation_factor": engines.VALENCE_NEGATION_FACTOR,
                "negation_window": engines.VALENCE_NEGATION_WINDOW,
                "normalization_alpha": engines.NORMALIZATION_ALPHA,
            },
        }
        canonical = json.dumps(source, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' comments and blank lines ignored. A key
    may appear once."""
    parse_path(str(path), "config")  # the check alone: a refusal names the file as given
    values: dict[str, str] = {}
    for lineno, line in data_lines(path, ConfigError):
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"config line {lineno}: repeated key {key!r}")
        values[key] = value.strip()
    return values


def infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ConfigError(
        f"cannot infer format from {path.name!r}; pass --format csv|jsonl")


def build_run_config(file_values: dict[str, str], flag_values: dict[str, object]) -> RunConfig:
    """Merge config-file values with CLI flags (flags win) into a RunConfig.
    ``flag_values`` holds only flags the user actually passed."""
    merged = {**file_values, **flag_values}
    for key in merged:
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key: {key!r}")
    for key in ("input", "out"):
        if key not in merged:
            raise ConfigError(f"{key} is required")
    fields = {}
    # switches arrive as bools, which str() turns into text parse_bool reads
    for key, raw in merged.items():
        name, convert = SETTINGS[key]
        fields[name] = convert(str(raw), key)
    if "input_format" not in fields:
        fields["input_format"] = infer_format(fields["input_path"])
    return RunConfig(**fields)
