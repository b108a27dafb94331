"""Run configuration: flat key=value config file, CLI overrides, validation,
and the canonical settings digest recorded in reports.

The digest hashes only semantic settings (and file basenames, never absolute
paths) so that the same corpus and configuration yield the same digest on
any machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .engines import (
    DISAMBIGUATION_AVERAGE,
    DISAMBIGUATION_FIRST,
    MODE_PAPER,
    PIPELINE_MODES,
    ValenceRuleConfig,
)
from .errors import WindsentError
from .lexicons import LEXICON_FILENAMES, bundled_lexicon_dir
from .preprocess import DEFAULT_LEMMAS_PATH, DEFAULT_STOPWORDS_PATH


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


def normalize_mode(value: str) -> str:
    mode = value.strip().lower().replace("-", "_")
    if mode not in PIPELINE_MODES:
        raise ConfigError(
            f"mode must be paper-faithful or engine-native, got {value!r}")
    return mode


def normalize_disambiguation(value: str) -> str:
    name = value.strip().lower().replace("-", "_")
    if name not in (DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE):
        raise ConfigError(
            f"disambiguation must be first-sense or average-senses, got {value!r}")
    return name


@dataclass
class RunConfig:
    input_path: Path
    input_format: str  # "csv" | "jsonl"
    out_dir: Path
    lexicon_dir: Path = field(default_factory=bundled_lexicon_dir)
    mode: str = MODE_PAPER
    epsilon: float = 0.0
    top_n: int = 30
    plots: bool = False
    lenient: bool = False
    min_token_count: int = 3
    apply_stemming: bool = False
    apply_lemmatization: bool = True
    stopwords_path: Path = DEFAULT_STOPWORDS_PATH
    lemmas_path: Path = DEFAULT_LEMMAS_PATH
    disambiguation: str = DISAMBIGUATION_FIRST
    bin_count: int = 10
    valence: ValenceRuleConfig = field(default_factory=ValenceRuleConfig)

    def __post_init__(self):
        for name in ("input_path", "out_dir", "lexicon_dir",
                     "stopwords_path", "lemmas_path"):
            setattr(self, name, Path(getattr(self, name)))

    def lexicon_paths(self) -> dict[str, Path]:
        return {kind: self.lexicon_dir / name
                for kind, name in LEXICON_FILENAMES.items()}

    def validate(self, require_lexicons: bool = True) -> None:
        if self.input_format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv or jsonl, got {self.input_format!r}")
        if self.mode not in PIPELINE_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.disambiguation not in (DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE):
            raise ConfigError(f"unknown disambiguation {self.disambiguation!r}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if self.top_n < 1:
            raise ConfigError("top-n must be >= 1")
        if self.min_token_count < 1:
            raise ConfigError("min-tokens must be >= 1")
        if self.bin_count < 1:
            raise ConfigError("bins must be >= 1")
        if not self.input_path.is_file():
            raise ConfigError(f"input file not found: {self.input_path}")
        if require_lexicons:
            for kind, path in self.lexicon_paths().items():
                if not path.is_file():
                    raise ConfigError(f"{kind} lexicon not found: {path}")
        for name, path in (("stopwords", self.stopwords_path),
                           ("lemmas", self.lemmas_path)):
            if not Path(path).is_file():
                raise ConfigError(f"{name} file not found: {path}")

    def digest(self) -> str:
        source = {
            "bins": self.bin_count,
            "disambiguation": self.disambiguation,
            "epsilon": self.epsilon,
            "format": self.input_format,
            "input": self.input_path.name,
            "lemmas": Path(self.lemmas_path).name,
            "lemmatization": self.apply_lemmatization,
            "lexicons": [self.lexicon_paths()[k].name
                         for k in ("valence", "pattern", "synset")],
            "min_tokens": self.min_token_count,
            "mode": self.mode,
            "stemming": self.apply_stemming,
            "stopwords": Path(self.stopwords_path).name,
            "top_n": self.top_n,
            "valence_rule": dataclasses.asdict(self.valence),
        }
        canonical = json.dumps(source, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ConfigError(
        f"cannot infer format from {path.name!r}; pass --format csv|jsonl")


_CONFIG_KEYS = {
    "input", "format", "lexicons", "mode", "epsilon", "top_n", "out", "plots",
    "lenient", "min_tokens", "stemming", "lemmatization", "stopwords",
    "lemmas", "disambiguation", "bins",
}


def build_run_config(file_values: dict[str, str], flag_values: dict[str, object]) -> RunConfig:
    """Merge config-file values with CLI flags (flags win) into a RunConfig.
    ``flag_values`` holds only flags the user actually passed."""
    for key in file_values:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
    merged: dict[str, object] = {}

    def pick(key: str):
        if key in flag_values:
            return flag_values[key]
        return file_values.get(key)

    raw_input = pick("input")
    if raw_input is None:
        raise ConfigError("input is required")
    merged["input_path"] = Path(str(raw_input))

    raw_out = pick("out")
    if raw_out is None:
        raise ConfigError("out is required")
    merged["out_dir"] = Path(str(raw_out))

    raw_format = pick("format")
    if raw_format is None:
        merged["input_format"] = infer_format(merged["input_path"])
    else:
        merged["input_format"] = str(raw_format).strip().lower()

    raw = pick("lexicons")
    if raw is not None:
        merged["lexicon_dir"] = Path(str(raw))
    raw = pick("mode")
    if raw is not None:
        merged["mode"] = normalize_mode(str(raw))
    raw = pick("disambiguation")
    if raw is not None:
        merged["disambiguation"] = normalize_disambiguation(str(raw))
    raw = pick("stopwords")
    if raw is not None:
        merged["stopwords_path"] = Path(str(raw))
    raw = pick("lemmas")
    if raw is not None:
        merged["lemmas_path"] = Path(str(raw))

    numeric = (
        ("epsilon", "epsilon", float),
        ("top_n", "top_n", int),
        ("min_tokens", "min_token_count", int),
        ("bins", "bin_count", int),
    )
    for key, attr, cast in numeric:
        raw = pick(key)
        if raw is None:
            continue
        try:
            merged[attr] = cast(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None

    booleans = (
        ("plots", "plots"),
        ("lenient", "lenient"),
        ("stemming", "apply_stemming"),
        ("lemmatization", "apply_lemmatization"),
    )
    for key, attr in booleans:
        raw = pick(key)
        if raw is None:
            continue
        merged[attr] = raw if isinstance(raw, bool) else parse_bool(str(raw), key)

    return RunConfig(**merged)
