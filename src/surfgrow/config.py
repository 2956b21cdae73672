"""Plain-text scenario configuration.

Grammar (documented interface): one ``key = value`` pair per line, ``#``
starts a comment, blank lines are ignored.  No sections, no quoting.  The
keys are the scalar fields of ``ScenarioConfig`` and ``MaterialParams``
(``constitutive.scalar_fields``), each parsed to its field's type, and an
absent key takes its field's default.  Unknown keys and malformed lines
raise ``ParseError`` with the offending line number; well-formed values
violating an invariant raise ``ValidationError`` naming the field.
"""

from __future__ import annotations

from pathlib import Path

from .constitutive import MaterialParams, scalar_fields
from .errors import ParseError, ValidationError
from .scenarios import KINDS, ScenarioConfig

# Each key a config file may set, with the type its value parses to.
_KEYS = {**scalar_fields(ScenarioConfig), **scalar_fields(MaterialParams)}


def _parse_scalar(key: str, raw: str, lineno: int):
    try:
        return _KEYS[key](raw)
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse value {raw!r} for key {key!r}") from None


def read_pairs(text: str) -> dict:
    """Lex the key/value pairs, enforcing the grammar."""
    pairs: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r} "
                             f"(first set on line {lines[key]})")
        if not raw:
            raise ParseError(f"line {lineno}: empty value for key {key!r}")
        pairs[key] = _parse_scalar(key, raw, lineno)
        lines[key] = lineno
    return pairs


def config_from_pairs(pairs: dict) -> ScenarioConfig:
    """The configuration the pairs set; every key left out takes its default."""
    if "kind" not in pairs:
        raise ValidationError("kind is required (one of %s)" % ", ".join(KINDS))
    material = scalar_fields(MaterialParams)
    params = MaterialParams(**{k: v for k, v in pairs.items() if k in material})
    return ScenarioConfig(params=params,
                          **{k: v for k, v in pairs.items() if k not in material})


def parse_config(path) -> ScenarioConfig:
    """Read and fully validate a scenario configuration file."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {p}: {exc}") from None
    return config_from_pairs(read_pairs(text))
