"""Plain-text scenario configuration.

Grammar (documented interface): one ``key = value`` pair per line, ``#``
starts a comment, blank lines are ignored.  No sections, no quoting.
Unknown keys and malformed lines raise ``ParseError`` with the offending
line number; well-formed values violating an invariant raise
``ValidationError`` naming the field.
"""

from __future__ import annotations

from pathlib import Path

from .constitutive import MaterialParams
from .errors import ParseError, ValidationError
from .scenarios import KINDS, ScenarioConfig

_FLOAT_KEYS = ("G", "mu", "rho", "alpha", "H0", "V_G", "h", "v0", "L", "dt", "t_end")
_INT_KEYS = ("n_cells", "n_snapshots")
_KNOWN_KEYS = ("kind",) + _FLOAT_KEYS + _INT_KEYS


def _parse_scalar(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
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
        if key not in _KNOWN_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r} "
                             f"(first set on line {lines[key]})")
        if not raw:
            raise ParseError(f"line {lineno}: empty value for key {key!r}")
        if key == "kind":
            pairs[key] = raw
        else:
            pairs[key] = _parse_scalar(key, raw, lineno)
        lines[key] = lineno
    return pairs


def config_from_pairs(pairs: dict) -> ScenarioConfig:
    if "kind" not in pairs:
        raise ValidationError("kind is required (one of %s)" % ", ".join(KINDS))
    params = MaterialParams(G=pairs.get("G", 1.0), mu=pairs.get("mu", 0.1),
                            rho=pairs.get("rho", 1.0))
    kwargs = {k: pairs[k] for k in ("alpha", "H0", "V_G", "h", "v0", "L",
                                    "n_cells", "dt", "t_end", "n_snapshots") if k in pairs}
    return ScenarioConfig(kind=pairs["kind"], params=params, **kwargs)


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
