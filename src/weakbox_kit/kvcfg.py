"""Tiny ``key = value`` config file format: UTF-8 lines, ``#`` comments,
and its one schema for dataclasses whose fields all have defaults."""

import math
from dataclasses import asdict, fields


def parse_kv_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_kv_file(path) -> dict:
    """The table in `path`; an error names the file and keeps its class."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_kv_text(f.read())
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end, f"{exc.reason} in {path}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_kv(mapping: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _read(name, kind, raw):
    """`raw` as the type of a field's default: bool from a word table, tuple
    as a comma-separated list, float only when finite."""
    if kind is bool:
        if raw.lower() not in _BOOL_VALUES:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_VALUES[raw.lower()]
    if kind is tuple:
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name}: expected a finite number, got {raw!r}")
    return value


def from_kv(cls, kv: dict, what: str):
    """An instance of dataclass `cls` from string values; missing keys keep
    their defaults, unknown keys are rejected."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    unknown = set(kv) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**{name: _read(name, kinds[name], raw) for name, raw in kv.items()})


def to_kv(obj) -> dict:
    """The string table of a dataclass instance, in field order."""
    return {k: ",".join(v) if isinstance(v, tuple) else str(v) for k, v in asdict(obj).items()}
