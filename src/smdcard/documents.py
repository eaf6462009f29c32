"""Canonical JSON, YAML documents (configs, manifests, recipes) and reports.

Reports and cards are canonical JSON with stable key order and floats fixed
at 9 significant digits, written atomically (temp file + rename). This
module loads no numpy: rendering a card from a finished report needs none.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile

import yaml

from .aggregate import QualityReport
from .errors import ConfigError, InputError

# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise InputError("NaN cannot be serialized; use an undefined marker")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(x, ".9g")
    if "e" not in s and "." not in s:
        s += ".0"
    return s


def _emit(obj, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
    elif isinstance(obj, float):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise InputError(f"non-string key {key!r} in serialized document")
            parts.append(f"{pad}  {json.dumps(key, ensure_ascii=False)}: ")
            _emit(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad + "  ")
            _emit(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    # numpy's scalars register with these; the checks above keep the plain
    # types off these slower abstract-class checks
    elif isinstance(obj, numbers.Integral):
        parts.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        parts.append(_format_float(float(obj)))
    else:
        raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 9 sig. digits."""
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def atomic_write(path: str, payload: bytes) -> None:
    """Write-to-temp then rename; never leaves a partial file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".smdcard-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str, error=InputError) -> str:
    """A text file's contents: UTF-8 after an optional byte-order mark, line
    ends as written. A byte that is not UTF-8 is an ``error`` naming its
    line."""
    with open(path, "rb") as fh:
        payload = fh.read()
    try:
        return payload.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = payload.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line} is not UTF-8 text "
                    f"(byte 0x{payload[exc.start]:02x})") from None


# ---------------------------------------------------------------------------
# config / manifest / report documents


# libyaml's loader where PyYAML was built with it: about 8x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path: str) -> dict:
    """A YAML document whose top level is a mapping; an empty one is {}."""
    text = _read_text(path, ConfigError)
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {_yaml_problem(exc, text)}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def _yaml_problem(exc: yaml.YAMLError, text: str) -> str:
    """PyYAML's error on ``text`` as one line: the line and column of its
    mark, or of a reader error's position, then the problem, without the
    excerpt and ``<unicode string>`` lines of PyYAML's own text."""
    mark = getattr(exc, "problem_mark", None) or getattr(exc, "context_mark", None)
    at = getattr(exc, "position", None)
    what = ": ".join(filter(None, (getattr(exc, "context", None),
                                   getattr(exc, "problem", None))))
    what = what or str(exc).partition("\n")[0]
    if mark is None and at is None:
        return what
    line, column = ((mark.line, mark.column) if mark is not None else
                    (text.count("\n", 0, at), at - text.rfind("\n", 0, at) - 1))
    return f"line {line + 1}, column {column + 1}: {what}"


def write_report(report: QualityReport, path: str) -> bytes:
    """Serialize a QualityReport; returns the bytes written."""
    payload = dumps_canonical(report.to_dict()).encode("utf-8")
    atomic_write(path, payload)
    return payload


def read_report(path: str) -> tuple[QualityReport, bytes]:
    """The report at ``path`` and its bytes; ``InputError`` if it is none."""
    with open(path, "rb") as fh:
        payload = fh.read()
    try:
        return QualityReport.from_dict(json.loads(payload)), payload
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: not a report document ({exc!r})") from None
