"""File parsing and serialization.

Inputs: comma-separated values with a header row (embeddings, record
tables, image-pair manifests), YAML configuration/manifest documents, and
portable graymap (PGM) images. Outputs: reports and cards as canonical JSON
with stable key order and floats fixed at 9 significant digits, written
atomically (temp file + rename).

Parsing rejects malformed values instead of coercing them; errors name the
first offending row and column in file order. Tables are parsed by column.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import yaml

from .config import EvalConfig, config_from_dict
from .errors import ConfigError, InputError
from .model import EmbeddingSet, RecordTable, check_unique_ids

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
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
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


# ---------------------------------------------------------------------------
# embeddings


def _parse_float(cell: str, row: int, col: int, path: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InputError(f"{path}: non-numeric cell at row {row} col {col}: "
                         f"{cell!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}: non-finite value at row {row} col {col}")
    return value


def _read_cells(path: str, reader, width: int, numeric: list[int],
                missing_texts: tuple[str, ...] = ()):
    """The stripped data cells as a (rows, width) array of str objects, the
    mask of cells whose text is in ``missing_texts``, and the ``numeric``
    columns parsed to float64 in one conversion, NaN where missing. Errors
    name the first bad row or cell in file order."""
    records = list(reader)
    end = next((r for r, record in enumerate(records)
                if len(record) != width), len(records))
    cells = np.frompyfunc(str.strip, 1, 1)(
        np.array(records[:end], dtype=object).reshape(end, width))
    missing = np.isin(cells, np.array(missing_texts, dtype=object))
    block, skip = cells[:, numeric], missing[:, numeric]
    try:
        values = np.where(skip, "nan", block).astype(np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values[~skip]).all():
        for (r, j), cell in np.ndenumerate(block):  # find the first bad cell
            if not skip[r, j]:
                _parse_float(cell, r + 2, numeric[j] + 1, path)
    if end < len(records):
        raise InputError(f"{path}: row {end + 2} has {len(records[end])} "
                         f"cells, expected {width}")
    return cells, missing, values


def read_embeddings(path: str, id_column: str = "id",
                    subgroup_column: str | None = None,
                    region_column: str | None = None) -> EmbeddingSet:
    """Parse an embedding matrix from a comma-separated or JSON-lines file.

    Comma-separated files carry a header row; every column other than the
    id / subgroup / region columns is a feature, kept in header order. Row
    and column numbers in errors are 1-based with the header as row 1.
    JSON-lines records hold a ``features`` list and the same id / subgroup
    / region columns as keys. A label column left unset is not read.
    """
    keys = {name: key for name, key in (("id", id_column),
                                        ("subgroup", subgroup_column),
                                        ("region", region_column))
            if key is not None}
    read = (_read_embeddings_jsonl if str(path).endswith(".jsonl")
            else _read_embeddings_csv)
    labels, data = read(path, keys)
    if not len(data):
        raise InputError(f"{path}: no data rows")
    ids = labels.pop("id")
    check_unique_ids(list(ids), f"{path}: ")
    return EmbeddingSet(ids=ids, data=data, **labels)


def _read_embeddings_csv(path: str, keys: dict):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for name, key in keys.items():
            if key not in header:
                raise InputError(f"{path}: no {name} column named {key!r}")
        special = {name: header.index(key) for name, key in keys.items()}
        feature_cols = [j for j in range(len(header))
                        if j not in special.values()]
        if not feature_cols:
            raise InputError(f"{path}: no feature columns")
        cells, _, data = _read_cells(path, reader, len(header), feature_cols)
    return {name: cells[:, j] for name, j in special.items()}, data


def jsonl_records(path: str):
    """(line number, record) of each non-blank line of a JSON-lines file;
    every record must be a JSON object."""
    with open(path, encoding="utf-8") as fh:
        for r, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: row {r}: {exc}") from None
            if not isinstance(record, dict):
                raise InputError(f"{path}: row {r} is not a JSON object")
            yield r, record


def _read_embeddings_jsonl(path: str, keys: dict):
    labels = {name: [] for name in keys}
    rows = []
    for r, record in jsonl_records(path):
        if "features" not in record:
            raise InputError(f"{path}: row {r} needs features")
        for name, key in keys.items():
            if key not in record:
                raise InputError(f"{path}: row {r} has no {name} key {key!r}")
            labels[name].append(str(record[key]))
        feats = record["features"]
        for j, v in enumerate(feats, start=1):
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise InputError(f"{path}: non-numeric cell at row {r} col {j}")
        rows.append([float(v) for v in feats])
    return labels, np.asarray(rows)


def write_embeddings(eset: EmbeddingSet, path: str) -> None:
    """Columns ``id``, then ``subgroup`` and ``region`` where the set has
    them, then the features ``f0``, ``f1``, ..."""
    labels = [(name, values) for name, values in (("subgroup", eset.subgroup),
                                                  ("region", eset.region))
              if values is not None]
    header = ["id", *(name for name, _ in labels),
              *(f"f{j}" for j in range(eset.d))]
    _write_csv(path, header, ([eset.ids[i], *(values[i] for _, values in labels),
                               *eset.data[i].tolist()] for i in range(eset.n)))


def _write_csv(path: str, header, rows) -> None:
    """Comma-separated rows, cells quoted only where they need it. Floats
    are written by ``repr``, None as an empty cell. The minimal quoting
    leaves a bare carriage return unquoted, which a reader takes for a line
    end, so a row holding one has every cell quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in itertools.chain([header], rows):
        if any(isinstance(cell, str) and "\r" in cell for cell in row):
            quote_all.writerow(row)
        else:
            writer.writerow(row)
    atomic_write(path, buffer.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# record tables


def read_record_table(path: str, schema: dict[str, str],
                      missing_sentinel: str = "") -> RecordTable:
    """Parse a typed record table; empty cells / the sentinel are missing."""
    if not schema:
        raise ConfigError("record table schema must declare column kinds")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        missing_decl = sorted(set(header) - set(schema))
        if missing_decl:
            raise InputError(f"{path}: columns {missing_decl} not declared "
                             "in the schema")
        absent = sorted(set(schema) - set(header))
        if absent:
            raise InputError(f"{path}: schema columns {absent} not in the file")
        kinds = [schema[name] for name in header]
        numeric = [j for j, kind in enumerate(kinds) if kind == "numeric"]
        cells, missing, floats = _read_cells(path, reader, len(header),
                                             numeric, ("", missing_sentinel))
    cells[missing] = None
    cells[:, numeric] = floats
    return RecordTable(tuple(zip(header, kinds)), list(cells.T))


def write_record_table(table: RecordTable, path: str) -> None:
    columns = [table.column(name) for name in table.column_names]
    _write_csv(path, table.column_names, zip(*columns))


# ---------------------------------------------------------------------------
# portable graymaps (8- or 16-bit grayscale)


def read_pgm(path: str) -> tuple[np.ndarray, int]:
    """Read a P2 (ASCII) or P5 (binary) graymap; returns (array, maxval)."""
    with open(path, "rb") as fh:
        payload = fh.read()
    tokens = []
    i = 0
    # header: magic, width, height, maxval with '#' comments allowed
    while len(tokens) < 4:
        if i >= len(payload):
            raise InputError(f"{path}: truncated graymap header")
        c = payload[i:i + 1]
        if c == b"#":
            while i < len(payload) and payload[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(payload) and not payload[i:i + 1].isspace():
                i += 1
            tokens.append(payload[start:i])
    magic = tokens[0].decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise InputError(f"{path}: not a portable graymap (magic {magic!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise InputError(f"{path}: malformed graymap header") from None
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise InputError(f"{path}: invalid graymap dimensions or maxval")
    if magic == "P2":
        try:
            values = [int(t) for t in payload[i:].split()]
        except ValueError:
            raise InputError(f"{path}: non-integer pixel in ASCII graymap") from None
        if len(values) != width * height:
            raise InputError(f"{path}: expected {width * height} pixels, "
                             f"got {len(values)}")
        arr = np.asarray(values, dtype=np.uint16 if maxval > 255 else np.uint8)
    else:
        i += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dtype.itemsize
        raw = payload[i:i + expected]
        if len(raw) != expected:
            raise InputError(f"{path}: truncated graymap pixel data")
        arr = np.frombuffer(raw, dtype=dtype).astype(
            np.uint16 if maxval > 255 else np.uint8)
    arr = arr.reshape(height, width)
    if arr.max(initial=0) > maxval:
        raise InputError(f"{path}: pixel exceeds declared maxval {maxval}")
    return arr, maxval


def write_pgm(path: str, image: np.ndarray, maxval: int | None = None) -> None:
    image = np.asarray(image)
    if image.ndim != 2:
        raise InputError("graymap image must be 2-dimensional")
    if maxval is None:
        maxval = 255 if image.max(initial=0) <= 255 else 65535
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        body = image.astype(">u2").tobytes()
    else:
        body = image.astype("u1").tobytes()
    atomic_write(path, header + body)


def read_image_pairs(manifest_path: str) -> list[tuple[str, str]]:
    """Two-column manifest: reference image path, synthetic image path."""
    pairs = []
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, newline="", encoding="utf-8") as fh:
        for r, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != 2:
                raise InputError(f"{manifest_path}: row {r} needs exactly two "
                                 "paths (real, synthetic)")
            pair = []
            for cell in record:
                p = cell.strip()
                if not os.path.isabs(p):
                    p = os.path.join(base, p)
                pair.append(p)
            pairs.append(tuple(pair))
    if not pairs:
        raise InputError(f"{manifest_path}: no image pairs listed")
    return pairs


# ---------------------------------------------------------------------------
# config / manifest / report documents


def _read_yaml(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def read_eval_config(path: str) -> EvalConfig:
    try:
        return config_from_dict(_read_yaml(path))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", code=exc.code) from None


def read_manifest(path: str) -> dict:
    return _read_yaml(path)


def write_report(report, path: str) -> bytes:
    """Serialize a QualityReport; returns the bytes written."""
    payload = dumps_canonical(report.to_dict()).encode("utf-8")
    atomic_write(path, payload)
    return payload


def read_report(path: str):
    """The report at ``path`` and its bytes; ``InputError`` if it is none."""
    from .aggregate import QualityReport
    with open(path, "rb") as fh:
        payload = fh.read()
    try:
        return QualityReport.from_dict(json.loads(payload)), payload
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: not a report document ({exc!r})") from None


def write_bounds(path: str, bounds: dict[str, tuple[float, float]]) -> None:
    """Suggested normalization bounds, as a YAML fragment mergeable into a
    config's ``bounds:`` section."""
    lines = ["bounds:"]
    for name in sorted(bounds):
        lo, hi = bounds[name]
        lines.append(f"  {name}: [{format(float(lo), '.9g')}, "
                     f"{format(float(hi), '.9g')}]")
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
