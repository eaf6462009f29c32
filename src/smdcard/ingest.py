"""Array, table and image files.

Inputs: comma-separated values with a header row (embeddings, record
tables, image-pair manifests), JSON-lines embeddings, evaluation configs
and portable graymap (PGM) images. Outputs: the same embedding, table and
image files, and calibrated bounds, each written atomically. Canonical
JSON, YAML documents and reports are read and written by ``documents``.

Parsing rejects malformed values instead of coercing them; errors name the
first offending row and column in file order. Every text input is read
whole as UTF-8; comma-separated and JSON-lines inputs may start with a
byte-order mark, as spreadsheet exports write them. A comma-separated file
is tokenized once (split on line feeds and commas where it has no quotes,
``csv.reader`` otherwise) and converted column by column, a block of
records at a time: one JSON parse per numeric column block, falling back to
one ``float`` per cell for a block that is not all JSON numbers, and a
record table's categorical and text cells coded as they are read. Record
widths are checked block by block, and quoted files are read a block at a
time too."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
from collections import Counter

import numpy as np

from .config import EvalConfig, config_from_dict
from .documents import _read_text, atomic_write, read_yaml
from .errors import ConfigError, InputError
from .model import EmbeddingSet, LabelCoder, RecordTable, check_unique_ids

# ---------------------------------------------------------------------------
# text and comma-separated records


# A line as ``io.StringIO(text, newline="")`` gives it, found in ``text``
# without that StringIO's copy of it at four bytes a character.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _reader_records(path: str, text: str):
    """The records ``csv.reader`` reads from ``text``, one at a time; a csv
    error, such as a cell longer than ``csv.field_size_limit()``, names its
    row."""
    lines = map(re.Match.group, _LINE.finditer(text))
    row = 0
    try:
        for row, record in enumerate(csv.reader(lines), start=1):
            yield record
    except csv.Error as exc:
        raise InputError(f"{path}: row {row + 1}: {exc}") from None


# Records converted at a time: the cell strings of one block are alive at
# once, not those of the whole file.
_BLOCK_ROWS = 2048

# The ASCII characters that ``str.strip`` removes, but for the line feed.
_ASCII_BLANKS = " \t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def _read_csv(path: str):
    """A comma-separated file as (header, width, blocks): the header record
    (None for an empty file) and its cell count, and the data records, made
    block by block as ``blocks`` is iterated, each block as (row of its
    first record, its cells column by column). The first record whose cell
    count is not ``width`` ends the iteration with an error naming its row,
    raised once the records before it are yielded. Data cells are stripped,
    the header as written; rows are 1-based with the header as row 1.

    Text without a quote, carriage return or NUL is split on line feeds and
    then on commas, an empty line being a record of no cells and a final
    line feed ending the last record. These are the records ``csv.reader``
    reads from such text (RFC 4180: a record without quotes is its line
    split on commas), and the split builds no list per record
    (``_split_block``); a cell longer than ``csv.field_size_limit()`` is an
    error naming its row, raised before this returns. Other text goes
    through ``csv.reader``, the one path that reads quoted cells, a block at
    a time (``_quoted_blocks``); a csv error names its row as it is read.

    Whether cells are stripped is decided here, once per file: quote-free
    text that is ASCII and holds no whitespace but its line feeds is split
    into cells that have nothing to strip, so they are not; every other
    text's cells are.
    """
    text = _read_text(path)
    if '"' in text or "\r" in text or "\0" in text:
        records = _reader_records(path, text)
        header = next(records, None)
        width = len(header or ())
        return header, width, _quoted_blocks(path, records, width)
    bare = text.isascii() and not any(blank in text for blank in _ASCII_BLANKS)
    records = _lines(path, text)
    del text
    if not records:
        return None, 0, iter(())
    header = records[0].split(",") if records[0] else []
    width = len(header)

    def blocks():
        for start in range(1, len(records), _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, len(records))
            end, columns = _split_block(records, start, stop, width, bare)
            if end > start:
                yield start + 1, columns
            if end < stop:
                raise InputError(f"{path}: row {end + 1} has "
                                 f"{_cell_count(records[end])} cells, "
                                 f"expected {width}")
    return header, width, blocks()


def _quoted_blocks(path: str, records, width: int):
    """``_read_csv``'s blocks of ``csv.reader``'s data ``records``."""
    row = 2  # of the block's first record
    while block := list(itertools.islice(records, _BLOCK_ROWS)):
        end = next((i for i, r in enumerate(block) if len(r) != width), len(block))
        if end:
            yield row, [list(map(str.strip, column)) for column in zip(*block[:end])]
        if end < len(block):
            raise InputError(f"{path}: row {row + end} has "
                             f"{len(block[end])} cells, expected {width}")
        row += len(block)


def _cell_count(line: str) -> int:
    """The cells of a quote-free record: none for an empty line."""
    return line.count(",") + 1 if line else 0


def _split_block(lines: list[str], start: int, stop: int, width: int,
                 bare: bool) -> tuple[int, list]:
    """Quote-free records ``start`` to ``stop`` of a file of ``width``
    cells per record, as (the index of the first of them with another cell
    count, or ``stop``; the cells of the records before it, column by
    column), stripped unless the text is ``bare``.

    The lines are joined with a marker cell ``"\\n"`` between records and
    split once. No cell of a line holds a line feed, so every record has
    ``width`` cells exactly when the split has ``rows * (width + 1) - 1``
    cells and a marker at every ``width + 1``-th, except that an empty
    line, a record of no cells, splits into one empty cell, which passes
    that check at width 1. Only a block that fails the check counts its
    records' cells one by one."""
    rows = stop - start
    cells = ",\n,".join(lines[start:stop]).split(",")
    end = stop
    if (len(cells) != rows * (width + 1) - 1
            or cells[width::width + 1].count("\n") != rows - 1
            or width == 1 and "" in cells):
        end = next((r for r in range(start, stop)
                    if _cell_count(lines[r]) != width), stop)
        cells = ",\n,".join(lines[start:end]).split(",")
    if not bare:
        cells = list(map(str.strip, cells))
    return end, [cells[j::width + 1] for j in range(width)]


def _lines(path: str, text: str) -> list[str]:
    """The records of quote-free text, one unsplit line each; a cell longer
    than ``csv.field_size_limit()`` is an error naming its row."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        for r, line in enumerate(lines, start=1):
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise InputError(f"{path}: row {r}: field larger than field "
                                 f"limit ({limit})")
    return lines


def _checked_header(path: str, header: list[str] | None) -> list[str]:
    """The stripped header record; a file without one, or one that repeats
    a name, is an error."""
    if header is None:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in header]
    repeated = sorted(name for name, count in Counter(header).items()
                      if count > 1)
    if repeated:
        raise InputError(f"{path}: header repeats column names {repeated}")
    return header


def _parse_float(cell: str, row: int, col: int, path: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InputError(f"{path}: non-numeric cell at row {row} col {col}: "
                         f"{cell!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}: non-finite value at row {row} col {col}")
    return value


def _parse_columns(path: str, width: int, blocks, numeric: set[int],
                   missing_texts: tuple[str, ...] = (), coded: bool = False
                   ) -> list:
    """``_read_csv``'s data converted column by column, a block at a time: a
    ``numeric`` column to float64 with NaN at missing cells; any other to a
    ``LabelCoder`` that codes its cells as they are read when ``coded``,
    else to strings with None at missing cells. A cell is missing when its
    text is in ``missing_texts``.

    A numeric column block is read by ``_json_floats``, one JSON parse of
    its cells. A block that parse refuses, one with a cell that is not a
    JSON number (``+1``, ``.5``, ``inf``, a non-ASCII digit) or that
    overflows, is read one ``float`` per cell, and the first bad numeric
    cell in file order is an error; a record of another width after the
    last good block is ``blocks``' own error."""
    missing = set(missing_texts)
    as_nan = dict.fromkeys(missing, "nan")
    as_null = dict.fromkeys(missing, "null")
    # columns kept as strings: one string per distinct label, so that cells
    # die with their block, and None for every missing text
    labels: dict[str, str | None] = dict.fromkeys(missing)
    order = sorted(numeric)
    parsed: list = [LabelCoder(missing_texts) if coded and j not in numeric
                    else [] for j in range(width)]
    for row, columns in blocks:
        for j, cells in enumerate(columns):
            if j not in numeric:
                if coded:
                    parsed[j].add(cells)
                else:
                    parsed[j] += map(labels.setdefault, cells, cells)
                continue
            values = _json_floats(cells, as_null)
            if values is None:
                values = _float_cells(cells, as_nan)
            if values is None:
                # the block holds the first bad cell: find it in file order
                for r, record in enumerate(zip(*(columns[k] for k in order)),
                                           start=row):
                    for k, cell in zip(order, record):
                        if cell not in missing:
                            _parse_float(cell, r, k + 1, path)
            parsed[j].append(values)
    return [(np.concatenate(column) if column else np.empty(0))
            if j in numeric else column for j, column in enumerate(parsed)]


def _float_cells(cells: list[str], as_nan: dict) -> np.ndarray | None:
    """Stripped numeric cells as float64 through one ``float`` per cell,
    NaN at the missing cells, which ``as_nan`` maps to ``"nan"``; None if a
    cell is not a number or not finite."""
    try:
        values = np.fromiter(map(float, map(as_nan.get, cells, cells)),
                             np.float64, len(cells))
    except ValueError:
        return None
    if any(cells[i] not in as_nan
           for i in np.flatnonzero(~np.isfinite(values))):
        return None
    return values


# what ``orjson.loads`` gives for a JSON number or for ``null``
_JSON_NUMBER_TYPES = {float, int, type(None)}


def _json_floats(cells: list[str], as_null: dict) -> np.ndarray | None:
    """Stripped numeric cells as float64 through one ``orjson.loads`` of
    ``[cell,cell,...]``, NaN at the missing cells, which ``as_null`` maps
    to ``null``; None if orjson refuses the cells.

    The parse is accepted only when it gives one number or ``null`` per
    cell, and ``null`` only for missing cells. That holds exactly when
    every other cell is one JSON number: a comma inside a cell changes the
    count, and ``true``, strings and lists change the type. orjson rounds a
    JSON number to the double that ``float`` gives and refuses one that
    overflows; an int becomes that double through ``np.array``, as
    ``float`` of its text rounds it, and ``null`` becomes NaN. orjson reads
    ``-0`` as the int 0, so every zero is read again with ``float`` to keep
    its sign."""
    import orjson  # not at module load: ``smdcard.cli`` does not need it
    try:
        numbers = orjson.loads("[" + ",".join(
            map(as_null.get, cells, cells) if as_null else cells) + "]")
    except orjson.JSONDecodeError:
        return None
    if (len(numbers) != len(cells)
            or not set(map(type, numbers)) <= _JSON_NUMBER_TYPES):
        return None
    values = np.array(numbers, dtype=np.float64)
    if any(cells[i] not in as_null for i in np.flatnonzero(np.isnan(values))):
        return None  # a null cell that is not missing
    for i in np.flatnonzero(values == 0).tolist():
        values[i] = float(cells[i])
    return values


# ---------------------------------------------------------------------------
# embeddings


def read_embeddings(path: str, id_column: str = "id",
                    subgroup_column: str | None = None,
                    region_column: str | None = None,
                    features: tuple[str, ...] | None = None) -> EmbeddingSet:
    """Parse an embedding matrix from a comma-separated or JSON-lines file.

    Comma-separated files carry a header row that names each column once;
    every column other than the id / subgroup / region columns is a
    feature, kept in header order, or read in the order of ``features``,
    which must name the same columns (a reference file's names from
    ``read_reference``, so that two sets agree by name). Row and column
    numbers in errors are 1-based with the header as row 1. JSON-lines
    records hold a ``features`` list, positional and of one length per
    file, and the same id / subgroup / region columns as keys; ``features``
    does not apply to them. A label column left unset is not read.
    """
    return _read_embeddings(path, _label_keys(id_column, subgroup_column,
                                              region_column), features)[0]


def read_reference(path: str, id_column: str = "id",
                   subgroup_column: str | None = None,
                   region_column: str | None = None
                   ) -> tuple[EmbeddingSet, tuple[str, ...] | None]:
    """A reference embedding file, read once as ``read_embeddings`` reads
    it, and its feature names in header order (None for JSON-lines): the
    ``features`` to read a synthetic set with. A label column the file
    lacks is not read (for JSON-lines, a key its first record lacks), as a
    reference may omit the synthetic file's subgroup and region columns."""
    return _read_embeddings(path, _label_keys(id_column, subgroup_column,
                                              region_column), reference=True)


def _read_embeddings(path: str, keys: dict, features=None,
                     reference: bool = False):
    """(set, feature names) of ``read_embeddings`` and ``read_reference``."""
    if _is_jsonl(path):
        labels, data, names = _read_embeddings_jsonl(path, keys, reference)
    else:
        labels, data, names = _read_embeddings_csv(path, keys, features,
                                                   reference)
    if not len(data):
        raise InputError(f"{path}: no data rows")
    ids = labels.pop("id")
    check_unique_ids(list(ids), f"{path}: ")
    return EmbeddingSet(ids=ids, data=data, **labels), names


def _is_jsonl(path: str) -> bool:
    return str(path).endswith(".jsonl")


def _label_keys(id_column, subgroup_column, region_column) -> dict:
    return {name: key for name, key in (("id", id_column),
                                        ("subgroup", subgroup_column),
                                        ("region", region_column))
            if key is not None}


def _present(keys: dict, names) -> dict:
    """``keys`` less a subgroup or region column not among ``names``."""
    return {name: key for name, key in keys.items()
            if name == "id" or key in names}


def _feature_indices(path: str, header: list[str], keys: dict) -> list[int]:
    """The header positions of the feature columns: all but the label
    columns in ``keys``, each of which must be present."""
    for name, key in keys.items():
        if key not in header:
            raise InputError(f"{path}: no {name} column named {key!r}")
    labels = set(keys.values())
    indices = [j for j, name in enumerate(header) if name not in labels]
    if not indices:
        raise InputError(f"{path}: no feature columns")
    return indices


def _read_embeddings_csv(path: str, keys: dict, features, reference: bool):
    header, width, blocks = _read_csv(path)
    header = _checked_header(path, header)
    if reference:
        keys = _present(keys, header)
    feature_cols = _feature_indices(path, header, keys)
    names = tuple(header[j] for j in feature_cols)
    if features is not None and sorted(names) != sorted(features):
        missing = sorted(set(features) - set(names))
        extra = sorted(set(names) - set(features))
        raise InputError(f"{path}: feature columns differ from the "
                         f"reference's: missing {missing}, not in the "
                         f"reference {extra}")
    cells = _parse_columns(path, width, blocks, set(feature_cols))
    order = feature_cols if features is None else map(header.index, features)
    return ({name: cells[header.index(key)] for name, key in keys.items()},
            np.column_stack([cells[j] for j in order]), names)


def jsonl_records(path: str):
    """(line number, record) of each non-blank line of a JSON-lines file;
    every record must be a JSON object."""
    lines = map(re.Match.group, _LINE.finditer(_read_text(path)))
    for r, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        # ValueError covers JSONDecodeError and an integer past the
        # interpreter's digit limit, which json.loads does not wrap
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise InputError(f"{path}: row {r}: {exc}") from None
        if not isinstance(record, dict):
            raise InputError(f"{path}: row {r} is not a JSON object")
        yield r, record


def _read_embeddings_jsonl(path: str, keys: dict, reference: bool):
    """Labels, features and no feature names; ``features`` follows the CSV
    cell rules: finite numbers (no booleans), as many in every row as in
    the first."""
    labels = {name: [] for name in keys}
    rows = []
    for r, record in jsonl_records(path):
        if reference and not rows:  # the first record names the labels read
            keys = _present(keys, record)
            labels = {name: [] for name in keys}
        if "features" not in record:
            raise InputError(f"{path}: row {r} needs features")
        for name, key in keys.items():
            if key not in record:
                raise InputError(f"{path}: row {r} has no {name} key {key!r}")
            labels[name].append(str(record[key]))
        feats = record["features"]
        if not isinstance(feats, list) or not feats:
            raise InputError(f"{path}: row {r}: features must be a non-empty "
                             f"list of numbers, not {feats!r}")
        if rows and len(feats) != len(rows[0]):
            raise InputError(f"{path}: row {r} has {len(feats)} features, "
                             f"expected {len(rows[0])}")
        rows.append([_json_number(v, r, j, path)
                     for j, v in enumerate(feats, start=1)])
    return labels, np.array(rows, dtype=np.float64), None


def _json_number(value, row: int, col: int, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: non-numeric cell at row {row} col {col}: "
                         f"{value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float64
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"{path}: non-finite value at row {row} col {col}")
    return value


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
    header, width, blocks = _read_csv(path)
    header = _checked_header(path, header)
    missing_decl = sorted(set(header) - set(schema))
    if missing_decl:
        raise InputError(f"{path}: columns {missing_decl} not declared "
                         "in the schema")
    absent = sorted(set(schema) - set(header))
    if absent:
        raise InputError(f"{path}: schema columns {absent} not in the file")
    kinds = [schema[name] for name in header]
    numeric = {j for j, kind in enumerate(kinds) if kind == "numeric"}
    cells = _parse_columns(path, width, blocks, numeric,
                           ("", missing_sentinel), coded=True)
    return RecordTable(tuple(zip(header, kinds)), cells)


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
        if min(values) < 0:
            raise InputError(f"{path}: negative pixel in ASCII graymap")
        top = max(values)  # checked before the pixels meet a fixed width
    else:
        i += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dtype.itemsize
        raw = payload[i:i + expected]
        if len(raw) != expected:
            raise InputError(f"{path}: truncated graymap pixel data")
        values = np.frombuffer(raw, dtype=dtype)
        top = values.max()
    if top > maxval:
        raise InputError(f"{path}: pixel exceeds declared maxval {maxval}")
    arr = np.array(values, dtype=np.uint16 if maxval > 255 else np.uint8)
    return arr.reshape(height, width), maxval


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


def resolve_path(path: str, anchor_file: str) -> str:
    """A file ``path`` named inside ``anchor_file``, relative to its directory
    unless absolute; a NUL byte, which no file name holds, is an error."""
    if "\0" in path:
        raise InputError(f"{anchor_file}: {path!r} is not a file name")
    return os.path.join(os.path.dirname(os.path.abspath(anchor_file)), path)


def read_image_pairs(manifest_path: str) -> list[tuple[str, str]]:
    """Two-column manifest: reference image path, synthetic image path."""
    pairs = []
    records = _reader_records(manifest_path, _read_text(manifest_path))
    for r, record in enumerate(records, start=1):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) != 2:
            raise InputError(f"{manifest_path}: row {r} needs exactly two "
                             "paths (real, synthetic)")
        pairs.append(tuple(resolve_path(cell.strip(), manifest_path)
                           for cell in record))
    if not pairs:
        raise InputError(f"{manifest_path}: no image pairs listed")
    return pairs


# ---------------------------------------------------------------------------
# config and bounds documents


def read_eval_config(path: str) -> EvalConfig:
    raw = read_yaml(path)
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", code=exc.code) from None


def write_bounds(path: str, bounds: dict[str, tuple[float, float]]) -> None:
    """Suggested normalization bounds, as a YAML fragment mergeable into a
    config's ``bounds:`` section."""
    lines = ["bounds:"]
    for name in sorted(bounds):
        lo, hi = bounds[name]
        lines.append(f"  {name}: [{format(float(lo), '.9g')}, "
                     f"{format(float(hi), '.9g')}]")
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
