"""File formats and persistence: predictions/conditions/trajectories CSV,
YAML rule sets, result tables, and run manifests.

All writers are atomic (temp file + rename in the target directory) so a
failed run never leaves a partial artifact, and all output is deterministic
given the same inputs.

Predictions, conditions and trace files are read by one byte scanner first.
It reads blocks of 256 KiB and splits records at the ``\\n`` bytes outside
quotes, from the parity of the block's quote positions, carrying the
unfinished last record into the next block.  A record starts with one
sample-id field whose quotes are all structural (unquoted without ``,``,
``"`` or ``\\r``, or quoted with inner quotes doubled), which is what makes
the split agree with ``csv.reader``; a block's ids are checked by one regex
and decoded at once.  In conditions, ``,0``/``,1`` cells follow, checked
with one byte compare per block; in predictions and traces, cells without
quotes or ``\\r`` follow, and the text after each id is coded as one string,
so it is split and decoded once per distinct value.  The files the writers
write take this path with ``\\n`` or ``\\r\\n`` line ends, unless an id holds
``\\r``.  Predictions and traces state their cell rules once, each in a
``_CellRules``: the scanner applies them to the distinct values of each
column, and the row parser to each row.  Anything else (NUL, a quoted cell, a
bare ``\\r`` line end, a bad width or bit, an empty id, a cell that breaks
its format's rules, an unknown or repeated conditions id) sends the whole
file to the row parser, built on ``csv.reader``: the single fallback, which
reads every other valid CSV layout and names the line of every fault.

The predictions and trace writers join their text columns as they are, which
is what ``csv.writer`` writes when counts on the text prove that no field
holds a separator, quote, ``\\r`` or NUL; otherwise they run ``csv.writer``,
quoting a row that holds ``\\r`` whole, as every other writer does.
``write_conditions`` builds its bit cells as one byte array and quotes only
the id column, so every file is byte-identical to what ``csv.writer`` writes
(or fails as it does: Python 3.10's rejects NUL).
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, fields
from datetime import datetime, timezone
from io import StringIO
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import yaml
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    UNKNOWN_NAME,
    ClassSet,
    ConditionMatrix,
    ContractError,
    DataError,
    PredictionTable,
    _coded,
    id_column,
    name_column,
)
from .conditions import TrajectoryRecord
from .evaluate import MetricsReport, SweepRow, UnseenRow
from .rules import ApplyTrace, CorrectionRule, DetectionRule, RuleSet
from .theory import TheoremReport

RULESET_FORMAT_VERSION = 1
TRACE_HEADER = ["sample_id", "original", "flagged", "fired", "final"]
_BITS = frozenset(("0", "1"))
_BIT_TEXT = np.array(["0", "1"], dtype=object)
_SCAN_BLOCK = 1 << 18  # 256 KiB; larger blocks raised peak RSS on 15-column files
# the NUL-terminated sample ids of a block: each unquoted without a comma,
# quote or carriage return, or one quoted field whose quotes are all structural
_ID_FIELDS = re.compile(rb'(?:(?:[^",\r\n\x00]*|"(?:[^"\x00]|"")*")\x00)*')
_NEEDS_QUOTES = re.compile('[,"\n]')


def atomic_write_text(path: Path | str, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_error(path, line_no: int, message: str) -> DataError:
    return DataError(f"{path}:{line_no}: {message}")


def write_csv_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file atomically with ``\\n`` line endings.  A field holding a
    comma, quote or line break is quoted; floats are written with ``repr``."""
    atomic_write_text(path, _csv_text([header, *rows]))


def _write_columns(path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """:func:`write_csv_rows` for ``str`` columns of one length.  The fields are
    joined as they are, which is what csv.writer writes when counts on the
    text prove that none holds a separator, a quote, a carriage return or NUL
    (which Python 3.10's csv.writer rejects)."""
    text = "\n".join(map(",".join, chain([header], zip(*columns)))) + "\n"
    width, lines = len(header), 1 + (len(columns[0]) if columns else 0)
    counts = (text.count(","), text.count("\n"))
    if width < 2 or counts != (lines * (width - 1), lines) or any(c in text for c in '"\r\0'):
        text = _csv_text([header, *zip(*columns)])
    atomic_write_text(path, text)


def _csv_text(lines: list[Sequence]) -> str:
    """The rows as ``csv.writer`` writes them, with a row that holds a ``\\r``
    quoted whole (csv.writer only quotes the characters of its line
    terminator)."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(lines)
    text = buffer.getvalue()
    if "\r" in text:
        buffer = StringIO()
        plain = csv.writer(buffer, lineterminator="\n")
        quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in lines:
            (quoted if any("\r" in str(value) for value in row) else plain).writerow(row)
        text = buffer.getvalue()
    return text


@contextmanager
def _csv_file(path: Path):
    """The header and a reader over the remaining rows of a CSV file; bytes
    that are not UTF-8 and malformed CSV are data errors."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise _parse_error(path, 1, "empty file")
            yield header, reader
    except (csv.Error, UnicodeDecodeError) as err:
        raise DataError(f"{path}: {err}") from None


def _check_width(path: Path, line_no: int, row: list[str], width: int) -> None:
    if len(row) != width:
        raise _parse_error(path, line_no, f"expected {width} fields, got {len(row)}")


# ---------------------------------------------------------------------------
# The byte scanner shared by the predictions, conditions and trace readers
# ---------------------------------------------------------------------------


class _Unscannable(Exception):
    """A record outside the scanned layout; the reader falls back to its row parser."""


def _scan_records(path: Path):
    """Split a file into records at the ``\\n`` bytes outside quotes, one block
    at a time.  Yields the header's fields, then per block ``(data, starts,
    stops)``: its bytes and the bounds of its non-blank records, less the line
    break and a ``\\r`` before it.  NUL, and a file that ends inside quotes,
    raise :class:`_Unscannable`."""
    tail, at_end, header = b"", False, True
    with open(path, "rb") as handle:
        while not at_end:
            # a record longer than a block doubles the next read, so the scan stays linear
            chunk = handle.read(max(_SCAN_BLOCK, len(tail)))
            at_end = not chunk
            buf = tail + (chunk or b"\n")  # end of file ends a last record without a line break
            if b"\0" in buf:  # left to the row parser, because Python 3.10's csv.reader rejects it
                raise _Unscannable
            data = np.frombuffer(buf, dtype=np.uint8)
            newlines = np.flatnonzero(data == 0x0A)
            quotes = np.flatnonzero(data == 0x22)
            ends = newlines[np.searchsorted(quotes, newlines) % 2 == 0]
            if not len(ends):
                tail = buf
                continue
            tail = buf[ends[-1] + 1 :]
            starts = np.concatenate(([0], ends[:-1] + 1))
            stops = np.maximum(ends - (data[ends - 1] == 0x0D), starts)
            if header:
                yield next(csv.reader([buf[: stops[0]].decode()]), [])
                header, starts, stops = False, starts[1:], stops[1:]
            filled = stops > starts  # blank lines are skipped, as csv.reader yields them empty
            yield data, starts[filled], stops[filled]
    if tail or header:
        raise _Unscannable


def _joined(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> bytes:
    """The ranges ``data[starts[j]:stops[j]]``, each ended by a NUL, joined."""
    lengths = stops + 1 - starts  # each range and the byte after it, which becomes the NUL
    ends = np.cumsum(lengths)
    joined = data[np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())]
    joined[ends - 1] = 0
    return joined.tobytes()


def _scan_ids(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[str]:
    """The sample ids ``data[starts[j]:stops[j]]`` of a block, checked with one
    regex and decoded at once: the byte after each id becomes NUL and the
    ranges are joined."""
    joined = _joined(data, starts, stops)
    if (stops - starts > csv.field_size_limit()).any() or not _ID_FIELDS.fullmatch(joined):
        raise _Unscannable
    ids = joined.decode().split("\0")[:-1]
    if b'"' in joined:
        ids = [s[1:-1].replace('""', '"') if s[:1] == '"' else s for s in ids]
    return ids


def _scan_columns(path: Path, headers: Sequence[list[str]]):
    """The sample ids and :func:`_coded` cell columns of a file whose
    header is one of ``headers`` and whose every record is a scanned id (see
    the module docstring) and cells without quotes or ``\\r``; None as soon
    as one is not.  The text after each id is coded as one string, so cells
    are split and decoded once per distinct string, not once per row."""
    try:
        records = _scan_records(path)
        header = next(records)
        if header not in headers:
            return None
        ids: list[str] = []
        tails: list[bytes] = []
        for data, starts, stops in records:
            commas = np.flatnonzero(data == 0x2C)
            first = np.searchsorted(commas, stops) - (len(header) - 1)  # the comma after each id
            if (first < 0).any() or (commas[first] < starts).any():
                raise _Unscannable
            if (commas[first] - starts == 2 * (data[starts] == 0x22)).any():  # an empty id, bare or quoted
                raise _Unscannable  # which no format takes; the row parser names its line
            ids += _scan_ids(data, starts, commas[first])
            tails += _joined(data, commas[first] + 1, stops).split(b"\0")[:-1]
        tail_codes, distinct = _coded(tails)
        rows = [tail.decode().split(",") for tail in distinct]
        if any('"' in cell or "\r" in cell or len(cell) > csv.field_size_limit() for cell in chain(*rows)):
            raise _Unscannable
    except (_Unscannable, UnicodeDecodeError, csv.Error):
        return None
    columns = [_coded(values) for values in zip(*rows)] or [_coded(())] * (len(header) - 1)
    return ids, [(by_tail[tail_codes], names) for by_tail, names in columns]


class _CellRules(NamedTuple):
    """A format's rules: the headers it takes, the fault of any other header
    (formatted with the header found), of a row of the wrong width (with the
    widths expected and found) and of a cell given its column ("" if valid)."""

    headers: tuple[list[str], ...]
    bad_header: str
    bad_width: str
    cell_fault: Callable[[int, str], str]


def _read_columns(path: Path, rules: _CellRules):
    """The sample ids and :func:`_coded` cell columns of a file in the format
    of ``rules``.  The scanner's columns are taken when every distinct value
    in them passes the cell rules; otherwise the row parser reads the file
    with ``csv.reader``, applies the rules per row and names the line of the
    first fault."""
    scanned = _scan_columns(path, rules.headers)
    if scanned is not None and not any(
        rules.cell_fault(j, cell) for j, (_, cells) in enumerate(scanned[1], 1) for cell in cells
    ):
        return scanned
    rows: list[list[str]] = []
    with _csv_file(path) as (header, reader):
        if header not in rules.headers:
            raise _parse_error(path, 1, rules.bad_header.format(",".join(header)))
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise _parse_error(path, line_no, rules.bad_width.format(len(header), len(row)))
            fault = next(filter(None, map(rules.cell_fault, range(len(row)), row)), "")
            if fault:
                raise _parse_error(path, line_no, fault)
            rows.append(row)
    ids, *columns = zip(*rows) if rows else [()] * len(header)
    return ids, [_coded(column) for column in columns]


# ---------------------------------------------------------------------------
# Predictions: sample_id,pred[,gt]
# ---------------------------------------------------------------------------


def _prediction_fault(column: int, cell: str) -> str:
    if not cell:
        return "empty " + ("sample id", "predicted value", "ground-truth value")[column]
    return f"ground truth may never be {UNKNOWN_NAME}" if column == 2 and cell == UNKNOWN_NAME else ""


_PREDICTIONS = _CellRules(
    (["sample_id", "pred"], ["sample_id", "pred", "gt"]),
    "expected header sample_id,pred[,gt]; got {}",
    "expected {} fields, got {}",
    _prediction_fault,
)


def read_predictions(path, classes: ClassSet | None = None) -> PredictionTable:
    """Read a predictions CSV (header ``sample_id,pred`` or
    ``sample_id,pred,gt``).  Without an explicit class set, the classes are
    the sorted distinct predicted names (UNKNOWN excluded)."""
    path = Path(path)
    ids, (pred, *gt) = _read_columns(path, _PREDICTIONS)
    if len(set(ids)) != len(ids):
        dupes = sorted(s for s, count in Counter(ids).items() if count > 1)
        raise DataError(f"{path}: duplicate sample ids: {dupes[:5]}")
    predicted = set(pred[1])
    predicted.discard(UNKNOWN_NAME)
    if classes is None:
        if not predicted:
            raise DataError(f"{path}: no predictable classes found in pred column")
        classes = ClassSet(tuple(sorted(predicted)))
    else:
        bad = sorted(predicted.difference(classes.names))
        if bad:
            raise ContractError(
                f"{path}: predicted classes {bad} are not in the declared class set {classes.names}"
            )
    return PredictionTable._from_coded(classes, ids, pred, gt[0] if gt else None)


def write_predictions(path, table: PredictionTable) -> None:
    columns = [table.sample_ids, table.names(table.pred_ids)]
    if table.has_ground_truth:
        columns.append(table.names(table.gt_ids))
    _write_columns(path, ["sample_id", "pred", "gt"][: len(columns)], columns)


# ---------------------------------------------------------------------------
# Conditions: sample_id,<cond1>,<cond2>,... with 0/1 values
# ---------------------------------------------------------------------------


def read_conditions(path, table: PredictionTable) -> ConditionMatrix:
    """Read a conditions CSV and align rows to the table's sample order.

    Every table sample must appear exactly once; unknown or duplicated ids,
    non-0/1 values and empty or repeated condition names are data errors
    naming the offending line."""
    path = Path(path)
    conds = _scan_conditions(path, table)
    return conds if conds is not None else _parse_conditions(path, table)


def _condition_names(path: Path, header: list[str]) -> tuple[str, ...]:
    if not header or header[0] != "sample_id" or len(header) < 2:
        raise _parse_error(path, 1, "expected header sample_id,<condition>,...")
    names = tuple(header[1:])
    if "" in names:
        raise _parse_error(path, 1, f"empty condition name in column {names.index('') + 2}")
    if len(set(names)) != len(names):
        dupe = next(name for name, count in Counter(names).items() if count > 1)
        raise _parse_error(path, 1, f"duplicate condition name {dupe!r}")
    return names


def _scan_conditions(path: Path, table: PredictionTable) -> ConditionMatrix | None:
    """The byte scanner: the condition matrix of a file whose every record is
    in the scanned layout (see the module docstring), or None as soon as one
    record is outside it or faulty."""
    unclaimed = {sample_id: row for row, sample_id in enumerate(table.sample_ids)}
    try:
        records = _scan_records(path)
        names = _condition_names(path, next(records))
        values = np.zeros((table.n, len(names)), dtype=bool)
        width = 2 * len(names)  # the ,0 and ,1 cells after an id
        for data, starts, stops in records:
            if not len(starts):
                continue  # a block of blank lines, maybe shorter than a window
            if (stops - width < starts).any():
                raise _Unscannable
            ids = _scan_ids(data, starts, stops - width)
            rows = np.fromiter(map(unclaimed.pop, ids, repeat(-1)), dtype=np.intp, count=len(ids))
            cells = sliding_window_view(data, width)[stops - width]
            bits = cells[:, 1::2]
            if (rows < 0).any() or (cells[:, ::2] != 0x2C).any() or ((bits | 1) != 0x31).any():
                raise _Unscannable  # an unknown or repeated id, or a cell that is not ,0 or ,1
            values[rows] = bits == 0x31
    except (_Unscannable, UnicodeDecodeError, csv.Error, DataError):
        return None
    return None if unclaimed else ConditionMatrix(names, values)


def _parse_conditions(path: Path, table: PredictionTable) -> ConditionMatrix:
    """The row parser: reads any valid CSV layout and names the line of every fault."""
    position: dict[str, int] = {}
    bits: list[str] = []
    with _csv_file(path) as (header, reader):
        names = _condition_names(path, header)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            _check_width(path, line_no, row, len(header))
            sample_id = row[0]
            if sample_id in position:
                raise _parse_error(path, line_no, f"duplicate sample id {sample_id!r}")
            values = row[1:]
            if not _BITS.issuperset(values):
                name, text = next((n, t) for n, t in zip(names, values) if t not in _BITS)
                raise _parse_error(path, line_no, f"condition {name!r} must be 0 or 1, got {text!r}")
            position[sample_id] = len(bits)
            bits.append("".join(values))
    extra = sorted(set(position).difference(table.sample_ids))
    if extra:
        raise DataError(f"{path}: sample id {extra[0]!r} is absent from the prediction table")
    if len(position) != table.n:
        missing = next(s for s in table.sample_ids if s not in position)
        raise DataError(f"{path}: no condition row for sample id {missing!r}")
    text = "".join(bits).encode("ascii")
    matrix = (np.frombuffer(text, dtype=np.uint8) == ord("1")).reshape(len(bits), len(names))
    return ConditionMatrix(names, matrix[[position[s] for s in table.sample_ids]])


def write_conditions(path, table: PredictionTable, conds: ConditionMatrix) -> None:
    """The bit cells are built as one ``(n, 2m+1)`` byte array of ``,0``/``,1``
    pairs and a line break; only the id column goes through the quoting rule."""
    if conds.n_rows != table.n:
        raise ContractError("condition matrix and table row counts differ")
    header = ("sample_id", *conds.condition_names)
    ids, m, joined = table.sample_ids, conds.n_conditions, "".join(table.sample_ids)
    if not m or "\r" in joined or "\0" in joined:  # csv.writer's rules for a lone field, \r and NUL
        return write_csv_rows(path, header, zip(ids, *conds.values.view(np.uint8).T.tolist()))
    if _NEEDS_QUOTES.search(joined):
        ids = ['"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES.search(s) else s for s in ids]
    encoded = list(map(str.encode, ids))
    cells = np.empty((table.n, 2 * m + 1), dtype=np.uint8)
    cells[:, :-1:2] = ord(",")
    cells[:, 1::2] = conds.values.view(np.uint8) + ord("0")
    cells[:, -1] = ord("\n")
    at = np.repeat(np.arange(table.n) * (2 * m + 1), list(map(len, encoded)))  # each id before its row
    body = np.insert(cells.ravel(), at, np.frombuffer(b"".join(encoded), dtype=np.uint8))
    atomic_write_text(path, _csv_text([header]) + body.tobytes().decode())


# ---------------------------------------------------------------------------
# Trajectories: sample_id,idx,t,lat,lon
# ---------------------------------------------------------------------------


def read_trajectories(path) -> tuple[TrajectoryRecord, ...]:
    """Read a trajectory CSV; points of one sample must be contiguous with
    idx counting up from 0.  A sample that :class:`TrajectoryRecord` rejects
    (too few points, a non-finite or non-increasing timestamp, a coordinate
    out of range) is a :class:`DataError` naming its first line."""
    path = Path(path)
    records: list[TrajectoryRecord] = []
    current_id: str | None = None
    first_line = 0  # line of the current sample's first point
    points: list[tuple[float, float, float]] = []
    seen: set[str] = set()

    def flush() -> None:
        nonlocal points
        if current_id is None:
            return
        try:
            records.append(TrajectoryRecord(current_id, tuple(points)))
        except DataError as err:
            raise _parse_error(path, first_line, str(err)) from None
        points = []

    with _csv_file(path) as (header, reader):
        if header != ["sample_id", "idx", "t", "lat", "lon"]:
            raise _parse_error(path, 1, f"expected header sample_id,idx,t,lat,lon; got {','.join(header)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            _check_width(path, line_no, row, 5)
            sample_id = row[0]
            try:
                idx = int(row[1])
                t, lat, lon = float(row[2]), float(row[3]), float(row[4])
            except ValueError as err:
                raise _parse_error(path, line_no, str(err)) from None
            if sample_id != current_id:
                flush()
                if sample_id in seen:
                    raise _parse_error(path, line_no, f"sample {sample_id!r} rows are not contiguous")
                seen.add(sample_id)
                current_id, first_line = sample_id, line_no
                if idx != 0:
                    raise _parse_error(path, line_no, f"first point of {sample_id!r} must have idx 0")
            elif idx != len(points):
                raise _parse_error(path, line_no, f"expected idx {len(points)} for {sample_id!r}, got {idx}")
            points.append((t, lat, lon))
        flush()
    return tuple(records)


def write_trajectories(path, records: Sequence[TrajectoryRecord]) -> None:
    rows = (
        (record.sample_id, idx, t, lat, lon)
        for record in records
        for idx, (t, lat, lon) in enumerate(record.points)
    )
    write_csv_rows(path, ("sample_id", "idx", "t", "lat", "lon"), rows)


# ---------------------------------------------------------------------------
# Rule sets (YAML)
# ---------------------------------------------------------------------------


def ruleset_to_dict(rule_set: RuleSet) -> dict:
    """The YAML document of a rule set; classes appear by name."""
    names = rule_set.classes.names
    return {
        "format_version": RULESET_FORMAT_VERSION,
        "classes": list(rule_set.classes.names),
        "conditions": list(rule_set.condition_names),
        "epsilon": rule_set.epsilon,
        "detection_rules": [
            {
                "class": names[rule.target],
                "conditions": list(rule.conditions),
                "class_support": rule.class_support,
                "confidence": rule.confidence,
            }
            for rule in rule_set.detection_rules
        ],
        "correction_rules": [
            {
                "class": names[rule.target],
                "pairs": [[cond, names[cls]] for cond, cls in rule.pairs],
                "support": rule.support,
                "confidence": rule.confidence,
            }
            for rule in rule_set.correction_rules
        ],
    }


def ruleset_from_dict(data: Mapping) -> RuleSet:
    try:
        version = data["format_version"]
        if version != RULESET_FORMAT_VERSION:
            raise DataError(f"unsupported ruleset format version {version}")
        classes = ClassSet(tuple(data["classes"]))
        detection = tuple(
            DetectionRule(
                target=classes.index(entry["class"]),
                conditions=tuple(entry["conditions"]),
                class_support=entry["class_support"],
                confidence=entry["confidence"],
            )
            for entry in data.get("detection_rules", [])
        )
        correction = tuple(
            CorrectionRule(
                target=classes.index(entry["class"]),
                pairs=tuple((cond, classes.index(cls)) for cond, cls in entry["pairs"]),
                support=entry["support"],
                confidence=entry["confidence"],
            )
            for entry in data.get("correction_rules", [])
        )
        return RuleSet(
            classes=classes,
            condition_names=tuple(data["conditions"]),
            epsilon=data["epsilon"],
            detection_rules=detection,
            correction_rules=correction,
        )
    except (AttributeError, KeyError, TypeError, ValueError, ContractError) as err:
        # the document is outside input, so an inconsistent one is a data error
        raise DataError(f"malformed ruleset document: {err}") from None


def save_ruleset(path, rule_set: RuleSet) -> None:
    text = yaml.safe_dump(ruleset_to_dict(rule_set), sort_keys=False, default_flow_style=False)
    atomic_write_text(path, text)


def load_ruleset(path) -> RuleSet:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise DataError(f"{path}: invalid YAML: {err}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: ruleset document must be a mapping")
    return ruleset_from_dict(data)


# ---------------------------------------------------------------------------
# Traces and result tables
# ---------------------------------------------------------------------------


def write_trace(path, trace: ApplyTrace) -> None:
    flagged = _BIT_TEXT[trace.flagged.view(np.uint8)].tolist()
    columns = (
        trace.sample_ids,
        name_column(trace.classes.names, trace.original),
        flagged,
        trace.fired_column(),
        name_column(trace.classes.names, trace.final),
    )
    _write_columns(path, TRACE_HEADER, columns)


def _trace_fault(column: int, cell: str) -> str:
    valid = cell in _BITS if column == 2 else bool(cell) or column == 3  # only fired may be empty
    return "" if valid else "malformed trace row"


_TRACE = _CellRules(
    (TRACE_HEADER,), "expected header " + ",".join(TRACE_HEADER), "malformed trace row", _trace_fault
)


def read_trace(path, classes: ClassSet) -> ApplyTrace:
    """Read a trace CSV written by :func:`write_trace`.

    An original or final class outside ``classes`` extends the trace's class
    set after ``classes``, in sorted order: a class the batch predicted but
    the revised file no longer does, or the target of a correction that the
    batch never predicts."""
    path = Path(path)
    lookup = {name: i for i, name in enumerate(classes.names)}
    lookup[UNKNOWN_NAME] = -1
    sample_ids, (original, flagged, fired, final) = _read_columns(path, _TRACE)
    if len(set(sample_ids)) != len(sample_ids):
        raise DataError(f"{path}: duplicate sample ids")
    extra = tuple(sorted(set(original[1]).union(final[1]).difference(lookup)))
    lookup.update(zip(extra, range(len(classes), len(classes) + len(extra))))
    return ApplyTrace(
        ClassSet(classes.names + extra),
        tuple(sample_ids),
        id_column(lookup, original[1], "original")[original[0]],
        np.array([name == "1" for name in flagged[1]], dtype=bool)[flagged[0]],
        fired[0],
        fired[1],
        id_column(lookup, final[1], "final")[final[0]],
    )


def write_metrics(path, report: MetricsReport) -> None:
    rows: list[tuple] = [
        ("n_samples", "", report.n_samples),
        ("scoring_mode", "", report.mode.value),
        ("accuracy", "", report.accuracy),
        ("accuracy_strict", "", report.accuracy_strict),
        ("accuracy_novel_aware", "", report.accuracy_novel_aware),
    ]
    for entry in report.per_class:
        rows.append(("precision", entry.class_name, entry.precision))
        rows.append(("recall", entry.class_name, entry.recall))
        rows.append(("f1", entry.class_name, entry.f1))
        rows.append(("n_predicted", entry.class_name, entry.n_predicted))
        rows.append(("n_actual", entry.class_name, entry.n_actual))
    if report.error_detection is not None:
        rows.append(("error_precision", "", report.error_detection.precision))
        rows.append(("error_recall", "", report.error_detection.recall))
        rows.append(("error_f1", "", report.error_detection.f1))
    write_csv_rows(path, ("metric", "class", "value"), rows)


def _header(record_type) -> list[str]:
    """CSV header of a result record: its field names, ``class_name`` as ``class``."""
    return ["class" if f.name == "class_name" else f.name for f in fields(record_type)]


def write_sweep(path, rows: Sequence[SweepRow]) -> None:
    write_csv_rows(path, _header(SweepRow), map(astuple, rows))


def write_unseen(path, rows: Sequence[UnseenRow]) -> None:
    write_csv_rows(path, _header(UnseenRow), map(astuple, rows))


def write_theorem_reports(path, reports: Sequence[TheoremReport]) -> None:
    """One row per report, with the verdict as 0/1 in a ``passed`` column
    before the note."""
    header = _header(TheoremReport)
    rows = ((*astuple(r)[:-1], int(r.passed), r.note) for r in reports)
    write_csv_rows(path, [*header[:-1], "passed", "note"], rows)


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def write_manifest(
    out_dir,
    command: str,
    config: Mapping,
    input_paths: Sequence[Path | str] = (),
    output_paths: Sequence[Path | str] = (),
    seed: int | None = None,
) -> Path:
    from . import __version__

    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": dict(config),
        "inputs": {Path(p).name: sha256_file(p) for p in input_paths},
        "outputs": {Path(p).name: sha256_file(p) for p in output_paths},
    }
    path = Path(out_dir) / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
