"""File formats and persistence: predictions/conditions/trajectories CSV,
YAML rule sets, result tables, and run manifests.

All writers are atomic (temp file + rename in the target directory) so a
failed run never leaves a partial artifact, and all output is deterministic
given the same inputs.

Conditions files are read by a byte scanner first.  It reads the file in
blocks of 256 KiB and splits records at the ``\\n`` bytes outside quotes,
taking each one's quote parity from ``np.searchsorted`` over the block's
quote positions; the unfinished last record of a block is carried into the
next.  A record must end in ``2*m`` bytes of ``,0``/``,1`` pairs, checked
with one ``uint16`` compare per block, before an optional ``\\r``.
Only the sample-id segment in front of them is decoded, and it must be one
CSV field whose quotes are all structural: unquoted without ``,``, ``"``,
``\\r`` or NUL, or quoted with inner quotes doubled.  That rule is what
makes the quote-parity split agree with ``csv.reader``.  Each block's bits
are scattered straight into one preallocated ``(n, m)`` matrix in table
order, so the file is never held whole, only a block and the record it
cuts.  The layout ``write_conditions`` writes, with ``\\n`` or ``\\r\\n``
line ends, takes this path unless an id holds ``\\r``.  When any record is
outside that layout or faulty (a quoted bit cell, a bare ``\\r`` line end,
a bad width or bit, an unknown, repeated or missing id, an empty or
repeated condition name), the scanner gives up and the row parser, built on
``csv.reader``, reads the whole file again.  It accepts every other valid
CSV layout and names the line of every fault.
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
from dataclasses import astuple, dataclass, fields
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from .core import (
    UNKNOWN_NAME,
    ClassSet,
    ConditionMatrix,
    ContractError,
    DataError,
    PredictionTable,
    check_unit_interval,
    id_column,
    name_column,
)
from .conditions import TrajectoryRecord
from .evaluate import MetricsReport, SweepResult, SweepRow, UnseenResult, UnseenRow
from .rules import ApplyTrace, CorrectionRule, DetectionRule, RuleSet
from .theory import TheoremReport

RULESET_FORMAT_VERSION = 1
TRACE_HEADER = ["sample_id", "original", "flagged", "fired", "final"]
_BITS = frozenset(("0", "1"))
_BIT_TEXT = np.array(["0", "1"], dtype=object)
_SCAN_BLOCK = 1 << 18  # 256 KiB; larger blocks raised peak RSS on 15-column files
# a sample-id segment the scanner decodes: unquoted without a comma, quote,
# carriage return or NUL, or one quoted field whose quotes are all structural
# (NUL is left to the row parser because Python 3.10's csv.reader rejects it)
_ID_FIELD = re.compile(rb'[^",\r\n\x00]*|"(?:[^"\x00]|"")*"')
_ONE_CELL = int(np.frombuffer(b",1", dtype="<u2")[0])  # ",0" | 0x0100 is ",1" too


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
    rows = list(rows)
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if "\r" in text:  # csv.writer only quotes the characters of its line terminator
        buffer = StringIO()
        plain = csv.writer(buffer, lineterminator="\n")
        quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in [header, *rows]:
            (quoted if any("\r" in str(value) for value in row) else plain).writerow(row)
        text = buffer.getvalue()
    atomic_write_text(path, text)


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
# Predictions: sample_id,pred[,gt]
# ---------------------------------------------------------------------------


def read_predictions(path, classes: ClassSet | None = None) -> PredictionTable:
    """Read a predictions CSV (header ``sample_id,pred`` or
    ``sample_id,pred,gt``).  Without an explicit class set, the classes are
    the sorted distinct predicted names (UNKNOWN excluded)."""
    path = Path(path)
    ids: list[str] = []
    preds: list[str] = []
    gts: list[str] = []
    with _csv_file(path) as (header, reader):
        if header[:2] != ["sample_id", "pred"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "gt"
        ):
            raise _parse_error(path, 1, f"expected header sample_id,pred[,gt]; got {','.join(header)}")
        has_gt = len(header) == 3
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            _check_width(path, line_no, row, len(header))
            if not row[0]:
                raise _parse_error(path, line_no, "empty sample id")
            if not row[1]:
                raise _parse_error(path, line_no, "empty predicted value")
            ids.append(row[0])
            preds.append(row[1])
            if has_gt:
                if not row[2]:
                    raise _parse_error(path, line_no, "empty ground-truth value")
                gts.append(row[2])
    if len(set(ids)) != len(ids):
        dupes = sorted(s for s, count in Counter(ids).items() if count > 1)
        raise DataError(f"{path}: duplicate sample ids: {dupes[:5]}")
    predicted = set(preds)
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
    return PredictionTable.from_names(classes, ids, preds, gts if has_gt else None)


def write_predictions(path, table: PredictionTable) -> None:
    columns = [table.sample_ids, table.names(table.pred_ids)]
    if table.has_ground_truth:
        columns.append(table.names(table.gt_ids))
    header = ["sample_id", "pred", "gt"][: len(columns)]
    write_csv_rows(path, header, zip(*columns))


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
    names: tuple[str, ...] | None = None
    tail = b""
    at_end = False
    with open(path, "rb") as handle:
        while not at_end:
            # a record longer than a block doubles the next read, so the scan stays linear
            chunk = handle.read(max(_SCAN_BLOCK, len(tail)))
            at_end = not chunk
            buf = tail + (chunk or b"\n")  # end of file ends a last record without a line break
            data = np.frombuffer(buf, dtype=np.uint8)
            newlines = np.flatnonzero(data == 0x0A)
            quotes = np.flatnonzero(data == 0x22)
            ends = newlines[np.searchsorted(quotes, newlines) % 2 == 0]
            if not len(ends):
                tail = buf
                continue
            tail = buf[ends[-1] + 1 :]
            starts = np.concatenate(([0], ends[:-1] + 1))
            if names is None:
                try:
                    names = _condition_names(path, next(csv.reader([buf[: ends[0]].decode()])))
                except (csv.Error, UnicodeDecodeError, DataError):
                    return None
                values = np.zeros((table.n, len(names)), dtype=bool)
                starts, ends = starts[1:], ends[1:]
            block = _scan_block(buf, data, starts, ends, len(names), unclaimed)
            if block is None:
                return None
            rows, bits = block
            values[rows] = bits
    if tail or names is None or unclaimed:
        return None
    return ConditionMatrix(names, values)


def _scan_block(buf: bytes, data: np.ndarray, starts, ends, m: int, unclaimed: dict[str, int]):
    """Table rows and bits of the records ``buf[starts[j]:ends[j]]`` (line
    breaks excluded), claiming each id from ``unclaimed``; None when a record
    is outside the scanned layout or names an unknown or repeated id."""
    stops = ends - (data[ends - 1] == 0x0D)  # an empty record's stop may fall before its start
    filled = stops > starts  # blank lines are skipped, as csv.reader yields them empty
    starts, stops = starts[filled], stops[filled]
    id_stops = stops - 2 * m
    if (id_stops < starts).any() or (id_stops - starts > csv.field_size_limit()).any():
        return None
    fullmatch, claim = _ID_FIELD.fullmatch, unclaimed.pop
    rows = []
    try:
        for start, stop in zip(starts.tolist(), id_stops.tolist()):
            if not fullmatch(buf, start, stop):
                return None
            sample_id = buf[start:stop].decode()
            if sample_id[:1] == '"':
                sample_id = sample_id[1:-1].replace('""', '"')
            rows.append(claim(sample_id, -1))  # -1: an unknown or repeated id
    except UnicodeDecodeError:
        return None
    if -1 in rows:
        return None
    cells = b"".join([buf[start:stop] for start, stop in zip(id_stops.tolist(), stops.tolist())])
    pairs = np.frombuffer(cells, dtype="<u2").reshape(len(rows), m)
    if ((pairs | 0x0100) != _ONE_CELL).any():
        return None
    return rows, pairs == _ONE_CELL


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
    if conds.n_rows != table.n:
        raise ContractError("condition matrix and table row counts differ")
    cells = np.empty((table.n, conds.n_conditions + 1), dtype=object)
    cells[:, 0] = table.sample_ids
    cells[:, 1:] = _BIT_TEXT[conds.values.view(np.uint8)]
    write_csv_rows(path, ("sample_id", *conds.condition_names), cells.tolist())


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
    return {
        "format_version": RULESET_FORMAT_VERSION,
        "classes": list(rule_set.classes.names),
        "conditions": list(rule_set.condition_names),
        "epsilon": rule_set.epsilon,
        "detection_rules": [
            {
                "class": rule.target.name,
                "conditions": list(rule.conditions),
                "class_support": rule.class_support,
                "confidence": rule.confidence,
            }
            for rule in rule_set.detection_rules
        ],
        "correction_rules": [
            {
                "class": rule.target.name,
                "pairs": [[cond, cls.name] for cond, cls in rule.pairs],
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
                target=classes.label(entry["class"]),
                conditions=tuple(entry["conditions"]),
                class_support=entry["class_support"],
                confidence=entry["confidence"],
            )
            for entry in data.get("detection_rules", [])
        )
        correction = tuple(
            CorrectionRule(
                target=classes.label(entry["class"]),
                pairs=tuple((cond, classes.label(cls)) for cond, cls in entry["pairs"]),
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
    write_csv_rows(path, TRACE_HEADER, zip(*columns))


def read_trace(path, classes: ClassSet) -> ApplyTrace:
    """Read a trace CSV written by :func:`write_trace`.

    Original classes must lie in ``classes`` (or be UNKNOWN).  A final class
    outside it, the target of a correction that this batch never predicts,
    extends the trace's class set after ``classes``."""
    path = Path(path)
    lookup = {name: i for i, name in enumerate(classes.names)}
    lookup[UNKNOWN_NAME] = -1
    rows: list[list[str]] = []
    with _csv_file(path) as (header, reader):
        if header != TRACE_HEADER:
            raise _parse_error(path, 1, "expected header " + ",".join(TRACE_HEADER))
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_HEADER) or row[2] not in _BITS:
                raise _parse_error(path, line_no, "malformed trace row")
            if row[1] not in lookup:
                raise _parse_error(path, line_no, f"original class {row[1]!r} is not one of {classes.names}")
            rows.append(row)
    sample_ids, original, flagged, fired, final = map(tuple, zip(*rows)) if rows else [()] * 5
    if len(set(sample_ids)) != len(sample_ids):
        raise DataError(f"{path}: duplicate sample ids")
    extra = tuple(sorted(set(final).difference(lookup)))
    lookup.update(zip(extra, range(len(classes), len(classes) + len(extra))))
    fired_names = tuple(dict.fromkeys(fired))
    return ApplyTrace(
        ClassSet(classes.names + extra),
        sample_ids,
        id_column(lookup, original, "original"),
        np.array(flagged, dtype="U1") == "1",
        id_column(dict(zip(fired_names, range(len(fired_names)))), fired, "fired"),
        fired_names,
        id_column(lookup, final, "final"),
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


def write_sweep(path, result: SweepResult) -> None:
    write_csv_rows(path, _header(SweepRow), map(astuple, result.rows))


def write_unseen(path, result: UnseenResult) -> None:
    write_csv_rows(path, _header(UnseenRow), map(astuple, result.rows))


def write_theorem_reports(path, reports: Sequence[TheoremReport]) -> None:
    """One row per report, with the verdict as 0/1 in a ``passed`` column
    before the note."""
    header = _header(TheoremReport)
    rows = ((*astuple(r)[:-1], int(r.passed), r.note) for r in reports)
    write_csv_rows(path, [*header[:-1], "passed", "note"], rows)


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written once per output directory."""

    command: str
    version: str
    timestamp: str
    seed: int | None
    config: dict
    inputs: dict[str, str]
    outputs: dict[str, str]


def write_manifest(
    out_dir,
    command: str,
    config: Mapping,
    input_paths: Sequence[Path | str] = (),
    output_paths: Sequence[Path | str] = (),
    seed: int | None = None,
) -> Path:
    from . import __version__

    out_dir = Path(out_dir)
    manifest = RunManifest(
        command=command,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        seed=seed,
        config=dict(config),
        inputs={Path(p).name: sha256_file(p) for p in input_paths},
        outputs={Path(p).name: sha256_file(p) for p in output_paths},
    )
    path = out_dir / "manifest.json"
    atomic_write_text(path, json.dumps(manifest.__dict__, indent=2, sort_keys=True) + "\n")
    return path
