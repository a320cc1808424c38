"""File formats and persistence: predictions/conditions CSV, YAML rule sets,
result tables, and run manifests.

All writers are atomic (temp file + rename in the target directory) so a
failed run never leaves a partial artifact, and all output is deterministic
given the same inputs.

Predictions, conditions and trace files are read by one byte scanner first.
It takes the plain layout the writers write for ordinary ids and names: a
file with no ``"``, ``\\r`` or NUL byte, in which ``csv.reader`` ends records
at ``\\n`` and fields at ``,``.  It reads blocks of 256 KiB, splits them at
``\\n`` and carries the unfinished last record into the next block.  A file
read against a table (conditions, traces) is scanned only when its ids are
the table's ids in order, as every writer writes them, compared as UTF-8
bytes (:func:`_id_bytes`); only the predictions reader, which has no table,
decodes ids.  The ``,0``/``,1`` cells of conditions are read as
little-endian 16-bit values, 0x302C and 0x312C, and checked with one compare
per block; their bits go block by block into the matrix's words.  In
predictions and traces, the text after each id is coded as one string, so
it is split and decoded once per distinct value.
Predictions and traces state their cell rules once, each in a
``_CellRules``: the scanner applies them to the distinct values of each
column, and the row parser to each row.  Anything else (a quote, ``\\r`` or
NUL anywhere, a bad width or bit, an empty id, a cell that breaks its
format's rules, ids that are not the table's in order, or a table id that
is no plain field) sends the whole file to the row parser, built on
``csv.reader``: the single fallback, which reads every other valid CSV
layout and names the line of every fault.  Of the row parsers, only the
conditions one matches rows by id; a trace lists its table's ids in order.

While a command runs (:func:`_digesting`), a worker thread digests each
chunk the readers read (:func:`_open`) while they parse it, and a file's
last complete read gives the digest its manifest records, so no input is
read twice.  Outside a command the readers digest nothing.

The predictions and trace writers keep each column as int codes into its
distinct names until the text is built.  When every id is a plain field
(:func:`_id_bytes`) and no name holds a separator, quote, ``\\r`` or NUL, the
text after each id is joined once per distinct row of codes and the ids and
texts are interleaved into one join; otherwise they run ``csv.writer``,
quoting a row that holds ``\\r`` whole, as every other writer does.
``write_conditions`` builds its bit cells as bytes when no id needs quoting,
so every file is byte-identical to what ``csv.writer`` writes (or fails as
it does: Python 3.10's rejects NUL).

Rule sets load and dump through PyYAML's pure-Python ``safe_load`` and
``safe_dump``, even where PyYAML has libyaml: its loader reads documents the
pure one rejects (a tab after a plain scalar) and crashes the process on a
document nested some 25,000 deep, and its dumper writes a key holding
``\\r`` as a complex ``?`` key, so ``ruleset.yaml`` would change bytes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import stat
import tempfile
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple, fields
from datetime import datetime, timezone
from io import FileIO, StringIO, TextIOWrapper
from itertools import chain
from pathlib import Path
from queue import SimpleQueue
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
    _id_columns,
    _Packed,
    _rank_rows,
    _require_aligned,
    check_names,
)
from .evaluate import MetricsReport, SweepRow, UnseenRow
from .rules import ApplyTrace, CorrectionRule, DetectionRule, RuleSet
from .theory import TheoremReport

RULESET_FORMAT_VERSION = 1
TRACE_HEADER = ["sample_id", "original", "flagged", "fired", "final"]
_BITS = frozenset(("0", "1"))
_SCAN_BLOCK = 1 << 18  # 256 KiB; larger blocks raised peak RSS on 15-column files
_TEXT_CHUNK = 1 << 18  # the row parser's reads; not 8 KiB, as each waits for the digest of the one before
_OPEN: ContextVar[Callable[[str], FileIO]] = ContextVar("_OPEN", default=FileIO)  # _Digested in a command


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


@contextmanager
def _digesting():
    """Digest each input as it is read while the block runs (see the module
    docstring); yields the SHA-256 of each input by ``str(Path(path))``."""
    jobs, digests = SimpleQueue(), {}

    def run_updates():
        for digest, chunk, idle in iter(jobs.get, None):
            digest.update(chunk)  # hashlib releases the GIL on chunks over 2 KiB
            del chunk  # so the reading thread frees it
            idle.release()

    # not inline hashing (learn_m271 0.140 vs 0.129 s) nor ThreadPoolExecutor(1) (apply_n100k +2.4 MB RSS)
    worker = threading.Thread(target=run_updates)
    worker.start()
    token = _OPEN.set(lambda path: _Digested(path, jobs, digests))
    try:
        yield digests
    finally:
        _OPEN.reset(token)
        jobs.put(None)
        worker.join()


class _Digested(FileIO):
    """A file whose chunks the worker of :func:`_digesting` digests as they
    are read; each read first waits for the update of the chunk before, so
    one chunk at most is in flight, and at end of file keeps the digest."""

    def __init__(self, path: str, jobs: SimpleQueue, digests: dict[str, str]) -> None:
        super().__init__(path)
        self._jobs, self._digests, self._digest, self._idle = jobs, digests, hashlib.sha256(), threading.Lock()

    def read(self, size: int = -1) -> bytes:
        self._idle.acquire()  # the update of the chunk before has run and let it go
        self._chunk = super().read(size)  # so this thread frees that chunk here
        if not self._chunk:  # end of file
            self._digests[self.name] = self._digest.hexdigest()
        self._jobs.put((self._digest, self._chunk, self._idle))
        return self._chunk


def _open(path: Path) -> FileIO:
    return _OPEN.get()(str(path))


def _parse_error(path, line_no: int, message: str) -> DataError:
    return DataError(f"{path}:{line_no}: {message}")


def write_csv_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file atomically with ``\\n`` line endings.  A field holding a
    comma, quote or line break is quoted; floats are written with ``repr``."""
    atomic_write_text(path, _csv_text([header, *rows]))


def _write_coded(path, header: Sequence[str], table: PredictionTable, codes, names) -> None:
    """:func:`write_csv_rows` of ``table.sample_ids`` and a cell per column of
    ``codes``, ``names[j][codes[j]]``, written as the module docstring says."""
    row_codes, rows = _rank_rows(codes, list(map(len, names)))
    cells = list(zip(*(np.array(labels, dtype=object)[column[rows]] for column, labels in zip(codes, names))))
    if _id_bytes(table) is None or not set(',"\r\n\0').isdisjoint("".join(chain(*names))):
        records = ((sample_id, *cells[code]) for sample_id, code in zip(table.sample_ids, row_codes.tolist()))
        return write_csv_rows(path, header, records)
    tails = np.array([",".join(("", *row)) + "\n" for row in cells], dtype=object)
    parts = [""] * (2 * table.n)
    parts[0::2], parts[1::2] = table.sample_ids, tails[row_codes].tolist()
    atomic_write_text(path, ",".join(header) + "\n" + "".join(parts))


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
    that are not UTF-8 and malformed CSV are data errors.  Readers come here
    after the scanner gave the file up, so a pipe, which cannot be read again, is one too."""
    if stat.S_ISFIFO(os.stat(path).st_mode):
        raise DataError(f"{path}: a pipe the byte scanner refuses cannot be read a second time; use a file")
    try:
        with TextIOWrapper(_open(path), encoding="utf-8", newline="") as handle:
            handle._CHUNK_SIZE = _TEXT_CHUNK  # fixed, so which fault a file reports first is not the scanner's block
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise _parse_error(path, 1, "empty file")
            yield header, reader
    except (csv.Error, UnicodeDecodeError) as err:
        raise DataError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# The byte scanner shared by the predictions, conditions and trace readers
# ---------------------------------------------------------------------------


class _Unscannable(Exception):
    """A file outside the plain layout; the reader falls back to its row parser."""


def _scan_records(path: Path):
    """Split a file in the plain layout into records at its ``\\n`` bytes, one
    block at a time.  Yields the header's fields, then per block ``(data,
    starts, stops)``: its bytes and the bounds of its non-blank records, less
    the line break.  A quote, ``\\r`` or NUL raises :class:`_Unscannable`."""
    tail, at_end, header = b"", False, True
    with _open(path) as handle:
        while not at_end:
            # a record longer than a block doubles the next read, so the scan stays linear
            chunk = handle.read(max(_SCAN_BLOCK, len(tail)))
            at_end = not chunk
            buf = tail + (chunk or b"\n")  # end of file ends a last record without a line break
            if b'"' in buf or b"\r" in buf or b"\0" in buf:  # the bytes that steer csv.reader
                raise _Unscannable
            data = np.frombuffer(buf, dtype=np.uint8)
            stops = np.flatnonzero(data == 0x0A)
            if not len(stops):
                tail = buf
                continue
            tail = buf[stops[-1] + 1 :]
            starts = np.concatenate(([0], stops[:-1] + 1))
            if header:
                yield next(csv.reader([buf[: stops[0]].decode()]), [])
                header, starts, stops = False, starts[1:], stops[1:]
            filled = stops > starts  # blank lines are skipped, as csv.reader yields them empty
            yield data, starts[filled], stops[filled]


def _joined(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> bytes:
    """The ranges ``data[starts[j]:stops[j]]``, each ended by a NUL, joined."""
    lengths = stops + 1 - starts  # each range and the byte after it, which becomes the NUL
    ends = np.cumsum(lengths)
    joined = data[np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())]
    joined[ends - 1] = 0
    return joined.tobytes()


def _id_bytes(table: PredictionTable) -> bytes | None:
    """The table's sample ids as UTF-8, each ended by a NUL, or None when one
    is not a plain field: it holds a separator, quote, line break or NUL."""
    ids = "\0".join([*table.sample_ids, ""]).encode()
    return None if ids.count(0) != table.n or any(c in ids for c in b',"\r\n') else ids


def _scan_columns(path: Path, headers: Sequence[list[str]], table: PredictionTable | None):
    """The sample ids and :func:`_coded` cell columns of a file in the plain
    layout (see the module docstring) whose header is one of ``headers``;
    None as soon as a record is not in it.  Read against ``table``, the ids
    must be :func:`_id_bytes` of it and are its ``sample_ids``; with no table
    they are decoded once.  The text after each id is coded as one string,
    so cells are split and decoded once per distinct string."""
    try:
        records = _scan_records(path)
        header = next(records)
        if header not in headers:
            return None
        ids, tails = [], []  # per block its joined ids, and per record the text after its id
        for data, starts, stops in records:
            commas = np.flatnonzero(data == 0x2C)
            first = np.searchsorted(commas, stops) - (len(header) - 1)  # the comma after each id
            if (first < 0).any() or (commas[first] <= starts).any():  # too few fields, or an empty id
                raise _Unscannable  # which the row parser names by its line
            if (commas[first] - starts > csv.field_size_limit()).any():  # an id csv.reader rejects
                raise _Unscannable
            ids.append(_joined(data, starts, commas[first]))
            tails += _joined(data, commas[first] + 1, stops).split(b"\0")[:-1]
        joined = b"".join(ids)
        if b"," in joined or (table is not None and joined != _id_bytes(table)):
            return None  # an id holding a comma is a row of the wrong width
        sample_ids = joined.decode().split("\0")[:-1] if table is None else table.sample_ids
        tail_codes, distinct = _coded(tails)
        rows = [tail.decode().split(",") for tail in distinct]
        if any(len(cell) > csv.field_size_limit() for cell in chain(*rows)):
            raise _Unscannable
    except (_Unscannable, UnicodeDecodeError, csv.Error):
        return None
    columns = [_coded(values) for values in zip(*rows)] or [_coded(())] * (len(header) - 1)
    return sample_ids, [(by_tail[tail_codes], names) for by_tail, names in columns]


class _CellRules(NamedTuple):
    """A format's rules: the headers it takes, the fault of any other header
    (formatted with the header found), of a row of the wrong width (with the
    widths expected and found) and of a cell given its column ("" if valid)."""

    headers: tuple[list[str], ...]
    bad_header: str
    bad_width: str
    cell_fault: Callable[[int, str], str]


def _read_columns(path: Path, rules: _CellRules, table: PredictionTable | None):
    """The sample ids and :func:`_coded` cell columns of a file in the format
    of ``rules``, read against ``table`` if given, whose ``sample_ids`` it
    then lists in order.  The scanner's columns are taken when every
    distinct value in them passes the cell rules; otherwise the row parser
    reads the file with ``csv.reader``, applies the rules per row and names
    the line of the first fault, then the first row whose id is not the
    table's or the first table id the file lacks."""
    scanned = _scan_columns(path, rules.headers, table)
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
    if table is not None and ids != table.sample_ids:
        i = next((i for i, (a, b) in enumerate(zip(ids, table.sample_ids)) if a != b), min(len(ids), table.n))
        if i == len(ids):
            raise DataError(f"{path} lacks sample id {table.sample_ids[i]!r}")
        raise DataError(f"{path}: row {i + 1} has sample id {ids[i]!r}, not the table's id on that row")
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
    the sorted distinct predicted names (UNKNOWN excluded).  The table checks
    that no id repeats, after the faults of the pred column; a repeated id
    is a :class:`DataError` naming ``path``."""
    path = Path(path)
    ids, (pred, *gt) = _read_columns(path, _PREDICTIONS, None)
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
    try:  # the table owns the rules on its ids, such as no repeat
        return PredictionTable(classes, ids, *_id_columns(classes, pred, gt[0] if gt else None))
    except ContractError as err:
        raise DataError(f"{path}: {err}") from None


def write_predictions(path, table: PredictionTable) -> None:
    codes = [column + 1 for column in (table.pred_ids, table.gt_ids) if column is not None]
    _write_coded(path, ["sample_id", "pred", "gt"][: 1 + len(codes)], table, codes, [table._labels] * len(codes))


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
    try:
        return check_names("condition name", header[1:])
    except ContractError as err:
        raise _parse_error(path, 1, str(err)) from None


def _scan_conditions(path: Path, table: PredictionTable) -> ConditionMatrix | None:
    """The byte scanner: the condition matrix of a file in the plain layout
    (see the module docstring) whose records list ``table.sample_ids`` in
    order, or None as soon as one record is not.  Each block's ids, each
    ended by a NUL, must be the next bytes of :func:`_id_bytes`, so every id
    has the table id's bytes and length.  Cells are read as ``<u2``, in which
    ``,0`` is 0x302C and ``,1`` is 0x312C.  Each block's bits go through one
    reused (m, rows) bool buffer into the next bytes of the ``<u8`` words;
    the rows of a byte left unfilled stay at the buffer's front and are
    packed again with the next block, the last byte zero-padded."""
    rows, at = 0, 0  # the table rows, and the bytes of their ids, read so far
    try:
        ids = _id_bytes(table) or b""  # a table id that is no plain field matches no record
        records = _scan_records(path)
        names = _condition_names(path, next(records))
        words = np.zeros((len(names), max(1, -(-table.n // 64))), dtype="<u8")
        bits = np.empty((len(names), 0), dtype=bool)
        width = 2 * len(names)  # the ,0 and ,1 cells after an id
        for data, starts, stops in records:
            if not len(starts):
                continue  # a block of blank lines, maybe shorter than a window
            lengths = stops - width - starts
            if lengths.min() < 0 or lengths.max() > csv.field_size_limit():
                raise _Unscannable  # too few fields, or an id csv.reader rejects
            joined = _joined(data, starts, stops - width)
            cells = sliding_window_view(data, width)[stops - width].view("<u2")
            if ids[at : at + len(joined)] != joined or ((cells | 0x0100) != 0x312C).any():
                raise _Unscannable  # an id out of the table's order, or a cell that is not ,0 or ,1
            carry, end = rows % 8, rows % 8 + len(starts)  # ids in order, so rows never pass table.n
            if bits.shape[1] < end:
                bits = np.concatenate((bits[:, :carry], np.empty((len(names), len(starts) + 8), dtype=bool)), axis=1)
            np.equal(cells.T, 0x312C, out=bits[:, carry:end])
            packed = np.packbits(bits[:, :end], axis=1, bitorder="little")
            words.view(np.uint8)[:, rows // 8 : rows // 8 + packed.shape[1]] = packed
            bits[:, : end % 8] = bits[:, end - end % 8 : end]
            rows, at = rows + len(starts), at + len(joined)
    except (_Unscannable, UnicodeError, csv.Error, DataError):
        return None
    return ConditionMatrix(names, _Packed(words, rows)) if rows == table.n else None


def _parse_conditions(path: Path, table: PredictionTable) -> ConditionMatrix:
    """The row parser: reads any valid CSV layout and names the line of every fault."""
    position: dict[str, int] = {}
    bits: list[str] = []
    with _csv_file(path) as (header, reader):
        names = _condition_names(path, header)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise _parse_error(path, line_no, f"expected {len(header)} fields, got {len(row)}")
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
    pairs and a line break, and the ids and rows are joined in turn; ids that
    ``csv.writer`` would quote (or reject) send the file to
    :func:`write_csv_rows`.  A matrix with no conditions is a
    :class:`ContractError`, since its file would be a bare ``sample_id``
    header, which :func:`read_conditions` rejects."""
    _require_aligned(table, conds)
    if not conds.n_conditions:
        raise ContractError("a condition matrix with no conditions cannot be written")
    header = ("sample_id", *conds.condition_names)
    ids, m, bits = _id_bytes(table), conds.n_conditions, conds.values.view(np.uint8)
    if ids is None:
        return write_csv_rows(path, header, zip(table.sample_ids, *bits.T.tolist()))
    cells = np.empty((table.n, 2 * m + 1), dtype=np.uint8)
    cells[:, :-1:2] = ord(",")
    cells[:, 1::2] = bits + ord("0")
    cells[:, -1] = ord("\n")
    parts = [b""] * (2 * table.n)
    parts[0::2], parts[1::2] = ids.split(b"\0")[:-1], cells.view(f"S{2 * m + 1}").ravel().tolist()
    atomic_write_text(path, _csv_text([header]) + b"".join(parts).decode())


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
    def pair(item) -> tuple[str, int]:
        if not isinstance(item, list):  # a string would unpack by characters
            raise ContractError(f"a correction pair must be a [condition, class] list, got {item!r}")
        cond, cls = item
        return cond, classes.index(cls)

    try:
        version = data["format_version"]
        if type(version) is not int or version != RULESET_FORMAT_VERSION:
            raise DataError(f"unsupported ruleset format version {version!r}")
        classes = ClassSet(data["classes"])
        detection = tuple(
            DetectionRule(
                target=classes.index(entry["class"]),
                conditions=entry["conditions"],
                class_support=entry["class_support"],
                confidence=entry["confidence"],
            )
            for entry in data.get("detection_rules", [])
        )
        correction = tuple(
            CorrectionRule(
                target=classes.index(entry["class"]),
                pairs=tuple(map(pair, entry["pairs"])),
                support=entry["support"],
                confidence=entry["confidence"],
            )
            for entry in data.get("correction_rules", [])
        )
        return RuleSet(
            classes=classes,
            condition_names=data["conditions"],
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
        with TextIOWrapper(_open(path), encoding="utf-8") as handle:  # named by path in YAML's marks
            data = yaml.safe_load(handle)
    except (yaml.YAMLError, ValueError, RecursionError) as err:
        # bytes that are not UTF-8, and an escape or a date out of range, are
        # ValueErrors; nesting too deep for the composer is a RecursionError
        raise DataError(f"{path}: invalid YAML: {err}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: ruleset document must be a mapping")
    return ruleset_from_dict(data)


# ---------------------------------------------------------------------------
# Traces and result tables
# ---------------------------------------------------------------------------


def write_trace(path, trace: ApplyTrace) -> None:
    """Write ``trace`` with one row per row of its table: the sample id, the
    original class (the table's prediction), the flag, the fired targets and
    the final class."""
    table, labels = trace.table, trace.table._labels
    codes = [table.pred_ids + 1, trace.flagged.view(np.uint8), trace.fired, trace.final + 1]
    _write_coded(path, TRACE_HEADER, table, codes, [labels, ("0", "1"), trace.fired_names, labels])


def _trace_fault(column: int, cell: str) -> str:
    valid = cell in _BITS if column == 2 else bool(cell) or column == 3  # only fired may be empty
    return "" if valid else "malformed trace row"


_TRACE = _CellRules(
    (TRACE_HEADER,), "expected header " + ",".join(TRACE_HEADER), "malformed trace row", _trace_fault
)


def read_trace(path, table: PredictionTable) -> ApplyTrace:
    """Read a trace CSV written by :func:`write_trace` with its rows in the
    order of ``table``, whose checked ``sample_ids`` (``core._SampleIds``) its table shares.

    The file lists the table's ids in order, as ``edcr apply`` writes it; a
    file in the plain layout is scanned without decoding an id, and the row
    parser reads any other.  A row whose id is not the table's on that row,
    or a table id past the file's last row, is a :class:`DataError` naming
    ``path`` (:func:`_read_columns`).  The trace's table holds the
    original column as its predictions and the ground truth of ``table``, if
    any, matched by name.  An original or final class outside
    ``table.classes`` extends its class set after them, in sorted order: a
    class the revised file no longer predicts, or a correction target that
    the batch never predicts."""
    _, (original, flagged, fired, final) = _read_columns(Path(path), _TRACE, table)
    names = table.classes.names
    traced = ClassSet((*names, *sorted(set(original[1]).union(final[1]).difference(names, [UNKNOWN_NAME]))))
    gt = None if table.gt_ids is None else (table.gt_ids, names + table.novel_names)
    return ApplyTrace(
        PredictionTable(traced, table.sample_ids, *_id_columns(traced, original, gt)),
        np.array([name == "1" for name in flagged[1]], dtype=bool)[flagged[0]],
        *fired,
        _id_columns(traced, final)[0],
    )


def write_metrics(path, report: MetricsReport) -> None:
    rows: list[tuple] = [
        ("n_samples", "", report.n_samples),
        ("scoring_mode", "", report.mode.value),
        ("accuracy", "", report.accuracy),
        ("accuracy_strict", "", report.accuracy_strict),
        ("accuracy_novel_aware", "", report.accuracy_novel_aware),
    ]
    stats = report.stats
    for i, name in enumerate(stats.classes.names):
        for metric in ("precision", "recall", "f1", "n_predicted", "n_actual"):
            rows.append((metric, name, getattr(stats, metric)[i].item()))
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
    inputs: Mapping[str, dict] | None = None,
    output_paths: Sequence[Path | str] = (),
    seed: int | None = None,
) -> Path:
    """Write ``manifest.json`` into ``out_dir``.  ``inputs`` is recorded as
    given, each input flag mapped to the path and digest of what was read;
    each of ``output_paths`` is digested here, under its file name."""
    from . import __version__

    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": dict(config),
        "inputs": dict(inputs or {}),
        "outputs": {Path(p).name: sha256_file(p) for p in output_paths},
    }
    path = Path(out_dir) / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
