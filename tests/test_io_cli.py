import argparse
import contextvars
import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import threading
from collections import Counter
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings, strategies as st

from edcr import (
    ApplyTrace,
    ClassSet,
    ConditionMatrix,
    ContractError,
    CorrectionRule,
    DataError,
    DegenerateStatsError,
    DetectionRule,
    EdcrError,
    PredictionTable,
    RuleSet,
    UNKNOWN_NAME,
    UnknownClassError,
    UnknownConditionError,
    VerificationError,
    apply_ruleset,
    generate_synthetic,
)
from edcr import cli, core, io
from edcr.cli import main
from helpers import (
    fired_column,
    make_conds,
    make_table,
    reference_read_conditions,
    reference_read_predictions,
    reference_read_trace,
    reference_scan_conditions,
    reference_write_csv_rows,
    same_table,
)


class TestPredictionsFormat:
    def test_roundtrip_with_gt(self, tmp_path):
        table = make_table(["a", "b"], ["a", "b", UNKNOWN_NAME], ["a", "novel", "b"])
        path = tmp_path / "p.csv"
        io.write_predictions(path, table)
        back = io.read_predictions(path, classes=table.classes)
        assert same_table(back, table)

    def test_roundtrip_without_gt(self, tmp_path):
        table = make_table(["a", "b"], ["a", "b"])
        path = tmp_path / "p.csv"
        io.write_predictions(path, table)
        back = io.read_predictions(path)
        assert same_table(back, table)

    def test_classes_inferred_sorted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred\nx,zebra\ny,ant\n")
        table = io.read_predictions(path)
        assert table.classes.names == ("ant", "zebra")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,prediction\nx,a\n")
        with pytest.raises(DataError, match=":1:"):
            io.read_predictions(path)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred\nx,a\nx,a\n")
        with pytest.raises(DataError, match="duplicate"):
            io.read_predictions(path)

    def test_pred_faults_come_before_repeated_ids(self, tmp_path):
        """The table alone checks that ids do not repeat, so the reader's
        faults of the pred column come first; repeated ids alone are still a
        data error naming the first id that repeats, in order of first
        appearance."""
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred\n" + "".join(f"{s},a\n" for s in "gfedcbagfedcba"))
        with pytest.raises(DataError) as err:
            io.read_predictions(path)
        assert str(err.value) == f"{path}: duplicate sample id 'g'"
        path.write_text("sample_id,pred\n1,a\n1,zz\n")
        with pytest.raises(ContractError) as err:
            io.read_predictions(path, ClassSet(("a", "b")))
        expected = f"{path}: predicted classes ['zz'] are not in the declared class set ('a', 'b')"
        assert str(err.value) == expected
        path.write_text(f"sample_id,pred\n1,{UNKNOWN_NAME}\n1,{UNKNOWN_NAME}\n")
        with pytest.raises(DataError) as err:
            io.read_predictions(path)
        assert str(err.value) == f"{path}: no predictable classes found in pred column"

    def test_field_count_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred,gt\nx,a,a\ny,a\n")
        with pytest.raises(DataError, match=":3:"):
            io.read_predictions(path)

    def test_empty_pred_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred,gt\nx,a,a\ny,,a\n")
        with pytest.raises(DataError, match=":3: empty predicted value"):
            io.read_predictions(path)

    def test_declared_classes_enforced(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred\nx,mystery\n")
        with pytest.raises(ContractError, match="mystery"):
            io.read_predictions(path, classes=ClassSet(("a",)))


class TestConditionsFormat:
    def test_roundtrip(self, tmp_path):
        table = make_table(["a"], ["a", "a"], ids=["s1", "s2"])
        conds = make_conds(["c1", "c2"], [[1, 0], [0, 1]])
        path = tmp_path / "c.csv"
        io.write_conditions(path, table, conds)
        back = io.read_conditions(path, table)
        assert back.condition_names == conds.condition_names
        assert np.array_equal(back.values, conds.values)

    def test_row_order_follows_table(self, tmp_path):
        table = make_table(["a"], ["a", "a"], ids=["s1", "s2"])
        path = tmp_path / "c.csv"
        path.write_text("sample_id,c\ns2,1\ns1,0\n")
        back = io.read_conditions(path, table)
        assert back.values[:, back.column_index("c")].tolist() == [False, True]

    @pytest.mark.parametrize("cell", ["{}", '"{}"'])
    @pytest.mark.parametrize(
        "names, message",
        [("c1,c1", "duplicate condition name 'c1'"), ("c1,,c2", "empty condition name in the sequence at index 1")],
    )
    def test_bad_condition_names(self, tmp_path, cell, names, message):
        # the plain layout and one with quoted bit cells, which the scanner declines
        table = make_table(["a"], ["a"], ids=["s1"])
        width = names.count(",") + 1
        path = tmp_path / "c.csv"
        path.write_text(f"sample_id,{names}\ns1" + f",{cell.format(0)}" * width + "\n")
        with pytest.raises(DataError, match=f":1: {message}"):
            io.read_conditions(path, table)


def conditions_file(tmp_path, ids, bits, newline="\n"):
    """A conditions file as ``csv.writer`` writes it with ``newline`` line
    ends, which for ``\\n`` is the layout of ``write_conditions``, and the
    table of its ids."""
    table = make_table(["a"], ["a"] * len(ids), ids=ids)
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow(["sample_id", *(f"c{j}" for j in range(len(bits[0])))])
    writer.writerows([sample_id, *np.asarray(row, dtype=int)] for sample_id, row in zip(ids, bits))
    path = tmp_path / "c.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    return path, table


def edited_conditions_file(tmp_path, ids, newline, edit):
    """:func:`conditions_file` of random bits with ``newline`` line ends and
    one ``edit``: none, blank lines, or no final line break.  Returns the
    path, the table and the bits."""
    bits = np.random.default_rng(0).random((len(ids), 3)) < 0.5
    path, table = conditions_file(tmp_path, ids, bits, newline)
    data, end = path.read_bytes(), newline.encode()
    if edit == "blank lines":
        header, rows = data.split(end, 1)
        data = header + end * 2 + rows + end
    elif edit == "no final line break":
        data = data.removesuffix(end)
    path.write_bytes(data)
    return path, table, bits


PLAIN_IDS = ["s1", " pad ", "é", "a;b", "x\ty", "日本", "𝄞"]  # ids of 1- to 4-byte UTF-8
QUOTED_IDS = ["s1", "x,y", 'q"uote', "line\nbreak", " pad ", "é"]
EDITS = ["none", "blank lines", "no final line break"]


class TestConditionsScanner:
    """The byte scanner of ``io.read_conditions`` against the ``csv.reader``
    reader it replaced (``helpers.reference_read_conditions``)."""

    @pytest.mark.parametrize("edit", EDITS)
    def test_writer_layout_is_scanned(self, tmp_path, edit):
        path, table, bits = edited_conditions_file(tmp_path, PLAIN_IDS, "\n", edit)
        scanned = io._scan_conditions(path, table)
        assert scanned is not None
        assert np.array_equal(scanned.values, bits)
        assert scanned.condition_names == ("c0", "c1", "c2")
        assert same_outcome(path, table)

    @pytest.mark.parametrize("edit", EDITS)
    @pytest.mark.parametrize(
        "ids, newline", [(QUOTED_IDS, "\n"), (PLAIN_IDS, "\r\n"), (QUOTED_IDS, "\r\n")]
    )
    def test_quoted_ids_and_crlf_go_to_the_row_parser(self, tmp_path, ids, newline, edit):
        path, table, bits = edited_conditions_file(tmp_path, ids, newline, edit)
        assert io._scan_conditions(path, table) is None
        assert same_outcome(path, table)
        assert np.array_equal(io.read_conditions(path, table).values, bits)

    @pytest.mark.parametrize(
        "text, sample_id",
        [
            ('sample_id,c\ns1,"1"\n', "s1"),  # quoted bit cell
            ("sample_id,c\rs1,1\r", "s1"),  # bare CR line ends
            ('sample_id,c\na"b,1\n', 'a"b'),  # literal quote inside an unquoted id
            ('sample_id,c\n"a"b,1\n', "ab"),  # text after a closing quote
            ('sample_id,c\n"a"b,1\n', 'a"'),  # the same, not to be read as a quoted 'a"'
            ("sample_id,c\na\rb,1\n", "a\rb"),  # a bare CR inside an unquoted id
            ("sample_id,c\ns1,2\n", "s1"),  # not a bit
            ('sample_id,c\ns1,1\n"x', "s1"),  # a last line left inside quotes
            ("sample_id,c\nx,y,1\n", "x,y"),  # a table id holding a comma, unquoted in the file
            ("sample_id,c\na\nb,1\n", "a\nb"),  # a table id holding a line break, unquoted in the file
            ("sample_id,c\na\0b,1\n", "a\0b"),  # a table id holding NUL, which the file holds too
            ("sample_id,c\ns1,1\n", "s10"),  # a file id that is a prefix of the table's
            ("sample_id,c\ns10,1\n", "s1"),  # a file id that extends the table's
            ("sample_id,c\ns2,1\n", "s1"),  # a file id of the table id's length, other bytes
            ("sample_id,c\nab,1\n", "é"),  # the same, against a 2-byte UTF-8 id
        ],
    )
    def test_other_layouts_go_to_the_row_parser(self, tmp_path, text, sample_id):
        table = make_table(["a"], ["a"], ids=[sample_id])
        path = tmp_path / "c.csv"
        path.write_text(text, newline="")
        assert io._scan_conditions(path, table) is None
        assert same_outcome(path, table)

    @pytest.mark.parametrize(
        "table_ids, file_ids",
        [
            (["a\0b", "c"], ["a", "b"]),  # a NUL in a table id may not end an id
            (["s1", "0s2"], ["s10", "s2"]),  # the same bytes, with the first id extended
            (["s10", "s2"], ["s1", "0s2"]),  # and with the first id cut short
            (["s1", "s2", "s3"], ["s1", "s3", "s2"]),  # ids of the table's lengths, out of order
        ],
    )
    def test_ids_are_compared_as_bytes(self, tmp_path, table_ids, file_ids):
        table = make_table(["a"], ["a"] * len(table_ids), ids=table_ids)
        path = tmp_path / "c.csv"
        path.write_text("sample_id,c\n" + "".join(f"{sample_id},1\n" for sample_id in file_ids))
        assert io._scan_conditions(path, table) is None
        assert same_outcome(path, table)

    def test_overlong_id_goes_to_the_row_parser(self, tmp_path):
        sample_id = "a" * (csv.field_size_limit() + 1)
        table = make_table(["a"], ["a"], ids=[sample_id])
        path = tmp_path / "c.csv"
        path.write_text(f"sample_id,c\n{sample_id},1\n")
        assert io._scan_conditions(path, table) is None
        with pytest.raises(DataError, match="field limit"):
            io.read_conditions(path, table)
        assert same_outcome(path, table)

    @pytest.mark.parametrize(
        "long_id, newline, scanned", [("s" * 300 + "{}", "\n", True), ("s,{}\n", "\r\n", False)]
    )
    def test_file_of_several_blocks(self, tmp_path, monkeypatch, long_id, newline, scanned):
        """Every seventh id is longer than a block in the plain layout, or
        quoted in a CR-LF file, which the row parser reads."""
        rng = np.random.default_rng(1)
        ids = [f"s{i}" if i % 7 else long_id.format(i) for i in range(300)]
        bits = rng.random((300, 9)) < 0.3
        path, table = conditions_file(tmp_path, ids, bits, newline)
        monkeypatch.setattr(io, "_SCAN_BLOCK", 256)
        assert path.stat().st_size > 20 * 256
        assert (io._scan_conditions(path, table) is not None) == scanned
        assert np.array_equal(io.read_conditions(path, table).values, bits)

    @pytest.mark.parametrize(
        "middle, newline, scanned", [("a long plain id", "\n", True), ('a "quoted",\r\nid', "\r\n", False)]
    )
    def test_record_straddling_a_block_edge(self, tmp_path, monkeypatch, middle, newline, scanned):
        ids = ["s0", middle, "s2"]
        bits = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        path, table = conditions_file(tmp_path, ids, bits, newline)
        data = path.read_bytes()
        record = data.index(newline.encode(), data.index(b"s0")) + len(newline)
        # every block edge inside the second record, its line break included
        for edge in range(record + 1, data.index(b"s2")):
            monkeypatch.setattr(io, "_SCAN_BLOCK", edge)
            assert (io._scan_conditions(path, table) is not None) == scanned, edge
            assert np.array_equal(io.read_conditions(path, table).values, bits), edge

    def test_permuted_rows_go_to_the_row_parser(self, tmp_path):
        ids = ["s0", "x;y", " pad ", "s3", "é"]
        bits = np.random.default_rng(2).random((len(ids), 4)) < 0.5
        order = [3, 0, 4, 1, 2]
        path, _ = conditions_file(tmp_path, [ids[k] for k in order], bits[order])
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        assert io._scan_conditions(path, table) is None
        assert same_outcome(path, table)
        assert np.array_equal(io.read_conditions(path, table).values, bits)

    @settings(max_examples=300)
    @given(case=st.data(), block=st.sampled_from([1, 2, 3, 5, 16, 64, 1 << 20]))
    def test_same_as_reference(self, tmp_path_factory, case, block):
        data, ids = case.draw(conditions_bytes())
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        path = tmp_path_factory.mktemp("c") / "c.csv"
        path.write_bytes(data)
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            names = csv_header(path)[1:]
            if "" in names or len(set(names)) != len(names):
                with pytest.raises(DataError):
                    io.read_conditions(path, table)
            else:
                assert same_outcome(path, table)


def csv_header(path):
    """The first record of a CSV file as csv.reader reads it; empty when unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return next(csv.reader(handle), [])
    except (csv.Error, UnicodeDecodeError):
        return []


def csv_ids(path):
    """The first field of each non-blank record after the header, as
    csv.reader reads them; empty when unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return tuple(row[0] for row in list(csv.reader(handle))[1:] if row)
    except (csv.Error, UnicodeDecodeError):
        return ()


def outcome(reader, path, table):
    try:
        conds = reader(path, table)
    except Exception as err:  # the exception type and message are the outcome
        return type(err), str(err)
    return conds.condition_names, conds.values.tolist(), conds.words.tolist()


def same_outcome(path, table):
    return outcome(io.read_conditions, path, table) == outcome(reference_read_conditions, path, table)


# characters that steer csv parsing, plus a digit-like and a non-ASCII letter
ADVERSARIAL = st.text(st.sampled_from(['"', ",", "\r", "\n", "0", "1", "a", "é"]), min_size=1, max_size=4)


@st.composite
def conditions_bytes(draw):
    """Bytes of a conditions file and the table ids it is read against.

    Most draws are well-formed; the rest carry one or more faults: quoted
    bit cells, CR-LF and bare CR line ends, blank lines, no final line break,
    unquoted ids holding literal quotes or separators, bad widths, non-bits,
    duplicate, unknown and missing ids, a stray last line, and bytes that
    are not UTF-8."""
    rare = st.integers(0, 7).map(lambda k: k == 0)
    per_cell = st.integers(0, 39).map(lambda k: k == 0)
    names = draw(st.lists(ADVERSARIAL, min_size=1, max_size=4, unique=True))
    ids = draw(st.lists(ADVERSARIAL, min_size=1, max_size=6, unique=True))
    rows = draw(st.permutations(ids))
    if draw(rare):
        rows = rows[1:]
    if draw(rare):
        rows.append(draw(st.sampled_from(ids)))
    if draw(rare):
        rows.insert(0, draw(ADVERSARIAL))

    def field(text):
        mode = draw(st.sampled_from(["minimal"] * 10 + ["quoted", "raw"]))
        if mode == "raw" or (mode == "minimal" and not set(text) & set('",\r\n')):
            return text
        return '"' + text.replace('"', '""') + '"'

    def cell(bit):
        if draw(per_cell):
            return draw(st.sampled_from([f'"{bit}"', "2", "", draw(ADVERSARIAL)]))
        return bit

    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def ending():
        return draw(st.sampled_from(["\n", "\r\n", "\r"])) if draw(rare) else newline

    lines = ["sample_id," + ",".join(field(name) for name in names)]
    for sample_id in rows:
        bits = draw(st.lists(st.sampled_from("01"), min_size=len(names), max_size=len(names)))
        if draw(rare):
            bits = bits[1:] if draw(st.booleans()) else bits + ["0"]
        lines.append(",".join([field(sample_id), *map(cell, bits)]))
        if draw(rare):
            lines.append("")
    if draw(rare):
        lines.append(draw(ADVERSARIAL))
    text = "".join(line + ending() for line in lines)
    if draw(rare):
        text = text.rstrip("\r\n")
    data = bytearray(text.encode())
    if draw(rare):
        at = draw(st.integers(0, len(data) - 1))
        data[at : at + 1] = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9", b'"', b",", b"\r"]))
    return bytes(data), ids


def once_in(n):
    """True in one draw of ``n``; integer strategies lean towards their bounds."""
    return st.sampled_from([False] * (n - 1) + [True])


# sample ids: mostly plain, else adversarial, empty, a BOM, padding or NUL
ID_TEXT = st.one_of(
    *[st.text(st.sampled_from("sab1é"), min_size=1, max_size=3)] * 4,
    ADVERSARIAL,
    st.sampled_from(["", "\ufeff", " x ", "\x00"]),
)


@st.composite
def table_bytes(draw, header, cells):
    """Bytes of a CSV file with ``header`` and rows of an id then one cell
    drawn from each of ``cells``.

    Half the draws are minimally quoted, as the writers write them, with
    ``\\n`` or CR-LF line ends; the rest may carry faults: quoted or raw
    fields, bare CR line ends, blank lines, no final line break, a leading
    BOM, duplicate ids, rows one cell short or long, and one byte swapped for
    NUL, a quote, a separator, a line break or a byte that is not UTF-8.
    Empty, unknown and malformed values come from ``cells`` in any draw."""
    faulty = draw(st.booleans())
    rare = once_in(8).map(lambda k: faulty and k)
    ids = draw(st.lists(ID_TEXT, max_size=6))
    if ids and draw(rare):
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))

    def field(text):
        mode = draw(st.sampled_from(["minimal"] * 10 + ["quoted", "raw"])) if faulty else "minimal"
        if mode == "raw" or (mode == "minimal" and not set(text) & set('",\r\n')):
            return text
        return '"' + text.replace('"', '""') + '"'

    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def ending():
        return draw(st.sampled_from(["\n", "\r\n", "\r"])) if draw(rare) else newline

    lines = [",".join(map(field, header))]
    for sample_id in ids:
        row = [draw(cell) for cell in cells]
        if draw(rare):
            row = row[1:] if draw(st.booleans()) else row + ["a"]
        lines.append(",".join([field(sample_id), *map(field, row)]))
        if draw(rare):
            lines.append("")
    text = "".join(line + ending() for line in lines)
    if draw(rare):
        text = text.rstrip("\r\n")
    data = bytearray(text.encode())
    if draw(rare):
        data[:0] = "\ufeff".encode()
    if draw(rare):
        at = draw(st.integers(0, len(data) - 1))
        data[at : at + 1] = draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b",", b"\r", b"\n"]))
    return bytes(data)


def cell_values(good, bad):
    """One of ``good``, or one of ``bad`` once in 32 draws."""
    return once_in(32).flatmap(lambda is_bad: st.sampled_from(bad if is_bad else good))


BAD_CELLS = ["zz", "", "a,b", 'q"', "é", " a", "a\rb"]
CLASS_CELLS = cell_values(["a", "b", UNKNOWN_NAME], BAD_CELLS)
FLAG_CELLS = cell_values(["0", "1"], ["2", "", " 1", '"1"'])
FIRED_CELLS = cell_values(["", "a", "b;a", "a;b", "b"], BAD_CELLS)


def table_outcome(reader, path, *args):
    """The table or trace a reader returns, field by field, or the type and
    message of what it raises."""
    try:
        result = reader(path, *args)
    except Exception as err:  # the exception type and message are the outcome
        return type(err), str(err)
    return type(result), plain_fields(result)


def plain_fields(result):
    """The fields of a table or trace, each array as its dtype and list and
    a trace's table as its own fields."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.tolist()
        return plain_fields(value) if isinstance(value, PredictionTable) else value
    return {k: plain(v) for k, v in vars(result).items()}


def id_table(classes, sample_ids):
    """A table over ``classes`` that holds ``sample_ids`` in order."""
    return make_table(classes.names, [classes.names[0]] * len(sample_ids), ids=list(sample_ids))


def trace_table(path, classes):
    """The table to read a trace file against: the file's distinct ids, as
    csv.reader reads them, in order of first appearance (none when it is
    unreadable), so only a file that repeats an id is out of its order."""
    return id_table(classes, dict.fromkeys(filter(None, csv_ids(path))))  # an empty id is a faulty row


def pred_column_fault(path, classes):
    """The outcome of ``read_predictions`` for a fault of the pred column of
    a valid CSV file, which it meets before a repeated id: no predictable
    class when ``classes`` is None, else a class outside ``classes``; None
    when the column has neither."""
    with open(path, encoding="utf-8", newline="") as handle:
        predicted = {row[1] for row in list(csv.reader(handle))[1:] if row} - {UNKNOWN_NAME}
    if classes is None:
        return None if predicted else (DataError, f"{path}: no predictable classes found in pred column")
    bad = sorted(predicted.difference(classes.names))
    message = f"{path}: predicted classes {bad} are not in the declared class set {classes.names}"
    return (ContractError, message) if bad else None


class TestReadersMatchReference:
    """The byte scanner of ``read_predictions`` and ``read_trace`` against the
    ``csv.reader`` readers it replaced (``helpers.reference_read_*``): the
    same table or trace, or the same exception type and message.  A trace is
    read against a table that holds its distinct ids in file order (see
    :func:`trace_table`), and against the reversed ids, which only a trace
    of at most one row lists in order.  A
    predictions file with repeated ids whose pred column also has a fault
    gives that fault (:func:`pred_column_fault`), since the table, built
    last, is what rejects repeated ids."""

    @settings(max_examples=300)
    @given(case=st.data(), block=st.sampled_from([1, 7, 64, 1 << 20]), gt=st.booleans())
    def test_predictions(self, tmp_path_factory, case, block, gt):
        header = ["sample_id", "pred", "gt"][: 2 + gt]
        if case.draw(once_in(16)):
            header[1] = case.draw(st.sampled_from(["Pred", "pred,gt", ""]))
        path = tmp_path_factory.mktemp("p") / "p.csv"
        path.write_bytes(case.draw(table_bytes(header, [CLASS_CELLS] * (1 + gt))))
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            for classes in (None, ClassSet(("a", "b"))):
                expected = table_outcome(reference_read_predictions, path, classes)
                if expected[0] is DataError and expected[1].startswith(f"{path}: duplicate sample id "):
                    expected = pred_column_fault(path, classes) or expected
                assert table_outcome(io.read_predictions, path, classes) == expected

    @settings(max_examples=300)
    @given(case=st.data(), block=st.sampled_from([1, 7, 64, 1 << 20]))
    def test_trace(self, tmp_path_factory, case, block):
        header = list(io.TRACE_HEADER)
        if case.draw(once_in(16)):
            header[3] = case.draw(st.sampled_from(["Fired", "fired,x", ""]))
        cells = [CLASS_CELLS, FLAG_CELLS, FIRED_CELLS, CLASS_CELLS]
        path = tmp_path_factory.mktemp("t") / "trace.csv"
        path.write_bytes(case.draw(table_bytes(header, cells)))
        table = trace_table(path, ClassSet(("a", "b")))
        backwards = id_table(table.classes, table.sample_ids[::-1])
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            for other in (table, backwards):
                assert table_outcome(io.read_trace, path, other) == table_outcome(reference_read_trace, path, other)

    @settings(max_examples=200)
    @given(case=st.data(), block=st.sampled_from([1, 3, 64, 1 << 20]))
    def test_conditions_scanner_takes_what_it_took(self, tmp_path_factory, case, block):
        """Every file in the plain layout (no quote, CR or NUL byte) that the
        old scanner read with its ids in the table's order, the shared one
        reads to the same matrix; any other file is left to the row parser.
        Whatever the shared scanner reads, it reads as the row parser does."""
        data, ids = case.draw(conditions_bytes())
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        path = tmp_path_factory.mktemp("c") / "c.csv"
        path.write_bytes(data)
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            old, new = reference_scan_conditions(path, table), io._scan_conditions(path, table)
        plain = not any(byte in data for byte in (b'"', b"\r", b"\x00"))
        if old is not None and plain and csv_ids(path) == table.sample_ids:
            assert new is not None and np.array_equal(new.values, old.values)
        if new is not None:
            assert same_outcome(path, table)

    @pytest.mark.parametrize(
        "text",
        [
            "sample_id,pred,gt\n",  # header only
            "sample_id,pred,gt\r\ns1,a,b\r\n\r\ns2,b,a",  # CR-LF, a blank line, no final break
            '\ufeffsample_id,pred,gt\ns1,a,b\n',  # a BOM spoils the header
            'sample_id,pred,gt\n"s""1",a,b\n"s,2",b,a\n',  # quoted ids
            "sample_id,pred,gt\ns1,a,\n",  # an empty cell
            "sample_id,pred,gt\ns1,a,b\ns1,b,b\n",  # a repeated id
            "sample_id,pred,gt\ns\x001,a,b\n",  # NUL
            "sample_id,pred,gt\ns1,a\rb,b\n",  # a bare CR inside a cell
            'sample_id,pred,gt\ns1,"a",b\n',  # a quoted cell
            "sample_id,pred,gt\ns1,a,b\ns2,b,__unknown__\n",  # UNKNOWN ground truth
            "sample_id,pred\ns1,__unknown__\ns2,b\n",  # UNKNOWN prediction
        ],
    )
    def test_listed_predictions(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        assert table_outcome(io.read_predictions, path) == table_outcome(reference_read_predictions, path)

    @pytest.mark.parametrize(
        "text",
        [
            "sample_id,original,flagged,fired,final\n",
            "sample_id,original,flagged,fired,final\ns1,a,1,,__unknown__\ns2,b,0,a;b,a\ns3,a,0,,c",
            "sample_id,original,flagged,fired,final\ns1,a,1,,a\ns2,zz,0,,a\n",  # unknown original
            "sample_id,original,flagged,fired,final\ns1,a,2,,a\n",  # a bad flag
            "sample_id,original,flagged,fired,final\ns1,a,1,,\n",  # an empty final class: rejected
            "sample_id,original,flagged,fired,final\ns1,a,1,,a\ns2,,0,,a\n",  # an empty original class
            "sample_id,original,flagged,fired,final\n,a,1,,a\n",  # an empty id: rejected
            "sample_id,original,flagged,fired,final\ns1,a,1,,a\ns1,a,1,,a\n",  # a repeated id
            "sample_id,original,flagged,fired,final\ns1,a,1,\xff,a\n",  # not UTF-8
        ],
    )
    def test_listed_traces(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("latin-1"))
        table = trace_table(path, ClassSet(("a", "b")))
        assert table_outcome(io.read_trace, path, table) == table_outcome(reference_read_trace, path, table)

    @pytest.mark.parametrize(
        "data, sample_id",
        [
            (b"sample_id,c\ns1;1\n", "s1"),  # a bit after a byte that is not a comma
            (b"sample_id,c\ns1\xff1\n", "s1"),  # the same byte not UTF-8
        ],
    )
    def test_listed_conditions(self, tmp_path, data, sample_id):
        table = make_table(["a"], ["a"], ids=[sample_id])
        path = tmp_path / "c.csv"
        path.write_bytes(data)
        assert io._scan_conditions(path, table) is None
        assert same_outcome(path, table)

    def test_fired_names_keep_first_appearance_across_blocks(self, tmp_path, monkeypatch):
        rows = [f"s{i},a,0,{fired},a" for i, fired in enumerate(["", "b;a", "", "a", "b;a", "b"] * 20)]
        path = tmp_path / "t.csv"
        path.write_text("\n".join(["sample_id,original,flagged,fired,final", *rows]) + "\n")
        monkeypatch.setattr(io, "_SCAN_BLOCK", 64)
        table = id_table(ClassSet(("a", "b")), [f"s{i}" for i in range(len(rows))])
        assert io.read_trace(path, table).fired_names == ("", "b;a", "a", "b")
        assert table_outcome(io.read_trace, path, table) == table_outcome(reference_read_trace, path, table)


def sample_ruleset():
    return RuleSet(
        classes=ClassSet(("a", "b")),
        condition_names=("c1", "c2"),
        epsilon=0.1,
        detection_rules=(DetectionRule(0, ("c1", "c2"), 0.25, 0.75),),
        correction_rules=(CorrectionRule(1, (("c1", 0),), 0.125, 0.9),),
    )


class TestRulesetFormat:
    def test_roundtrip_identity(self, tmp_path):
        rule_set = sample_ruleset()
        path = tmp_path / "rules.yaml"
        io.save_ruleset(path, rule_set)
        assert io.load_ruleset(path) == rule_set

    def test_roundtrip_per_class_epsilon(self, tmp_path):
        rule_set = sample_ruleset()
        import dataclasses

        mapped = dataclasses.replace(rule_set, epsilon={"a": 0.1, "b": 0.2})
        path = tmp_path / "rules.yaml"
        io.save_ruleset(path, mapped)
        assert io.load_ruleset(path) == mapped

    def test_bad_version(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("format_version: 99\nclasses: [a]\nconditions: []\nepsilon: 0.1\n")
        with pytest.raises(DataError, match="version"):
            io.load_ruleset(path)

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("{unbalanced")
        with pytest.raises(DataError):
            io.load_ruleset(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_bytes(b"classes: [caf\xe9]\n")
        with pytest.raises(DataError, match="rules.yaml.*utf-8"):
            io.load_ruleset(path)

    def test_dumper_is_the_pure_one(self, tmp_path):
        # libyaml's dumper writes the key "L\r" as the complex key ? "L\r" / : 0.0
        rule_set = RuleSet(ClassSet(("L\r", "a")), ("c",), {"L\r": 0.0, "a": 0.5}, (), ())
        path = tmp_path / "rules.yaml"
        io.save_ruleset(path, rule_set)
        document, style = io.ruleset_to_dict(rule_set), {"sort_keys": False, "default_flow_style": False}
        expected = yaml.safe_dump(document, **style)
        assert path.read_bytes() == expected.encode()
        assert 'epsilon:\n  "L\\r": 0.0\n  a: 0.5\n' in expected
        if hasattr(yaml, "CSafeDumper"):
            assert yaml.dump(document, Dumper=yaml.CSafeDumper, **style) != expected

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0.1\t", "cannot start any token"),  # a tab after a plain scalar
            ('"\\U1010B57D"', "arg not in range"),  # an escape past the last code point
            ("2001-13-45", "month must be in 1..12"),  # a date that is none
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["tab", "escape", "date", "nesting"],
    )
    def test_documents_the_pure_loader_rejects(self, tmp_path, value, message):
        """A rule set with one more key whose value the pure loader rejects
        is a data error, never an uncaught exception.  libyaml's loader reads
        the first as a valid rule set and crashes the process on the last,
        which is why rule sets load through the pure one."""
        text = RULESET_TEXT.format(epsilon="0.1", class_support="0.5", confidence="0.9")
        path = tmp_path / "rules.yaml"
        path.write_text(f"{text}junk: {value}\n")
        with pytest.raises(DataError) as error:
            io.load_ruleset(path)
        assert str(error.value).startswith(f"{path}: invalid YAML: ") and message in str(error.value)

    def test_apply_identical_after_roundtrip(self, tmp_path):
        rule_set = sample_ruleset()
        path = tmp_path / "rules.yaml"
        io.save_ruleset(path, rule_set)
        loaded = io.load_ruleset(path)
        table = make_table(["a", "b"], ["a", "a", "b"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1], [0, 1, 0]])
        before, _ = apply_ruleset(rule_set, table, conds)
        after, _ = apply_ruleset(loaded, table, conds)
        assert before.pred_ids.tolist() == after.pred_ids.tolist()


def same_trace(a, b):
    return (
        same_table(a.table, b.table)
        and a.flagged.tolist() == b.flagged.tolist()
        and fired_column(a) == fired_column(b)
        and a.final.tolist() == b.final.tolist()
    )


class TestTraceIdBytes:
    """A trace read against a table is scanned only when its ids are the
    table's ids as UTF-8 (``io._id_bytes``), byte for byte and in order;
    every other file goes to the row parser.  Either way it reads as the
    reference trace (``helpers.reference_read_trace``) does: to the file's
    rows when it lists the table's ids in order, else to the error for the
    first row whose id is not the table's, or the first table id it lacks."""

    @pytest.mark.parametrize(
        "table_ids, file_ids, scanned",
        [
            (("s1", "é2", "s3"), ("s1", "é2", "s3"), True),  # the table's order, with a non-ASCII id
            (("s1", "é2", "s3"), ("s1", "ê2", "s3"), False),  # the table's byte length, other bytes
            (("s1", "é2", "s3"), ("s1", "é", "s3"), False),  # a prefix of a table id
            (("s1", "é2", "s3"), ("s1", "é2", "s3x"), False),  # a table id as a prefix
            (("s1", "é2", "s3"), ("s3", "s1", "é2"), False),  # the table's ids permuted
            (("s1", "é2", "s3"), ("s1", "é2", "s3", "s4"), False),  # one extra trailing row
            (("s1", "s,2"), ("s1", "s,2"), False),  # a table id with a comma, unquoted: too many fields
            (("s1", 's"2'), ("s1", 's"2'), False),  # a table id with a quote, unquoted
        ],
        ids=["in-order", "same-length", "prefix-id", "longer-id", "permuted", "extra-row", "comma", "quote"],
    )
    def test_read_against_table(self, tmp_path, table_ids, file_ids, scanned):
        path = tmp_path / "t.csv"
        rows = [f"{sample_id},a,{k % 2},{'b' * (k % 2)},{'ab'[k % 2]}" for k, sample_id in enumerate(file_ids)]
        path.write_text("\n".join([",".join(io.TRACE_HEADER), *rows]) + "\n", encoding="utf-8")
        table = id_table(ClassSet(("a", "b")), table_ids)
        assert table_outcome(io.read_trace, path, table) == table_outcome(reference_read_trace, path, table)
        scan = io._scan_columns(path, io._TRACE.headers, table)
        assert (scan is not None) == scanned
        assert not scanned or scan[0] is table.sample_ids


class TestTraceFormat:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["scanned", "row-parser"])
    def test_trace_table_shares_the_checked_ids(self, tmp_path, newline):
        """The trace's table is built on the ids of the table it is read
        against, with no sample-id check (``core.check_names``), whether the
        scanner or, for a trace with CR-LF line ends, the row parser reads it."""
        table = make_table(["a", "b"], ["a", "a", "b"], ["b", "a", "scooter"], ids=["x", "y", "z"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1], [1, 1, 0]])
        _, trace = apply_ruleset(sample_ruleset(), table, conds)
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert (io._scan_columns(path, io._TRACE.headers, table) is not None) == (newline == b"\n")
        with mock.patch.object(core, "check_names", wraps=core.check_names) as spy:
            back = io.read_trace(path, table)
        assert "sample id" not in [call.args[0] for call in spy.call_args_list]
        assert back.table.sample_ids is table.sample_ids
        assert back.table.names(back.table.gt_ids) == table.names(table.gt_ids)
        assert same_trace(back, trace)

    def test_roundtrip(self, tmp_path):
        table = make_table(["a", "b"], ["a", "a", "b"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1], [1, 1, 0]])
        _, trace = apply_ruleset(sample_ruleset(), table, conds)
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        assert same_trace(io.read_trace(path, table), trace)

    def test_malformed_row_line_number(self, tmp_path):
        # line-numbered faults come before alignment: the table holds an id the file lacks
        table = id_table(ClassSet(("a",)), ["w"])
        path = tmp_path / "trace.csv"
        path.write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\n\ny,a,2,,a\n")
        with pytest.raises(DataError, match=":4:"):
            io.read_trace(path, table)
        for row in ("y,,0,,a", "y,a,0,,", ",a,0,,a"):  # an empty original, final or id
            path.write_text(f"sample_id,original,flagged,fired,final\nx,a,0,,a\n{row}\n")
            with pytest.raises(DataError, match=":3: malformed trace row"):
                io.read_trace(path, table)
        path.write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\nx,a,0,,a\ny,a,2,,a\n")
        with pytest.raises(DataError, match=":4: malformed trace row"):  # before the repeated id
            io.read_trace(path, table)

    def test_original_outside_classes_extends_trace_classes(self, tmp_path):
        # a class every prediction of which apply routed elsewhere is absent
        # from revised.csv, so eval reads the trace with a class set lacking it
        path = tmp_path / "trace.csv"
        path.write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\ny,zz,1,c,c\n")
        trace = io.read_trace(path, id_table(ClassSet(("a",)), ["x", "y"]))
        assert trace.table.classes.names == ("a", "c", "zz")
        assert trace.table.pred_ids.tolist() == [0, 2]
        assert trace.final.tolist() == [0, 1]
        # a row the table lacks is a data error, not a source of classes
        with pytest.raises(DataError, match=r"trace.csv: row 2 has sample id 'y', not the table's id on that row$"):
            io.read_trace(path, id_table(ClassSet(("a",)), ["x"]))

    def test_final_outside_classes_extends_trace_classes(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("sample_id,original,flagged,fired,final\nx,a,1,c,c\ny,a,0,,a\n")
        trace = io.read_trace(path, id_table(ClassSet(("a",)), ["x", "y"]))
        assert trace.table.classes.names == ("a", "c")
        assert trace.table.pred_ids.tolist() == [0, 0]
        assert trace.final.tolist() == [1, 0]

    @pytest.mark.parametrize("final", ["b", "c"])
    def test_ground_truth_is_kept_by_name(self, tmp_path, final):
        # ground truth c is novel to the table; a trace whose final column
        # names c takes it into its class set, and gt c becomes that class
        table = make_table(["a", "b"], ["a", "b", "a"], ["b", "c", "a"], ids=["x", "y", "z"])
        path = tmp_path / "trace.csv"
        path.write_text(f"sample_id,original,flagged,fired,final\nx,a,1,{final},{final}\ny,b,0,,b\nz,a,0,,a\n")
        trace = io.read_trace(path, table)
        assert trace.table.names(trace.table.gt_ids) == table.names(table.gt_ids) == ["b", "c", "a"]
        assert trace.table.names(trace.table.pred_ids) == ["a", "b", "a"]
        extended = final == "c"
        assert trace.table.classes.names == (("a", "b", "c") if extended else ("a", "b"))
        assert trace.table.novel_names == (() if extended else ("c",))
        assert trace.table.sample_ids is table.sample_ids

    def test_eval_with_correction_to_unpredicted_class(self, tmp_path):
        # the batch predicted only a; the revised table p.csv predicts b for x, as the trace's final column does
        table = make_table(["a", "b"], ["b", "a"], ["b", "a"], ids=["x", "y"])
        io.write_predictions(tmp_path / "p.csv", table)
        (tmp_path / "t.csv").write_text("sample_id,original,flagged,fired,final\nx,a,1,b,b\ny,a,0,,a\n")
        assert run(["eval", "--predictions", tmp_path / "p.csv", "--trace", tmp_path / "t.csv",
                    "--out", tmp_path / "out"]) == 0

    def test_eval_scores_over_the_trace_class_set(self, tmp_path, capsys):
        """apply routes every prediction of class a to UNKNOWN, so a is absent
        from revised.csv.  Without --trace eval's classes are the revised
        file's predicted ones and a's ground truth counts as novel; with it,
        eval scores over the trace's class set, which keeps a, so the
        novel-aware accuracy is 0.25, not 0.5, and metrics.csv has a's rows."""
        (tmp_path / "p.csv").write_text("sample_id,pred,gt\nx1,a,a\nx2,a,b\nx3,b,b\nx4,b,a\n")
        (tmp_path / "c.csv").write_text("sample_id,c1\nx1,1\nx2,1\nx3,0\nx4,0\n")
        rule_set = RuleSet(ClassSet(("a", "b")), ("c1",), 0.5, (DetectionRule(0, ("c1",), 0.5, 0.5),), ())
        io.save_ruleset(tmp_path / "r.yaml", rule_set)
        assert run(["apply", "--ruleset", tmp_path / "r.yaml", "--predictions", tmp_path / "p.csv",
                    "--conditions", tmp_path / "c.csv", "--out", tmp_path / "apply"]) == 0
        revised, trace = tmp_path / "apply" / "revised.csv", tmp_path / "apply" / "trace.csv"
        for extra, accuracy, classes in (([], "0.5000", {"b"}), (["--trace", trace], "0.2500", {"a", "b"})):
            capsys.readouterr()
            assert run(["eval", "--predictions", revised, *extra, "--mode", "novel-aware",
                        "--out", tmp_path / "eval"]) == 0
            assert f"accuracy (novel-aware): {accuracy}\n" in capsys.readouterr().out
            with (tmp_path / "eval" / "metrics.csv").open(newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert {row["class"] for row in rows} - {""} == classes
        assert {(row["metric"], row["value"]) for row in rows if row["class"] == "a"} >= {
            ("n_predicted", "0"), ("n_actual", "2"), ("recall", "0.0")
        }

    def test_eval_rejects_the_trace_of_another_table(self, tmp_path, capsys):
        """A trace whose final column is not the scored table's predictions
        belongs to another run: a data error naming the trace file and the
        first sample id where they differ.  Both pairs exited 0 before."""
        corpus = gen_corpus(tmp_path)
        p, c = corpus / "predictions.csv", corpus / "conditions.csv"
        for k, epsilon in enumerate((0.1, 0.3)):
            assert run(["learn", "--predictions", p, "--conditions", c, "--epsilon", epsilon,
                        "--out", tmp_path / f"learn{k}"]) == 0
            assert run(["apply", "--ruleset", tmp_path / f"learn{k}" / "ruleset.yaml", "--predictions", p,
                        "--conditions", c, "--out", tmp_path / f"apply{k}"]) == 0
        a0, a1 = tmp_path / "apply0", tmp_path / "apply1"
        for predictions, trace in ((a0 / "revised.csv", a1 / "trace.csv"), (p, a0 / "trace.csv")):
            with predictions.open(newline="") as pred_file, trace.open(newline="") as trace_file:
                rows = zip(csv.DictReader(pred_file), csv.DictReader(trace_file))
                first = next(pred["sample_id"] for pred, traced in rows if pred["pred"] != traced["final"])
            capsys.readouterr()
            assert run(["eval", "--predictions", predictions, "--trace", trace, "--out", tmp_path / "e"]) == 3
            err = capsys.readouterr().err
            assert err == f"error: {trace}: final class of sample id {first!r} differs from {predictions}\n"
        assert not (tmp_path / "e").exists()
        assert run(["eval", "--predictions", a1 / "revised.csv", "--trace", a1 / "trace.csv",
                    "--out", tmp_path / "e"]) == 0

    def test_eval_trace_missing_sample_id_names_file(self, tmp_path, capsys):
        table = make_table(["a", "b"], ["a", "a"], ["b", "a"], ids=["x", "y"])
        io.write_predictions(tmp_path / "p.csv", table)
        (tmp_path / "t.csv").write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\n")
        assert run(["eval", "--predictions", tmp_path / "p.csv", "--trace", tmp_path / "t.csv",
                    "--out", tmp_path / "out"]) == 3
        assert "t.csv lacks sample id 'y'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["y,a,0,,a", "x,a,0,,a"], "row 1 has sample id 'y', not the table's id on that row"),  # permuted
            (["x,a,0,,a", "y,a,0,,a", "z,a,0,,a"], "row 3 has sample id 'z', not the table's id on that row"),
            (["x,a,0,,a", "w,a,0,,a"], "row 2 has sample id 'w', not the table's id on that row"),  # another id
            (["x,a,0,,a", "", "w,a,0,,a"], "row 2 has sample id 'w', not the table's id on that row"),
        ],
        ids=["permuted", "extra-row", "other-id", "other-id-after-blank-line"],
    )
    def test_eval_rejects_a_trace_out_of_the_table_order(self, tmp_path, capsys, rows, message):
        """A trace lists the scored table's ids in order, as apply writes it;
        any other is a data error naming the trace file and its first row
        (blank lines skipped) whose id is not the table's, and eval writes nothing."""
        io.write_predictions(tmp_path / "p.csv", make_table(["a", "b"], ["a", "a"], ["b", "a"], ids=["x", "y"]))
        (tmp_path / "t.csv").write_text("\n".join(["sample_id,original,flagged,fired,final", *rows]) + "\n")
        assert run(["eval", "--predictions", tmp_path / "p.csv", "--trace", tmp_path / "t.csv",
                    "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 't.csv'}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_read_trace_takes_only_the_table_order(self, tmp_path):
        table = make_table(["a", "b"], ["a", "a", "b"], ids=["x", "y", "z"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1], [1, 1, 0]])
        _, trace = apply_ruleset(sample_ruleset(), table, conds)
        path = tmp_path / "t.csv"
        io.write_trace(path, trace)
        back = io.read_trace(path, table)  # as apply writes it
        assert back.table.sample_ids is table.sample_ids and same_trace(back, trace)
        other = id_table(table.classes, ("x", "y", "z"))  # equal ids, not the same tuple
        back = io.read_trace(path, other)
        assert back.table.sample_ids is other.sample_ids
        assert fired_column(back) == fired_column(trace)
        for ids, message in [
            (("z", "x", "y"), "t.csv: row 1 has sample id 'x', not the table's id on that row"),
            (("x", "z"), "t.csv: row 2 has sample id 'y', not the table's id on that row"),  # an extra id
            (("x", "w"), "t.csv: row 2 has sample id 'y', not the table's id on that row"),
            (("x", "y", "z", "w"), "t.csv lacks sample id 'w'"),
        ]:
            with pytest.raises(DataError, match=f"{message}$"):
                io.read_trace(path, id_table(table.classes, ids))


class TestEveryTableIsConstructed:
    """Every table is built by the constructor, so a counting wrapper on
    ``PredictionTable.__post_init__``, patched as the benchmark's tracer
    patches it, runs once for each table built, on every path that builds one."""

    @pytest.fixture
    def files(self, tmp_path):
        """A table and its predictions and trace files, the trace also with
        CR-LF line ends: the first is scanned, the second row-parsed."""
        table = make_table(["a", "b"], ["a", "a", "b"], ["b", "a", "scooter"], ids=["x", "y", "z"])
        _, trace = apply_ruleset(sample_ruleset(), table, make_conds(["c1", "c2"], [[1, 0, 1], [1, 1, 0]]))
        io.write_predictions(tmp_path / "p.csv", table)
        io.write_trace(tmp_path / "t.csv", trace)
        (tmp_path / "crlf.csv").write_bytes((tmp_path / "t.csv").read_bytes().replace(b"\n", b"\r\n"))
        assert io._scan_columns(tmp_path / "t.csv", io._TRACE.headers, table) is not None
        assert io._scan_columns(tmp_path / "crlf.csv", io._TRACE.headers, table) is None
        return table, tmp_path

    @staticmethod
    def counted(monkeypatch) -> list:
        """The tables built from here on, in order."""
        builds, post_init = [], PredictionTable.__dict__["__post_init__"]
        monkeypatch.setattr(PredictionTable, "__post_init__", lambda self: (builds.append(self), post_init(self)))
        return builds

    BUILDS = {
        "read_predictions": lambda table, tmp: io.read_predictions(tmp / "p.csv", table.classes),
        "from_names": lambda table, tmp: PredictionTable.from_names(table.classes, ["x"], ["a"], ["b"]),
        "with_predictions": lambda table, tmp: table.with_predictions([-1, 0, 1]),
        "subset": lambda table, tmp: table.subset([2, 0]),
        "read_trace_scanned": lambda table, tmp: io.read_trace(tmp / "t.csv", table).table,
        "read_trace_row_parser": lambda table, tmp: io.read_trace(tmp / "crlf.csv", table).table,
    }

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    def test_one_post_init_per_table(self, files, build, monkeypatch):
        builds = self.counted(monkeypatch)
        assert builds == [build(*files)]

    def test_a_repeated_row_is_built_and_raises(self, files, monkeypatch):
        table, _ = files
        builds = self.counted(monkeypatch)
        with pytest.raises(ContractError, match="^duplicate sample id 'z'$"):
            table.subset([2, 0, 2])
        assert len(builds) == 1
        with pytest.raises(ContractError, match="^duplicate sample id 'x'$"):
            PredictionTable(table.classes, ("x", "y", "x"), [0, 0, 0])  # a plain tuple is checked
        assert len(builds) == 2


# arbitrary non-empty unicode sample ids, including commas, quotes and line
# breaks; NUL is excluded because Python 3.10's csv reader rejects it
SAMPLE_IDS = st.lists(
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
    unique=True,
)


class TestCsvQuotingRoundTrip:
    @given(ids=SAMPLE_IDS, data=st.data())
    def test_predictions(self, tmp_path_factory, ids, data):
        pred = data.draw(st.lists(st.sampled_from(["a", "b", UNKNOWN_NAME]), min_size=len(ids), max_size=len(ids)))
        gt = data.draw(st.lists(st.sampled_from(["a", "b", "novel"]), min_size=len(ids), max_size=len(ids)))
        table = make_table(["a", "b"], pred, gt, ids=ids)
        path = tmp_path_factory.mktemp("p") / "p.csv"
        io.write_predictions(path, table)
        assert same_table(io.read_predictions(path, classes=table.classes), table)

    @given(ids=SAMPLE_IDS, seed=st.integers(0, 2**32 - 1))
    def test_conditions(self, tmp_path_factory, ids, seed):
        rng = np.random.default_rng(seed)
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        conds = make_conds(["c1", "c,2"], rng.random((2, len(ids))) < 0.5)
        path = tmp_path_factory.mktemp("c") / "c.csv"
        io.write_conditions(path, table, conds)
        back = io.read_conditions(path, table)
        assert back.condition_names == conds.condition_names
        assert np.array_equal(back.values, conds.values)

    @given(ids=SAMPLE_IDS, seed=st.integers(0, 2**32 - 1))
    def test_trace(self, tmp_path_factory, ids, seed):
        rng = np.random.default_rng(seed)
        table = make_table(["a", "b"], rng.choice(["a", "b"], size=len(ids)).tolist(), ids=ids)
        conds = make_conds(["c1", "c2"], rng.random((2, len(ids))) < 0.5)
        _, trace = apply_ruleset(sample_ruleset(), table, conds)
        path = tmp_path_factory.mktemp("t") / "trace.csv"
        io.write_trace(path, trace)
        assert same_trace(io.read_trace(path, table), trace)

    def test_plain_ids_unquoted(self, tmp_path):
        table = make_table(["a"], ["a", "a"], ["a", "x"], ids=["s1", "s,2"])
        path = tmp_path / "p.csv"
        io.write_predictions(path, table)
        assert path.read_text() == 'sample_id,pred,gt\ns1,a,a\n"s,2",a,x\n'


# ids and class names that no writer quotes: no separator, quote, line break or NUL
PLAIN_TEXT = st.text(st.sampled_from("sab1é _.-"), min_size=1, max_size=5)


class TestPlainLayoutIsScanned:
    @settings(max_examples=100)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 7, 1 << 18]))
    def test_written_files_are_scanned(self, tmp_path_factory, data, seed, block):
        """The predictions, trace and conditions files written for plain ids
        and class names are in the plain layout, which the byte scanner
        takes, and read back equal."""
        ids = data.draw(st.lists(PLAIN_TEXT, min_size=1, max_size=8, unique=True))
        names = data.draw(st.lists(PLAIN_TEXT, min_size=2, max_size=3, unique=True))
        rng = np.random.default_rng(seed)
        pred = rng.choice([*names, UNKNOWN_NAME], size=len(ids)).tolist()
        table = make_table(names, pred, rng.choice([*names, "novel"], size=len(ids)).tolist(), ids=ids)
        conds = make_conds(["c1", "c2"], rng.random((2, len(ids))) < 0.5)
        rule_set = RuleSet(
            ClassSet(tuple(names)),
            ("c1", "c2"),
            0.1,
            (DetectionRule(0, ("c1", "c2"), 0.25, 0.75),),
            (CorrectionRule(1, (("c1", 0),), 0.125, 0.9),),
        )
        revised, trace = apply_ruleset(rule_set, table, conds)
        work = tmp_path_factory.mktemp("plain")
        io.write_predictions(work / "p.csv", revised)
        io.write_trace(work / "t.csv", trace)
        io.write_conditions(work / "c.csv", table, conds)
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            assert io._scan_columns(work / "p.csv", io._PREDICTIONS.headers, None) is not None
            assert io._scan_columns(work / "t.csv", io._TRACE.headers, table) is not None
            assert io._scan_conditions(work / "c.csv", table) is not None
            assert same_table(io.read_predictions(work / "p.csv", classes=table.classes), revised)
            assert same_trace(io.read_trace(work / "t.csv", table), trace)
            assert np.array_equal(io.read_conditions(work / "c.csv", table).values, conds.values)


# fields csv.writer writes as they are (text, ints, bools and floats with
# nan, infinities and -0.0) and, once in 16 draws, one it quotes or writes
# empty: separators, quotes, line breaks, NUL or None
PLAIN_FIELDS = st.one_of(
    st.text(st.sampled_from(["a", "é", " ", "1", ";"]), max_size=4),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e300]),
)
SPECIAL_FIELDS = st.one_of(
    st.text(st.sampled_from([",", '"', "\n", "\r", "a", "\x00"]), min_size=1, max_size=4), st.none()
)
FIELDS = once_in(16).flatmap(lambda special: SPECIAL_FIELDS if special else PLAIN_FIELDS)
TEXT_FIELDS = FIELDS.filter(lambda field: isinstance(field, str))
WRITER_IDS = st.lists(  # never empty, which PredictionTable rejects
    st.text(st.sampled_from([",", '"', "\n", "\r", "s", "1", "é", " ", "\x00"]), min_size=1, max_size=4),
    max_size=6,
    unique=True,
)


# names for the writers: mostly plain, else holding the characters that
# csv.writer quotes (or, on Python 3.10, rejects)
WRITER_TEXT = once_in(8).flatmap(
    lambda special: st.text(st.sampled_from([",", '"', "\n", "\r", "\x00", "a"]), min_size=1, max_size=3)
    if special
    else st.text(st.sampled_from(["a", "é", " ", "1", ";"]), min_size=1, max_size=4)
)


@st.composite
def writer_tables(draw):
    """A table of up to 6 rows whose ids, class names and novel names are
    :data:`WRITER_TEXT`, with ground truth or none."""
    ids = draw(st.lists(WRITER_TEXT, max_size=6, unique=True))
    class_names = WRITER_TEXT.filter(lambda name: name != UNKNOWN_NAME)
    classes = draw(st.lists(class_names, min_size=1, max_size=3, unique=True))
    novel = draw(st.lists(WRITER_TEXT.filter(lambda name: name not in classes), max_size=2, unique=True))
    pred = draw(st.lists(st.integers(-1, len(classes) - 1), min_size=len(ids), max_size=len(ids)))
    gt = st.lists(st.integers(0, len(classes) + len(novel) - 1), min_size=len(ids), max_size=len(ids))
    return PredictionTable(ClassSet(tuple(classes)), tuple(ids), pred, draw(st.none() | gt), tuple(novel))


def writer_traces(table):
    """Traces over ``table`` whose fired names may be empty or :data:`WRITER_TEXT`."""
    n, k = table.n, len(table.classes)
    fired_names = st.lists(st.just("") | WRITER_TEXT, min_size=1, max_size=3)
    return fired_names.flatmap(
        lambda names: st.builds(
            ApplyTrace,
            st.just(table),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n),
            st.just(tuple(names)),
            st.lists(st.integers(-1, k - 1), min_size=n, max_size=n),
        )
    )


PRED, PRED_GT, TRACE = ["sample_id", "pred"], ["sample_id", "pred", "gt"], io.TRACE_HEADER


def writer_input(header, columns):
    """The writer of ``header`` and the table or trace whose file holds
    ``columns``; its classes are the sorted names of the predicted (original)
    and final columns, plus ``a``, so that no class set is empty."""
    ids, predicted, *rest = columns
    final = rest[-1] if header == TRACE else ()
    classes = ClassSet(tuple(sorted({"a", *predicted, *final} - {UNKNOWN_NAME})))
    table = PredictionTable.from_names(classes, ids, predicted, rest[0] if header == PRED_GT else None)
    if header != TRACE:
        return io.write_predictions, table
    fired = dict.fromkeys(rest[1])
    codes = [list(fired).index(name) for name in rest[1]]
    final_ids = [classes.index(name) if name != UNKNOWN_NAME else -1 for name in final]
    return io.write_trace, ApplyTrace(table, [flag == "1" for flag in rest[0]], codes, tuple(fired), final_ids)


def label(table, class_id: int) -> str:
    """The name of a class id of ``table``: its classes, then its novel
    names, then UNKNOWN for -1."""
    return (*table.classes.names, *table.novel_names, UNKNOWN_NAME)[class_id]


def prediction_rows(table):
    """The header and rows that ``write_predictions`` writes for ``table``."""
    gt = [] if table.gt_ids is None else [[label(table, i) for i in table.gt_ids.tolist()]]
    rows = zip(table.sample_ids, [label(table, i) for i in table.pred_ids.tolist()], *gt)
    return ["sample_id", "pred", "gt"][: 2 + len(gt)], [list(row) for row in rows]


def trace_rows(trace):
    """The header and rows that ``write_trace`` writes for ``trace``."""
    table = trace.table
    columns = (
        [label(table, i) for i in table.pred_ids.tolist()],
        ["1" if flag else "0" for flag in trace.flagged.tolist()],
        fired_column(trace),
        [label(table, i) for i in trace.final.tolist()],
    )
    return io.TRACE_HEADER, [list(row) for row in zip(table.sample_ids, *columns)]


def write_outcome(writer, path, *args):
    """The bytes a writer writes, or the type and message of what it raises
    (Python 3.10's csv.writer rejects NUL, 3.11's writes it)."""
    try:
        writer(path, *args)
    except Exception as err:  # the exception type and message are the outcome
        return type(err), str(err)
    return path.read_bytes()


class TestWritersMatchReference:
    """The writers against ``csv.writer`` one row at a time
    (``helpers.reference_write_csv_rows``): the same bytes, or the same error."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_text_columns(self, tmp_path_factory, data):
        """The predictions and trace writers, on a table whose ids, class names
        and novel names, and a trace whose fired names, are drawn mostly plain,
        else holding a separator, quote, line break or NUL; a fired name may be
        empty, and a table may have no rows or no ground truth."""
        table = data.draw(writer_tables())
        trace = data.draw(writer_traces(table))
        work = tmp_path_factory.mktemp("w")
        for writer, arg, rows in [(io.write_predictions, table, prediction_rows), (io.write_trace, trace, trace_rows)]:
            got = write_outcome(writer, work / "new.csv", arg)
            assert got == write_outcome(reference_write_csv_rows, work / "old.csv", *rows(arg))

    @settings(max_examples=100)
    @given(width=st.integers(0, 4), data=st.data())
    def test_write_csv_rows(self, tmp_path_factory, width, data):
        header = data.draw(st.lists(TEXT_FIELDS, min_size=width, max_size=width))
        same_width = st.lists(FIELDS, min_size=width, max_size=width)
        any_width = st.lists(FIELDS, max_size=width + 1)
        row = once_in(16).flatmap(lambda ragged: any_width if ragged else same_width)
        rows = data.draw(st.lists(row.map(tuple) | row, max_size=5))
        work = tmp_path_factory.mktemp("w")
        got = write_outcome(io.write_csv_rows, work / "new.csv", header, iter(rows))
        assert got == write_outcome(reference_write_csv_rows, work / "old.csv", header, iter(rows))

    @pytest.mark.parametrize(
        "header, columns",
        [
            (PRED_GT, [("s1", "s2"), ("a", "é"), ("é", "n")]),  # non-ASCII names and a novel one stay bare
            (TRACE, [("s1", "s2"), ("a", "é"), ("0", "1"), ("", "é"), ("a", UNKNOWN_NAME)]),  # so does no fired rule
            (PRED, [(), ()]),  # no records: the header alone
            (TRACE, [(), (), (), (), ()]),  # as apply traces an empty table, with no fired names at all
            (PRED, [("s1", "x\x00"), ("a", "b")]),  # an id with NUL goes to csv.writer
            (PRED_GT, [("s1", "s2"), ("a", "b\x00"), ("b\x00", "a")]),  # so does a class name with NUL
            (PRED, [("x,y", "z"), ("a", "b")]),  # an id with a separator
            (PRED_GT, [("s1", "s2"), ("a,b", "c"), ("c", "n,m")]),  # a class and a novel name with one
            (TRACE, [("s1", "s2"), ("a", "b"), ("0", "1"), ("", "a;b,x"), ("a", "b")]),  # a fired name with one
            (PRED, [('say "hi"', "s2"), ("a", '"b')]),  # an id and a class name with a quote
            (TRACE, [("two\nlines", "s2"), ("a", "b"), ("1", "0"), ("a\nb", ""), ("a", "b")]),  # line breaks
            (PRED, [("x\ry", "s2"), ("a", "b")]),  # a row with a CR is quoted whole
            (TRACE, [("s1", "s2"), ("a", "b\r"), ("0", "0"), ("", "b\r"), ("a", "b\r")]),  # as is each CR row
        ],
    )
    def test_listed_columns(self, tmp_path, header, columns):
        """Text columns given as a file holds them, written through the writer
        of their header from the table or trace that holds them."""
        writer, arg = writer_input(header, columns)
        got = write_outcome(writer, tmp_path / "new.csv", arg)
        assert got == write_outcome(reference_write_csv_rows, tmp_path / "old.csv", header, list(zip(*columns)))

    @pytest.mark.parametrize("ids", [["é", "s1", "ü2"], ["一二", "ß"], ["s1", "é,2"]])
    def test_write_conditions_non_ascii_ids(self, tmp_path, ids):
        """Each id's byte length, not its character count, places it before its row."""
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        bits = np.arange(2 * len(ids)).reshape(len(ids), 2) % 3 == 0
        rows = [[sample_id, *("1" if bit else "0" for bit in row)] for sample_id, row in zip(ids, bits)]
        got = write_outcome(io.write_conditions, tmp_path / "new.csv", table, ConditionMatrix(("c1", "é"), bits))
        assert got == write_outcome(reference_write_csv_rows, tmp_path / "old.csv", ("sample_id", "c1", "é"), rows)

    @settings(max_examples=100)
    @given(ids=WRITER_IDS, m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_write_conditions(self, tmp_path_factory, ids, m, seed, data):
        """With no conditions the file would be a bare header, which
        read_conditions rejects, so nothing is written."""
        names = st.sampled_from(["c1", "c,2", 'c"3', "c\r4", "é"])
        names = data.draw(st.lists(names, min_size=m, max_size=m, unique=True))
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        bits = np.random.default_rng(seed).random((len(ids), m)) < 0.5
        conds = ConditionMatrix(tuple(names), bits)
        work = tmp_path_factory.mktemp("w")
        if not m:
            with pytest.raises(ContractError, match="no conditions"):
                io.write_conditions(work / "new.csv", table, conds)
            assert not list(work.iterdir())
            return
        rows = [[sample_id, *("1" if bit else "0" for bit in row)] for sample_id, row in zip(ids, bits)]
        got = write_outcome(io.write_conditions, work / "new.csv", table, conds)
        assert got == write_outcome(reference_write_csv_rows, work / "old.csv", ("sample_id", *names), rows)


# unicode names plus strings YAML would otherwise read as null, booleans,
# numbers or comments
NAMES = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6),
    st.sampled_from(["null", "~", "yes", "no", "true", "1.0", "0x1f", "#c", "- a", "a: b", "[x]", ""]),
).filter(lambda name: name != UNKNOWN_NAME)
UNIT = st.floats(0.0, 1.0)


@st.composite
def rulesets(draw):
    """Rule sets over arbitrary class and condition names, with a scalar or
    per-class epsilon and any mix of detection and correction rules."""
    # class and condition names are never empty
    classes = ClassSet(tuple(draw(st.lists(NAMES.filter(bool), min_size=1, max_size=4, unique=True))))
    conditions = draw(st.lists(NAMES.filter(bool), min_size=1, max_size=5, unique=True))
    some_conditions = st.lists(st.sampled_from(conditions), min_size=1, max_size=3)
    epsilon = draw(st.one_of(UNIT, st.fixed_dictionaries({name: UNIT for name in classes.names})))
    detection, correction = [], []
    class_ids = range(len(classes))
    for i in class_ids:
        if draw(st.booleans()):
            detection.append(DetectionRule(i, tuple(draw(some_conditions)), draw(UNIT), draw(UNIT)))
        if draw(st.booleans()):
            pairs = [(cond, draw(st.sampled_from(class_ids))) for cond in draw(some_conditions)]
            correction.append(CorrectionRule(i, tuple(pairs), draw(UNIT), draw(UNIT)))
    return RuleSet(classes, tuple(conditions), epsilon, tuple(detection), tuple(correction))


class TestFileFormatRoundTrip:
    @given(rule_set=rulesets())
    def test_ruleset(self, tmp_path_factory, rule_set):
        path = tmp_path_factory.mktemp("rs") / "ruleset.yaml"
        io.save_ruleset(path, rule_set)
        assert io.load_ruleset(path) == rule_set


def run(argv):
    return main([str(part) for part in argv])


def gen_corpus(tmp_path, seed=3, samples=300, noise=0.25, holdout=""):
    out = tmp_path / f"corpus{seed}"
    argv = ["gen", "--seed", seed, "--samples", samples, "--noise", noise, "--out", out]
    if holdout:
        argv += ["--holdout", holdout]
    assert run(argv) == 0
    return out


class TestRowOrder:
    @settings(max_examples=12)
    @given(st.integers(0, 2**16), st.integers(0, 2**32 - 1))
    def test_shuffled_rows(self, tmp_path_factory, corpus_seed, seed):
        """Shuffled predictions and conditions rows learn the same ruleset
        bytes and permute revised.csv and trace.csv like the predictions."""
        corpus = generate_synthetic(seed=corpus_seed, n_samples=120, noise=0.3)
        table, conds = corpus.table, corpus.conditions
        rng = np.random.default_rng(seed)
        order, cond_order = rng.permutation(table.n), rng.permutation(table.n)
        outputs = []
        for pred_rows, cond_rows in ((np.arange(table.n), np.arange(table.n)), (order, cond_order)):
            work = tmp_path_factory.mktemp("rows")
            p, c = work / "predictions.csv", work / "conditions.csv"
            io.write_predictions(p, table.subset(pred_rows))
            io.write_conditions(c, table.subset(cond_rows), conds.rows(cond_rows))
            assert run(["learn", "--predictions", p, "--conditions", c, "--out", work / "learn"]) == 0
            ruleset = work / "learn" / "ruleset.yaml"
            assert run(["apply", "--ruleset", ruleset, "--predictions", p, "--conditions", c,
                        "--out", work / "apply"]) == 0
            revised, trace = ((work / "apply" / name).read_text().splitlines() for name in ("revised.csv", "trace.csv"))
            outputs.append((ruleset.read_bytes(), revised, trace))
        (rules, revised, trace), (shuffled_rules, shuffled_revised, shuffled_trace) = outputs
        assert shuffled_rules == rules
        for before, after in ((revised, shuffled_revised), (trace, shuffled_trace)):
            assert after == before[:1] + [before[1 + k] for k in order]


def crlf_copy(sources, out):
    """Copies of ``sources`` in directory ``out`` with every ``\\n`` made ``\\r\\n``."""
    out.mkdir()
    for source in sources:
        (out / source.name).write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
    return [out / source.name for source in sources]


def test_crlf_corpus_gives_the_same_outputs(tmp_path):
    """learn, apply and eval --trace write the same bytes from a gen corpus,
    which the byte scanner reads, and from a CR-LF copy of it and of apply's
    outputs, which the row parser reads; only manifest.json may differ."""
    corpus = gen_corpus(tmp_path)
    plain = [corpus / "predictions.csv", corpus / "conditions.csv"]
    crlf = crlf_copy(plain, tmp_path / "crlf")
    table = io.read_predictions(plain[0])
    assert io._scan_conditions(plain[1], table) is not None
    assert io._scan_conditions(crlf[1], table) is None
    outputs = []
    for name, (p, c) in (("plain", plain), ("crlf", crlf)):
        out = tmp_path / f"out_{name}"
        assert run(["learn", "--predictions", p, "--conditions", c, "--out", out / "learn"]) == 0
        assert run(["apply", "--ruleset", out / "learn" / "ruleset.yaml", "--predictions", p,
                    "--conditions", c, "--out", out / "apply"]) == 0
        revised, trace = out / "apply" / "revised.csv", out / "apply" / "trace.csv"
        if name == "crlf":
            revised, trace = crlf_copy([revised, trace], tmp_path / "crlf_apply")
        assert run(["eval", "--predictions", revised, "--trace", trace, "--out", out / "eval"]) == 0
        files = sorted(path for path in out.rglob("*") if path.is_file() and path.name != "manifest.json")
        outputs.append({path.relative_to(out): path.read_bytes() for path in files})
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


# every subcommand's options, as option string: (dest, default, required,
# type, help), and the command function it runs
CLI_SURFACE = {
    "gen": ("cmd_gen", {
        "--seed": ("seed", 0, False, int, None),
        "--samples": ("samples", 2000, False, int, None),
        "--noise": ("noise", 0.25, False, float, None),
        "--holdout": ("holdout", "", False, None, "comma-separated classes the mock model never predicts"),
        "--condition-noise": ("condition_noise", 0.05, False, float, None),
        "--out": ("out", None, True, None, None),
    }),
    "learn": ("cmd_learn", {
        "--predictions": ("predictions", None, True, None, None),
        "--conditions": ("conditions", None, True, None, None),
        "--epsilon": ("epsilon", 0.1, False, float, None),
        "--epsilon-per-class": ("epsilon_per_class", "", False, None, "overrides, e.g. walk=0.05,bike=0.2"),
        "--out": ("out", None, True, None, None),
    }),
    "apply": ("cmd_apply", {
        "--ruleset": ("ruleset", None, True, None, None),
        "--predictions": ("predictions", None, True, None, None),
        "--conditions": ("conditions", None, True, None, None),
        "--out": ("out", None, True, None, None),
    }),
    "eval": ("cmd_eval", {
        "--predictions": ("predictions", None, True, None, None),
        "--trace": ("trace", "", False, None, "trace.csv from apply, for error-detection metrics"),
        "--mode": ("mode", "strict", False, None, "strict or novel-aware"),
        "--out": ("out", None, True, None, None),
    }),
    "sweep": ("cmd_sweep", {
        "--predictions": ("predictions", None, True, None, None),
        "--conditions": ("conditions", None, True, None, None),
        "--epsilons": ("epsilons", "0,0.05,0.1,0.2,0.3", False, None, None),
        "--learn-fraction": ("learn_fraction", 0.5, False, float, None),
        "--out": ("out", None, True, None, None),
    }),
    "unseen": ("cmd_unseen", {
        "--predictions": ("predictions", None, True, None, None),
        "--conditions": ("conditions", None, True, None, None),
        "--holdout": ("holdout", None, True, None, "comma-separated holdout classes"),
        "--fractions": ("fractions", "0,0.1,0.2", False, None, None),
        "--epsilon": ("epsilon", 0.1, False, float, None),
        "--learn-fraction": ("learn_fraction", 0.5, False, float, None),
        "--out": ("out", None, True, None, None),
    }),
    "verify": ("cmd_verify", {
        "--predictions": ("predictions", None, True, None, None),
        "--conditions": ("conditions", None, True, None, None),
        "--epsilon": ("epsilon", 0.1, False, float, None),
        "--trials": ("trials", 2000, False, int, None),
        "--correction-scenarios": ("correction_scenarios", 100, False, int, None),
        "--seed": ("seed", 0, False, int, None),
        "--out": ("out", None, True, None, None),
    }),
}


def test_cli_surface():
    """Each subcommand takes exactly these options, each a plain store of
    one value, however the parser declares them; only their order is free."""
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    surface = {}
    for name, command in commands.choices.items():
        options = [action for action in command._actions if not isinstance(action, argparse._HelpAction)]
        assert all(type(action) is argparse._StoreAction and action.nargs is None for action in options)
        assert all(len(action.option_strings) == 1 for action in options)
        surface[name] = (command.get_default("func"), {
            action.option_strings[0]: (action.dest, action.default, action.required, action.type, action.help)
            for action in options
        })
    assert surface == {name: (getattr(cli, func), options) for name, (func, options) in CLI_SURFACE.items()}


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        learn_dir = tmp_path / "learned"
        assert run(
            ["learn", "--predictions", corpus / "predictions.csv", "--conditions",
             corpus / "conditions.csv", "--epsilon", 0.1, "--out", learn_dir]
        ) == 0
        apply_dir = tmp_path / "applied"
        assert run(
            ["apply", "--ruleset", learn_dir / "ruleset.yaml", "--predictions",
             corpus / "predictions.csv", "--conditions", corpus / "conditions.csv",
             "--out", apply_dir]
        ) == 0
        eval_dir = tmp_path / "evaled"
        assert run(
            ["eval", "--predictions", apply_dir / "revised.csv", "--trace",
             apply_dir / "trace.csv", "--mode", "strict", "--out", eval_dir]
        ) == 0
        for out_dir in (corpus, learn_dir, apply_dir, eval_dir):
            manifest = json.loads((out_dir / "manifest.json").read_text())
            for name, digest in manifest["outputs"].items():
                assert io.sha256_file(out_dir / name) == digest
        metrics = (eval_dir / "metrics.csv").read_text()
        assert "error_f1" in metrics

    def test_apply_matches_library_call(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=5)
        learn_dir = tmp_path / "learned"
        run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
             corpus / "conditions.csv", "--out", learn_dir])
        apply_dir = tmp_path / "applied"
        run(["apply", "--ruleset", learn_dir / "ruleset.yaml", "--predictions",
             corpus / "predictions.csv", "--conditions", corpus / "conditions.csv",
             "--out", apply_dir])
        rule_set = io.load_ruleset(learn_dir / "ruleset.yaml")
        table = io.read_predictions(corpus / "predictions.csv", classes=rule_set.classes)
        conds = io.read_conditions(corpus / "conditions.csv", table)
        revised, _ = apply_ruleset(rule_set, table, conds)
        expected = tmp_path / "expected.csv"
        io.write_predictions(expected, revised)
        assert expected.read_bytes() == (apply_dir / "revised.csv").read_bytes()

    def test_empty_ruleset_apply_is_identity(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=6, samples=50)
        table = io.read_predictions(corpus / "predictions.csv")
        empty = RuleSet(table.classes, (), 0.0)
        ruleset_path = tmp_path / "empty.yaml"
        io.save_ruleset(ruleset_path, empty)
        apply_dir = tmp_path / "applied"
        assert run(["apply", "--ruleset", ruleset_path, "--predictions",
                    corpus / "predictions.csv", "--conditions", corpus / "conditions.csv",
                    "--out", apply_dir]) == 0
        revised = io.read_predictions(apply_dir / "revised.csv", classes=table.classes)
        assert revised.pred_ids.tolist() == table.pred_ids.tolist()

    def test_epsilon_range_exit_code(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=7, samples=50)
        code = run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
                    corpus / "conditions.csv", "--epsilon", 1.5, "--out", tmp_path / "x"])
        assert code == 2

    def test_missing_gt_exit_code(self, tmp_path):
        path = tmp_path / "nogt.csv"
        path.write_text("sample_id,pred\nx,a\ny,b\n")
        conds = tmp_path / "c.csv"
        conds.write_text("sample_id,c\nx,1\ny,0\n")
        code = run(["learn", "--predictions", path, "--conditions", conds,
                    "--out", tmp_path / "x"])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,pred,gt\nx,a,a\ny,b\n")
        conds = tmp_path / "c.csv"
        conds.write_text("sample_id,c\nx,1\n")
        code = run(["learn", "--predictions", bad, "--conditions", conds,
                    "--out", tmp_path / "x"])
        assert code == 3

    def test_missing_condition_column_exit_code(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=8, samples=50)
        learn_dir = tmp_path / "learned"
        run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
             corpus / "conditions.csv", "--out", learn_dir])
        table = io.read_predictions(corpus / "predictions.csv")
        narrow = tmp_path / "narrow.csv"
        lines = ["sample_id,nothing"] + [f"{s},0" for s in table.sample_ids]
        narrow.write_text("\n".join(lines) + "\n")
        code = run(["apply", "--ruleset", learn_dir / "ruleset.yaml", "--predictions",
                    corpus / "predictions.csv", "--conditions", narrow,
                    "--out", tmp_path / "x"])
        assert code == 2

    def test_apply_needs_only_the_conditions_rules_use(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path, seed=8, samples=200)
        learn_dir = tmp_path / "learned"
        assert run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
                    corpus / "conditions.csv", "--out", learn_dir]) == 0
        rule_set = io.load_ruleset(learn_dir / "ruleset.yaml")
        used = {c for rule in rule_set.detection_rules for c in rule.conditions}
        used.update(c for rule in rule_set.correction_rules for c, _ in rule.pairs)
        unused = sorted(set(rule_set.condition_names) - used)
        assert used and unused
        table = io.read_predictions(corpus / "predictions.csv")
        conds = io.read_conditions(corpus / "conditions.csv", table)

        def apply_without(name):
            keep = [n for n in conds.condition_names if n != name]
            path = tmp_path / f"without_{name}.csv"
            columns = conds.values[:, [conds.column_index(n) for n in keep]]
            io.write_conditions(path, table, ConditionMatrix(keep, columns))
            return run(["apply", "--ruleset", learn_dir / "ruleset.yaml", "--predictions",
                        corpus / "predictions.csv", "--conditions", path, "--out", tmp_path / f"out_{name}"])

        assert apply_without(None) == 0  # every column present
        assert apply_without(unused[0]) == 0
        for name in ("revised.csv", "trace.csv"):
            narrow, full = (tmp_path / f"out_{cut}" / name for cut in (unused[0], None))
            assert narrow.read_bytes() == full.read_bytes()
        capsys.readouterr()
        assert apply_without(sorted(used)[0]) == 2
        assert f"missing rule conditions ['{sorted(used)[0]}']" in capsys.readouterr().err

    def test_sweep_and_unseen_and_verify(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=9, samples=400, holdout="walk,drive")
        sweep_dir = tmp_path / "sweep"
        assert run(["sweep", "--predictions", corpus / "predictions.csv", "--conditions",
                    corpus / "conditions.csv", "--epsilons", "0,0.1",
                    "--out", sweep_dir]) == 0
        assert (sweep_dir / "sweep.csv").exists()
        unseen_dir = tmp_path / "unseen"
        assert run(["unseen", "--predictions", corpus / "predictions.csv", "--conditions",
                    corpus / "conditions.csv", "--holdout", "walk,drive",
                    "--fractions", "0,0.2", "--out", unseen_dir]) == 0
        text = (unseen_dir / "unseen.csv").read_text()
        assert text.startswith("fraction,baseline_accuracy,edcr_accuracy,delta")
        verify_dir = tmp_path / "verify"
        assert run(["verify", "--predictions", corpus / "predictions.csv", "--conditions",
                    corpus / "conditions.csv", "--trials", 200,
                    "--correction-scenarios", 20, "--out", verify_dir]) == 0
        assert (verify_dir / "theorem_report.csv").exists()

    def test_correction_scope_flag(self, tmp_path, capsys):
        # a correction applies wherever its body matches; there is no scope to pick
        corpus = gen_corpus(tmp_path, seed=14, samples=200)
        learn_dir = tmp_path / "learned"
        run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
             corpus / "conditions.csv", "--out", learn_dir])
        with pytest.raises(SystemExit) as exit_info:
            run(["apply", "--ruleset", learn_dir / "ruleset.yaml",
                 "--predictions", corpus / "predictions.csv", "--conditions", corpus / "conditions.csv",
                 "--correction-scope", "body", "--out", tmp_path / "body"])
        assert exit_info.value.code == 2
        assert "--correction-scope" in capsys.readouterr().err
        assert not (tmp_path / "body").exists()

    @pytest.mark.parametrize("walk_in_gt", [True, False])
    def test_eval_trace_after_a_class_vanishes(self, tmp_path, walk_in_gt):
        """A detection rule that flags every walk prediction leaves no walk in
        revised.csv; eval --trace scores each flag on original name != gt name."""
        corpus = gen_corpus(tmp_path, seed=7, samples=300)
        predictions = corpus / "predictions.csv"
        if not walk_in_gt:
            predictions = tmp_path / "no_walk_gt.csv"
            rows = [line.split(",") for line in (corpus / "predictions.csv").read_text().splitlines()]
            lines = [",".join(row[:2] + ["bike" if row[2] == "walk" else row[2]]) for row in rows]
            predictions.write_text("\n".join(lines) + "\n")
        ruleset = tmp_path / "ruleset.yaml"
        ruleset.write_text(
            "format_version: 1\n"
            "classes: [bike, bus, drive, train, walk]\n"
            "conditions: [g_walk, not_g_walk]\n"
            "epsilon: 0.1\n"
            "detection_rules:\n"
            "- {class: walk, conditions: [g_walk, not_g_walk], class_support: 1.0, confidence: 0.5}\n"
            "correction_rules: []\n"
        )
        apply_dir, eval_dir = tmp_path / "apply", tmp_path / "eval"
        assert run(["apply", "--ruleset", ruleset, "--predictions", predictions,
                    "--conditions", corpus / "conditions.csv", "--out", apply_dir]) == 0
        assert ",walk," not in (apply_dir / "revised.csv").read_text()
        assert run(["eval", "--predictions", apply_dir / "revised.csv", "--trace", apply_dir / "trace.csv",
                    "--out", eval_dir]) == 0

        with open(predictions, newline="") as handle:
            original = {row["sample_id"]: row for row in csv.DictReader(handle)}
        with open(apply_dir / "trace.csv", newline="") as handle:
            flagged = {row["sample_id"]: row["flagged"] == "1" for row in csv.DictReader(handle)}
        assert ("walk" in {row["gt"] for row in original.values()}) == walk_in_gt
        errors = {sample_id for sample_id, row in original.items() if row["pred"] != row["gt"]}
        raised = {sample_id for sample_id, flag in flagged.items() if flag}
        precision = len(raised & errors) / len(raised)
        recall = len(raised & errors) / len(errors)
        with open(eval_dir / "metrics.csv", newline="") as handle:
            metrics = {row["metric"]: row["value"] for row in csv.DictReader(handle)}
        assert float(metrics["error_precision"]) == precision
        assert float(metrics["error_recall"]) == recall
        assert float(metrics["error_f1"]) == 2 * precision * recall / (precision + recall)

    def test_unknown_ground_truth_is_data_error_naming_line(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pred,gt\na,walk,__unknown__\nb,bike,walk\n")
        assert run(["eval", "--predictions", path, "--out", tmp_path / "o"]) == 3
        assert "p.csv:2: ground truth may never be __unknown__" in capsys.readouterr().err

    def test_eval_novel_aware_mode(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=15, samples=200, holdout="walk,drive")
        learn_dir, apply_dir, eval_dir = tmp_path / "l", tmp_path / "a", tmp_path / "e"
        run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
             corpus / "conditions.csv", "--out", learn_dir])
        run(["apply", "--ruleset", learn_dir / "ruleset.yaml", "--predictions",
             corpus / "predictions.csv", "--conditions", corpus / "conditions.csv",
             "--out", apply_dir])
        assert run(["eval", "--predictions", apply_dir / "revised.csv",
                    "--mode", "novel-aware", "--out", eval_dir]) == 0
        text = (eval_dir / "metrics.csv").read_text()
        assert "scoring_mode,,novel-aware" in text

    def test_manifest_input_digests(self, tmp_path):
        corpus = gen_corpus(tmp_path, seed=16, samples=100)
        learn_dir = tmp_path / "learned"
        run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
             corpus / "conditions.csv", "--out", learn_dir])
        manifest = json.loads((learn_dir / "manifest.json").read_text())
        assert manifest["inputs"]["predictions"]["sha256"] == io.sha256_file(corpus / "predictions.csv")
        assert manifest["inputs"]["conditions"]["sha256"] == io.sha256_file(corpus / "conditions.csv")
        assert manifest["command"] == "learn"

    def test_manifest_inputs_sharing_a_file_name(self, tmp_path):
        """Inputs are keyed by flag, so two inputs that share a file name
        each keep their own path and digest."""
        corpus = gen_corpus(tmp_path, seed=3, samples=300)
        assert run(["learn", "--predictions", corpus / "predictions.csv", "--conditions",
                    corpus / "conditions.csv", "--out", tmp_path / "learned"]) == 0
        inputs = {"predictions": tmp_path / "p" / "data.csv", "conditions": tmp_path / "c" / "data.csv"}
        for flag, path in inputs.items():
            path.parent.mkdir()
            path.write_bytes((corpus / f"{flag}.csv").read_bytes())
        assert run(["apply", "--ruleset", tmp_path / "learned" / "ruleset.yaml",
                    "--predictions", inputs["predictions"], "--conditions", inputs["conditions"],
                    "--out", tmp_path / "applied"]) == 0
        manifest = json.loads((tmp_path / "applied" / "manifest.json").read_text())
        assert {flag: manifest["inputs"][flag] for flag in inputs} == {
            flag: {"path": str(path), "sha256": io.sha256_file(path)} for flag, path in inputs.items()
        }

    def test_manifest_digests_an_input_before_an_output_replaces_it(self, tmp_path):
        """``apply --predictions self/revised.csv --out self`` replaces the
        file it read; the manifest holds the digest of the bytes read."""
        corpus = gen_corpus(tmp_path, seed=3, samples=300)
        read = ["--predictions", corpus / "predictions.csv", "--conditions", corpus / "conditions.csv"]
        ruleset, own = tmp_path / "learned" / "ruleset.yaml", tmp_path / "self"
        assert run(["learn", *read, "--out", ruleset.parent]) == 0
        assert run(["apply", "--ruleset", ruleset, *read, "--out", own]) == 0
        read_digest = io.sha256_file(own / "revised.csv")
        assert run(["apply", "--ruleset", ruleset, "--predictions", own / "revised.csv",
                    "--conditions", corpus / "conditions.csv", "--out", own]) == 0
        manifest = json.loads((own / "manifest.json").read_text())
        assert manifest["inputs"]["predictions"] == {"path": str(own / "revised.csv"), "sha256": read_digest}
        assert manifest["outputs"]["revised.csv"] == io.sha256_file(own / "revised.csv") != read_digest

    def test_gen_deterministic_digests(self, tmp_path):
        a = gen_corpus(tmp_path, seed=12, samples=80)
        b_dir = tmp_path / "again"
        assert run(["gen", "--seed", 12, "--samples", 80, "--noise", 0.25,
                    "--out", b_dir]) == 0
        for out in (a, b_dir):
            assert sorted(path.name for path in out.iterdir()) == GEN_FILES
        for name in ("predictions.csv", "conditions.csv"):
            assert (a / name).read_bytes() == (b_dir / name).read_bytes()

    def test_gen_bytes_pinned(self, tmp_path):
        # the seed-7 corpus bytes are fixed across versions, not only across runs
        out = gen_corpus(tmp_path, seed=7, samples=2000)
        assert sorted(path.name for path in out.iterdir()) == GEN_FILES
        assert {name: io.sha256_file(out / name) for name in GEN_SEED7_SHA256} == GEN_SEED7_SHA256


@pytest.fixture(scope="module")
def manifest_runs(tmp_path_factory):
    """Every command run once on one small corpus, each into its own
    directory named after its ``MANIFEST_CASES`` key."""
    root = tmp_path_factory.mktemp("manifests")
    for key, argv in manifest_argvs(root).items():
        assert run([*argv, "--out", root / key]) == 0, key
    return root


def manifest_argvs(root, p=None, c=None, ruleset=None, revised=None, trace=None):
    """Each ``MANIFEST_CASES`` command without its ``--out``, reading the
    files that the commands before it wrote under ``root``, or the files given."""
    p, c = p or root / "gen" / "predictions.csv", c or root / "gen" / "conditions.csv"
    read = ["--predictions", p, "--conditions", c]
    revised, trace = revised or root / "apply" / "revised.csv", trace or root / "apply" / "trace.csv"
    return {
        "gen": ["gen", "--seed", 9, "--samples", 400, "--holdout", "walk,drive"],
        "learn": ["learn", *read, "--epsilon", 0.2],
        "apply": ["apply", "--ruleset", ruleset or root / "learn" / "ruleset.yaml", *read],
        "eval": ["eval", "--predictions", revised, "--trace", trace],
        "eval_no_trace": ["eval", "--predictions", revised, "--mode", "novel-aware"],
        "sweep": ["sweep", *read, "--epsilons", "0,0.1", "--learn-fraction", 0.4],
        "unseen": ["unseen", *read, "--holdout", "walk,drive", "--fractions", "0,0.2"],
        "verify": ["verify", *read, "--trials", 200, "--correction-scenarios", 20, "--seed", 5],
    }


# the corpus inputs, by flag, as paths under the runs' root
CORPUS = {"predictions": "gen/predictions.csv", "conditions": "gen/conditions.csv"}

# command, seed, config, inputs (by flag, as paths under the runs' root) and outputs
MANIFEST_CASES = {
    "gen": ("gen", 9, {"samples": 400, "noise": 0.25, "holdout": "walk,drive", "condition_noise": 0.05},
            {}, ["predictions.csv", "conditions.csv"]),
    "learn": ("learn", None, {"epsilon": 0.2}, CORPUS, ["ruleset.yaml"]),
    "apply": ("apply", None, {}, {"ruleset": "learn/ruleset.yaml", **CORPUS}, ["revised.csv", "trace.csv"]),
    "eval": ("eval", None, {"mode": "strict"},
             {"predictions": "apply/revised.csv", "trace": "apply/trace.csv"}, ["metrics.csv"]),
    "eval_no_trace": ("eval", None, {"mode": "novel-aware"}, {"predictions": "apply/revised.csv"}, ["metrics.csv"]),
    "sweep": ("sweep", None, {"epsilons": [0.0, 0.1], "learn_fraction": 0.4}, CORPUS, ["sweep.csv"]),
    "unseen": ("unseen", None,
               {"holdout": "walk,drive", "fractions": [0.0, 0.2], "epsilon": 0.1, "learn_fraction": 0.5},
               CORPUS, ["unseen.csv"]),
    "verify": ("verify", 5, {"epsilon": 0.1, "trials": 200, "correction_scenarios": 20},
               CORPUS, ["theorem_report.csv"]),
}


@pytest.mark.parametrize("key", MANIFEST_CASES)
def test_manifest_of_every_command(manifest_runs, key):
    """Each command's manifest names its command, seed and config, records
    exactly the files its flags read, each under its flag with the path as
    given and its digest, and digests every other file it wrote."""
    command, seed, config, inputs, outputs = MANIFEST_CASES[key]
    out = manifest_runs / key
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["command"], manifest["seed"], manifest["config"]) == (command, seed, config)
    assert manifest["inputs"] == {
        flag: {"path": str(manifest_runs / name), "sha256": io.sha256_file(manifest_runs / name)}
        for flag, name in inputs.items()
    }
    written = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
    assert sorted(outputs) == written
    assert manifest["outputs"] == {name: io.sha256_file(out / name) for name in written}


def test_failed_rerun_leaves_no_manifest(tmp_path):
    """A run into a directory that an earlier run filled deletes the earlier
    manifest before it writes, so a run that fails part way leaves none."""
    corpus = gen_corpus(tmp_path, seed=16, samples=100)
    read = ["--predictions", corpus / "predictions.csv", "--conditions", corpus / "conditions.csv"]
    assert run(["learn", *read, "--out", tmp_path / "learned"]) == 0
    out = tmp_path / "applied"
    argv = ["apply", "--ruleset", tmp_path / "learned" / "ruleset.yaml", *read, "--out", out]
    assert run(argv) == 0 and (out / "manifest.json").is_file()
    (out / "revised.csv").write_text("stale\n")
    (out / "trace.csv").unlink()
    (out / "trace.csv").mkdir()  # the trace writer cannot replace a directory
    assert run(argv) == 3
    assert (out / "revised.csv").read_text() != "stale\n"  # written before the trace failed
    assert not (out / "manifest.json").exists()


def quoted_copy(sources, out):
    """Copies of ``sources`` in directory ``out`` with the id of the first
    record quoted, which ``csv.reader`` reads as the same id."""
    out.mkdir()
    for source in sources:
        header, first, rest = source.read_bytes().split(b"\n", 2)
        sample_id, cells = first.split(b",", 1)
        (out / source.name).write_bytes(b"\n".join([header, b'"%s",%s' % (sample_id, cells), rest]))
    return [out / source.name for source in sources]


@pytest.fixture(scope="module", params=["plain", "crlf", "quoted"])
def layout_runs(request, tmp_path_factory):
    """Every command of ``MANIFEST_CASES`` run, each into its own directory
    under the returned root, on inputs in one layout: as written, which the
    byte scanner reads, or CR-LF or with a quoted id, which send every CSV
    input to the row parser.  The CR-LF layout has a CR-LF rule set too."""
    layout, root = request.param, tmp_path_factory.mktemp(request.param)
    copy = {"plain": lambda sources, out: sources, "crlf": crlf_copy, "quoted": quoted_copy}[layout]
    argvs = manifest_argvs(root)
    assert run([*argvs["gen"], "--out", root / "gen"]) == 0
    p, c = copy([root / "gen" / "predictions.csv", root / "gen" / "conditions.csv"], root / "read")
    assert run([*manifest_argvs(root, p, c)["learn"], "--out", root / "learn"]) == 0
    ruleset = root / "learn" / "ruleset.yaml"
    ruleset = crlf_copy([ruleset], root / "rules")[0] if layout == "crlf" else ruleset
    assert run([*manifest_argvs(root, p, c, ruleset)["apply"], "--out", root / "apply"]) == 0
    revised, trace = copy([root / "apply" / "revised.csv", root / "apply" / "trace.csv"], root / "applied")
    table, revised_table = io.read_predictions(p), io.read_predictions(revised)
    scans = [
        io._scan_columns(p, io._PREDICTIONS.headers, None),
        io._scan_conditions(c, table),
        io._scan_columns(revised, io._PREDICTIONS.headers, None),
        io._scan_columns(trace, io._TRACE.headers, revised_table),
    ]
    assert [scan is not None for scan in scans] == [layout == "plain"] * 4
    for key, argv in manifest_argvs(root, p, c, ruleset, revised, trace).items():
        if key not in ("gen", "learn", "apply"):
            assert run([*argv, "--out", root / key]) == 0, key
    return root


@pytest.mark.parametrize("key", [key for key in MANIFEST_CASES if key != "gen"])
def test_manifest_input_digests_are_the_files_digests(layout_runs, key):
    """In every layout, each input the manifest records under its flag has
    the SHA-256 of the file at its recorded path."""
    inputs = json.loads((layout_runs / key / "manifest.json").read_text())["inputs"]
    assert sorted(inputs) == sorted(MANIFEST_CASES[key][3])
    for flag, entry in inputs.items():
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest(), flag


_OPENS: list[Counter] = []  # the counter of the test that holds the open spy, if one runs


def _count_open(event, args):
    if event == "open" and _OPENS:
        _OPENS[0][str(args[0])] += 1


@pytest.fixture
def opens():
    """A Counter of the files opened while the test runs, by path.  An audit
    hook sees every open, however it is made; hooks cannot be removed, so
    one is added on first use and counts only while a test holds the spy."""
    if not getattr(_count_open, "added", False):
        sys.addaudithook(_count_open)
        _count_open.added = True
    _OPENS.append(Counter())
    yield _OPENS[0]
    _OPENS.clear()


@pytest.mark.parametrize("key", [key for key in MANIFEST_CASES if key != "gen"])
def test_each_scanned_input_is_opened_once(manifest_runs, tmp_path, opens, key):
    """A command reads each input in the plain layout once, digesting it as
    it is scanned, and joins its digest worker before it returns."""
    threads = threading.active_count()
    assert run([*manifest_argvs(manifest_runs)[key], "--out", tmp_path / key]) == 0
    inputs = MANIFEST_CASES[key][3]
    assert {flag: opens[str(manifest_runs / name)] for flag, name in inputs.items()} == dict.fromkeys(inputs, 1)
    assert threading.active_count() == threads


def test_a_library_read_starts_no_thread_and_digests_nothing(manifest_runs, tmp_path, monkeypatch):
    """Outside a command, the readers, scanner and row parser alike, read
    plain files: no thread starts and nothing is digested."""
    def refuse(*args, **kwargs):
        raise AssertionError("a library read started a thread or a digest")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(hashlib, "sha256", refuse)
    corpus, applied = manifest_runs / "gen", manifest_runs / "apply"
    crlf = crlf_copy([corpus / "predictions.csv", corpus / "conditions.csv"], tmp_path / "crlf")
    rule_set = io.load_ruleset(manifest_runs / "learn" / "ruleset.yaml")
    for p, c in ((corpus / "predictions.csv", corpus / "conditions.csv"), crlf):
        io.read_conditions(c, io.read_predictions(p, classes=rule_set.classes))
    io.read_trace(applied / "trace.csv", io.read_predictions(applied / "revised.csv"))


def test_digests_hold_under_fast_thread_switching(tmp_path):
    """Readers on six threads, in small chunks, while the interpreter
    switches threads as often as it can: each file's digest is still the
    SHA-256 of its bytes, so no update is lost or run out of order."""
    rng = np.random.default_rng(0)
    paths = [tmp_path / f"{k}.bin" for k in range(6)]
    for k, path in enumerate(paths):
        path.write_bytes(rng.bytes(200_000 + k))

    def read(path):
        with io._open(path) as handle:
            while handle.read(3000):  # over the 2 KiB from which hashlib releases the GIL
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with io._digesting() as digests:
            # a thread starts in an empty context, so each runs in a copy of this one
            threads = [threading.Thread(target=contextvars.copy_context().run, args=(read, path)) for path in paths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def cli_process(argv, **options) -> subprocess.Popen:
    """``edcr`` run in a child process on this tree's package."""
    src = str(Path(io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from edcr.cli import main; sys.exit(main())"
    return subprocess.Popen([sys.executable, "-c", code, *map(str, argv)], env=env, **options)


def eval_on_fifo(fifo: Path, data: bytes, out: Path) -> tuple[int, bytes]:
    """The exit code and stderr of ``edcr eval`` in a child process on a new
    FIFO that a thread writes ``data`` to and closes."""
    assert len(data) < 1 << 16  # fits the pipe's buffer, so the writer never waits for the reader to read
    os.mkfifo(fifo)
    child = cli_process(["eval", "--predictions", fifo, "--out", out], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))  # opening waits for the reader
    writer.start()
    try:
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        writer.join(timeout=5)
        if writer.is_alive():  # the child never opened the FIFO; the data fits the pipe's buffer
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(timeout=60)
            os.close(reader)
    assert not writer.is_alive()
    return child.returncode, err


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
def test_eval_digests_piped_predictions(manifest_runs, tmp_path):
    """A piped input is read once, so its digest is that of the bytes piped,
    not of the empty rest of the pipe."""
    data = (manifest_runs / "apply" / "revised.csv").read_bytes()
    child = cli_process(["eval", "--predictions", "/dev/stdin", "--out", tmp_path / "e"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, err = child.communicate(data, timeout=60)
    finally:
        child.kill()
    assert child.returncode == 0, err
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert manifest["inputs"] == {"predictions": {"path": "/dev/stdin", "sha256": hashlib.sha256(data).hexdigest()}}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_eval_reads_a_fifo_once(manifest_runs, tmp_path):
    """eval on a FIFO finishes: nothing opens the FIFO a second time, which
    would wait for a writer that never comes."""
    data = (manifest_runs / "apply" / "revised.csv").read_bytes()
    returncode, err = eval_on_fifo(tmp_path / "revised.fifo", data, tmp_path / "e")
    assert returncode == 0, err
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert manifest["inputs"]["predictions"]["sha256"] == hashlib.sha256(data).hexdigest()


PIPE_REFUSED = "a pipe the byte scanner refuses cannot be read a second time; use a file"


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
def test_eval_refuses_piped_predictions_outside_the_plain_layout(manifest_runs, tmp_path):
    """CR-LF predictions piped in are refused by the scanner, and the row
    parser cannot read the pipe again: a data error that says so, not an
    empty file."""
    data = (manifest_runs / "apply" / "revised.csv").read_bytes().replace(b"\n", b"\r\n")
    child = cli_process(["eval", "--predictions", "/dev/stdin", "--out", tmp_path / "e"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, err = child.communicate(data, timeout=60)
    finally:
        child.kill()
    assert child.returncode == 3, err
    assert f"/dev/stdin: {PIPE_REFUSED}" in err.decode()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_eval_refuses_a_fifo_outside_the_plain_layout(manifest_runs, tmp_path):
    """CR-LF predictions in a FIFO whose writer has gone are a data error,
    not a wait for a second writer."""
    data = (manifest_runs / "apply" / "revised.csv").read_bytes().replace(b"\n", b"\r\n")
    fifo = tmp_path / "revised.fifo"
    returncode, err = eval_on_fifo(fifo, data, tmp_path / "e")
    assert returncode == 3, err
    assert f"{fifo}: {PIPE_REFUSED}" in err.decode()


#: Every file ``edcr gen`` writes, in name order.
GEN_FILES = ["conditions.csv", "manifest.json", "predictions.csv"]

#: SHA-256 of ``edcr gen --seed 7 --samples 2000`` with the default noise.
GEN_SEED7_SHA256 = {
    "predictions.csv": "ca868347f1050bafcf297165d52806f53502468b5b8ba2841286d4b07934d85c",
    "conditions.csv": "c231402e78989c4b235328ec80fc74e6adea1eff923ce876361926e0835dcd90",
}

#: SHA-256 of every file but ``manifest.json`` that the README CLI block writes.
README_BLOCK_SHA256 = {
    "runs/corpus/predictions.csv": GEN_SEED7_SHA256["predictions.csv"],
    "runs/corpus/conditions.csv": GEN_SEED7_SHA256["conditions.csv"],
    "runs/learned/ruleset.yaml": "437e25148f461b73b20d94700e26fe323c86c75aedef2a9dd06a9016e0001cdf",
    "runs/applied/revised.csv": "cf94858fd5be1a416c0c2e68c8dc2a3fc23310a9d1d1580b3a47869a720b79e7",
    "runs/applied/trace.csv": "05430c957a896adb7801c6131a530ad14504f65f92799669f657be7d53029c56",
    "runs/evaled/metrics.csv": "5503e62d3b8662797396877f3666b402227b8a875c043fb9ab796e8abb575b08",
    "runs/sweep/sweep.csv": "21ea0ee8892cca48dd4ec0686b9c3902d31e00866fb438a2ef94d373247111e3",
    "runs/held/predictions.csv": "ebd0d72a9481ff0d09051e2527f9cb931d687dbc857d164514fae76e78e808f0",
    "runs/held/conditions.csv": "2f6933cfdd979c1a52ae39dd55b04279a133b70c0f8a48311e96eceef9657b0e",
    "runs/unseen/unseen.csv": "4e04bbab0f07163edc42c29dd35187e3cb0d2ceb7a9559f127d5fa07e43fc34e",
    "runs/verify/theorem_report.csv": "bf1989b4fb8dd30cad9ee23feed98441f19de5984e6eb595a5430a3ca9d019c1",
}


def test_readme_block_bytes_pinned(tmp_path, monkeypatch):
    """The README's CLI block, run in order through ``cli.main``, writes the
    same bytes on every version; only the manifests may differ."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [["edcr", name] for name in (
        "gen", "learn", "apply", "eval", "sweep", "gen", "unseen", "verify")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    written = {
        path.relative_to(tmp_path).as_posix(): io.sha256_file(path)
        for path in tmp_path.rglob("*") if path.is_file() and path.name != "manifest.json"
    }
    assert written == README_BLOCK_SHA256


# NUL is left out, as from SAMPLE_IDS: round-trips are promised only for ids
# without it, and Python 3.10's csv writer and reader reject it
TRICKY_IDS = ["a\rb", "c\r\nd", 'q"uote', "x,y", "\n", " pad ", " sep"]


def test_tricky_ids_roundtrip(tmp_path):
    n = len(TRICKY_IDS)
    table = make_table(["a", "b"], (["a", "b"] * 4)[:n], (["b", "a"] * 4)[:n], ids=TRICKY_IDS)
    conds = make_conds(["c1", "c2"], [([1, 0] * 4)[:n], ([1, 1, 0, 0] * 2)[:n]])
    io.write_predictions(tmp_path / "p.csv", table)
    io.write_conditions(tmp_path / "c.csv", table, conds)
    _, trace = apply_ruleset(sample_ruleset(), table, conds)
    io.write_trace(tmp_path / "t.csv", trace)
    back = io.read_predictions(tmp_path / "p.csv", classes=table.classes)
    assert same_table(back, table)
    assert np.array_equal(io.read_conditions(tmp_path / "c.csv", back).values, conds.values)
    assert same_trace(io.read_trace(tmp_path / "t.csv", table), trace)


def test_nul_id_apply_exits_cleanly(tmp_path, capsys):
    # an id with NUL is outside the documented round-trip contract, but
    # apply must still exit 0 (Python 3.11 and later accept it) or 3
    # (Python 3.10's csv rejects it), never raise
    io.save_ruleset(tmp_path / "rules.yaml", sample_ruleset())
    (tmp_path / "p.csv").write_bytes(b"sample_id,pred,gt\nx,a,a\nnul\x00id,b,a\n")
    (tmp_path / "c.csv").write_bytes(b"sample_id,c1,c2\nx,1,0\nnul\x00id,1,1\n")
    argv = ["apply", "--ruleset", tmp_path / "rules.yaml", "--predictions", tmp_path / "p.csv",
            "--conditions", tmp_path / "c.csv", "--out", tmp_path / "out"]
    assert run(argv) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def wide_corpus(tmp_path, extra=55):
    """A generated corpus with ``extra`` random columns appended (15 + extra conditions)."""
    corpus = gen_corpus(tmp_path, seed=21, samples=300)
    table = io.read_predictions(corpus / "predictions.csv")
    conds = io.read_conditions(corpus / "conditions.csv", table)
    rng = np.random.default_rng(4)
    names = conds.condition_names + tuple(f"rand_{j}" for j in range(extra))
    values = np.hstack([conds.values, rng.random((table.n, extra)) < 0.05])
    io.write_conditions(corpus / "wide.csv", table, ConditionMatrix(names, values))
    return corpus


def test_verify_names_a_check_with_nothing_to_check_skipped(tmp_path, capsys):
    """With 15 conditions the submodularity scan is sampled, so --trials 0
    checks no pair, and --correction-scenarios 0 builds no scenario: each is
    named skipped, not ok, and the exit code is still 0."""
    corpus = gen_corpus(tmp_path, seed=21, samples=300)
    read = ["--predictions", corpus / "predictions.csv", "--conditions", corpus / "conditions.csv"]
    assert run(["verify", *read, "--trials", 0, "--out", tmp_path / "t"]) == 0
    out = capsys.readouterr().out
    for quantity in ("pos", "neg", "bod"):
        assert f"submodularity {quantity}: skipped (0 sampled pairs)\n" in out
    assert "correction theorems: ok (100 constructed scenarios)\n" in out
    assert run(["verify", *read, "--trials", 5, "--correction-scenarios", 0, "--out", tmp_path / "c"]) == 0
    out = capsys.readouterr().out
    assert "submodularity pos: ok (5 sampled pairs)\n" in out
    assert "correction theorems: skipped (0 constructed scenarios)\n" in out


def test_verify_trials_zero_on_an_exhaustive_scan_is_ok(tmp_path, capsys):
    """Up to 12 conditions the scan is exhaustive and ignores --trials."""
    corpus = gen_corpus(tmp_path, seed=21, samples=300)
    table = io.read_predictions(corpus / "predictions.csv")
    conds = io.read_conditions(corpus / "conditions.csv", table)
    io.write_conditions(corpus / "narrow.csv", table, ConditionMatrix(conds.condition_names[:12], conds.values[:, :12]))
    assert run(["verify", "--predictions", corpus / "predictions.csv", "--conditions", corpus / "narrow.csv",
                "--trials", 0, "--correction-scenarios", 5, "--out", tmp_path / "v"]) == 0
    out = capsys.readouterr().out
    for quantity in ("pos", "neg", "bod"):
        assert f"submodularity {quantity}: ok (exhaustive)\n" in out


def test_verify_beyond_64_conditions(tmp_path, capsys):
    corpus = wide_corpus(tmp_path)
    code = run(["verify", "--predictions", corpus / "predictions.csv", "--conditions",
                corpus / "wide.csv", "--trials", 50, "--correction-scenarios", 5,
                "--out", tmp_path / "verify"])
    assert code in (0, 4)
    assert "submodularity pos" in capsys.readouterr().out


RULESET_TEXT = """format_version: 1
classes: [a, b]
conditions: [c1, c2]
epsilon: {epsilon}
detection_rules:
- class: a
  conditions: [c1]
  class_support: {class_support}
  confidence: 0.5
correction_rules:
- class: b
  pairs:
  - [c2, a]
  support: 0.25
  confidence: {confidence}
"""


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", "-3"),
        ("epsilon", "{a: 0.1, b: .nan}"),
        ("class_support", "7.0"),
        ("class_support", "-.inf"),
        ("confidence", ".nan"),
        ("confidence", "1.5"),
    ],
)
def test_ruleset_values_validated_on_load(tmp_path, capsys, field, value):
    values = {"epsilon": "0.1", "class_support": "0.5", "confidence": "0.9", field: value}
    ruleset = tmp_path / "rules.yaml"
    ruleset.write_text(RULESET_TEXT.format(**values))
    with pytest.raises(DataError, match=field):
        io.load_ruleset(ruleset)
    table = make_table(["a", "b"], ["a", "b"])
    io.write_predictions(tmp_path / "p.csv", table)
    io.write_conditions(tmp_path / "c.csv", table, make_conds(["c1", "c2"], [[1, 0], [0, 1]]))
    code = run(["apply", "--ruleset", ruleset, "--predictions", tmp_path / "p.csv",
                "--conditions", tmp_path / "c.csv", "--out", tmp_path / "out"])
    assert code == 3
    assert field in capsys.readouterr().err


def test_inconsistent_ruleset_is_data_error(tmp_path):
    text = RULESET_TEXT.format(epsilon="0.1", class_support="0.5", confidence="0.9")
    ruleset = tmp_path / "rules.yaml"
    ruleset.write_text(text.replace("conditions: [c1, c2]", "conditions: [c2]"))
    with pytest.raises(DataError, match="undeclared"):
        io.load_ruleset(ruleset)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The CLI inputs of a small corpus: predictions, conditions, the learned
    ruleset and the trace of applying it."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = gen_corpus(root, seed=31, samples=40)
    p, c = corpus / "predictions.csv", corpus / "conditions.csv"
    assert run(["learn", "--predictions", p, "--conditions", c, "--out", root / "learn"]) == 0
    ruleset = root / "learn" / "ruleset.yaml"
    assert run(["apply", "--ruleset", ruleset, "--predictions", p, "--conditions", c, "--out", root / "apply"]) == 0
    return {"predictions": p, "conditions": c, "ruleset": ruleset, "trace": root / "apply" / "trace.csv"}


# a byte position, as a fraction of the file, and a byte: often one that
# steers CSV or YAML parsing, NUL, or one that is not UTF-8
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete"]),
        st.floats(0.0, 1.0),
        st.one_of(st.sampled_from(list(b'",\r\n\x00\xff01;:-[ ')), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=4,
)


class TestByteMutationFuzz:
    """Flipped, inserted and deleted bytes in any input of ``apply`` and
    ``eval --trace`` end in exit 0, 2 or 3, never in an uncaught exception."""

    @pytest.mark.parametrize("target", ["predictions", "conditions", "ruleset", "trace"])
    @settings(max_examples=50)
    @given(edits=EDITS)
    def test_cli_exits_cleanly(self, fuzz_inputs, tmp_path_factory, target, edits):
        data = bytearray(fuzz_inputs[target].read_bytes())
        for op, where, byte in edits:
            at = min(int(where * len(data)), max(len(data) - 1, 0))
            if op == "insert":
                data.insert(at, byte)
            elif data and op == "delete":
                del data[at]
            elif data:
                data[at] ^= 1 << (byte % 8)
        work = tmp_path_factory.mktemp("mutated")
        inputs = {**fuzz_inputs, target: work / fuzz_inputs[target].name}
        inputs[target].write_bytes(bytes(data))
        p = inputs["predictions"]
        applied = run(["apply", "--ruleset", inputs["ruleset"], "--predictions", p,
                       "--conditions", inputs["conditions"], "--out", work / "apply"])
        evaluated = run(["eval", "--predictions", p, "--trace", inputs["trace"], "--out", work / "eval"])
        assert {applied, evaluated} <= {0, 2, 3}


@pytest.fixture(scope="module")
def argv_inputs(fuzz_inputs, tmp_path_factory):
    """The byte-fuzz inputs, a corpus with walk held out (which ``unseen``
    needs to exit 0), a regular file and a path that does not exist."""
    root = tmp_path_factory.mktemp("argv")
    held = gen_corpus(root, seed=32, samples=40, holdout="walk")
    regular = root / "regular.txt"
    regular.write_text("not a directory\n")
    return {**fuzz_inputs, "held_predictions": held / "predictions.csv",
            "held_conditions": held / "conditions.csv", "regular": regular, "absent": root / "absent.csv"}


# flag values: numbers at and beyond every range edge, empty and malformed
# text, and lists with empty, repeated and unknown class names; a value that
# is a key of ``argv_inputs`` stands for that file
NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "2", "", "x"])
CLASS_NAMES = st.sampled_from(["walk", "bike", "bus", "drive", "train", "zeppelin", "", " walk", UNKNOWN_NAME])
SEEDS = st.sampled_from(["0", "7", str(2**64), "-1", "1.5", "", "x"])
FILES = st.sampled_from(["predictions", "conditions", "ruleset", "trace", "held_predictions", "absent"])


# class=value parts, some without "=" and some with a value that is "=..."
EPSILON_PER_CLASS = st.tuples(CLASS_NAMES, st.sampled_from(["=", "", "=="]), NUMBERS).map("".join)


def counts(*small):
    """Small counts that start little work, and values no count may take."""
    return st.sampled_from([*small, "-1", "0", "", "x", "nan", "1.5"])


def listed(parts):
    return st.lists(parts, max_size=4).map(",".join)


def argv_flags(command):
    """Each flag of ``command``: the value a valid run gives it (None leaves
    an optional flag out) and the values the fuzz draws for it."""
    held = "held_" if command == "unseen" else ""
    read = {"--predictions": (held + "predictions", FILES), "--conditions": (held + "conditions", FILES)}
    epsilon = {"--epsilon": (None, NUMBERS)}
    flags = {
        "gen": {"--seed": (None, SEEDS), "--samples": ("12", counts("5", "12", "30")),
                "--noise": (None, NUMBERS), "--holdout": (None, listed(CLASS_NAMES)),
                "--condition-noise": (None, NUMBERS)},
        "learn": {**read, **epsilon, "--epsilon-per-class": (None, listed(EPSILON_PER_CLASS))},
        "apply": {**read, "--ruleset": ("ruleset", FILES)},
        "eval": {"--predictions": read["--predictions"], "--trace": ("trace", FILES | st.just("")),
                 "--mode": (None, st.sampled_from(["strict", "novel-aware", "fuzzy", ""]))},
        "sweep": {**read, "--epsilons": (None, listed(NUMBERS)), "--learn-fraction": (None, NUMBERS)},
        "unseen": {**read, **epsilon, "--holdout": ("walk", listed(CLASS_NAMES)),
                   "--fractions": (None, listed(NUMBERS)), "--learn-fraction": (None, NUMBERS)},
        "verify": {**read, **epsilon, "--trials": ("20", counts("1", "50")),
                   "--correction-scenarios": ("2", counts("1", "3")), "--seed": (None, SEEDS)},
    }[command]
    return {**flags, "--out": ("out", st.just("regular"))}


def exit_code(argv) -> int:
    try:
        return run(argv)
    except SystemExit as exit:  # argparse rejects a malformed value or a missing flag
        assert exit.code == 2, argv
        return exit.code


ARGV_COMMANDS = ("gen", "learn", "apply", "eval", "sweep", "unseen", "verify")


class TestArgvFuzz:
    """Each flag of each command given a drawn value or left out, with up to
    two more flags drawn too and the rest as in a valid run, ends in exit 0,
    2, 3 or 4 and raises nothing; a run that exits 0 wrote its manifest."""

    @pytest.mark.parametrize("command, flag", [(c, f) for c in ARGV_COMMANDS for f in argv_flags(c)])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_cli_exits_cleanly(self, argv_inputs, tmp_path_factory, command, flag, data):
        flags = argv_flags(command)
        others = st.lists(st.sampled_from(sorted(set(flags) - {flag})), max_size=2, unique=True)
        fuzzed = {flag, *data.draw(others, label="also fuzzed")}
        files = {**argv_inputs, "out": tmp_path_factory.mktemp("argv_out") / "out"}
        argv = [command]
        for name, (good, values) in flags.items():
            value = data.draw(st.none() | values, label=name) if name in fuzzed else good
            if value is not None:
                argv += [name, files.get(value, value)]
        code = exit_code(argv)
        event(f"exit {code}")
        assert code in {0, 2, 3, 4}, argv
        assert code != 0 or (Path(argv[argv.index("--out") + 1]) / "manifest.json").is_file(), argv


def error_classes(base=EdcrError):
    return [base] + [cls for sub in base.__subclasses__() for cls in error_classes(sub)]


# the exit codes the README documents; a new error class must be added here
DOCUMENTED_EXIT_CODES = {
    EdcrError: 4,
    ContractError: 2,
    UnknownConditionError: 2,
    UnknownClassError: 2,
    DegenerateStatsError: 2,
    DataError: 3,
    VerificationError: 4,
    OSError: 3,
    FileNotFoundError: 3,
    PermissionError: 3,
}


@pytest.mark.parametrize("error", [*error_classes(), OSError, FileNotFoundError, PermissionError],
                         ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_documented_code(monkeypatch, capsys, error):
    def command(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_eval", command)
    assert main(["eval", "--predictions", "p.csv", "--out", "o"]) == DOCUMENTED_EXIT_CODES[error]
    assert capsys.readouterr().err == "error: boom\n"


def invalid_invocations(tmp_path):
    """(argv, expected exit code) pairs over a small corpus."""
    corpus = gen_corpus(tmp_path, seed=22, samples=60)
    p, c = corpus / "predictions.csv", corpus / "conditions.csv"
    held = gen_corpus(tmp_path, seed=23, samples=60, holdout="walk")
    regular = tmp_path / "regular.txt"
    regular.write_text("not a directory\n")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("sample_id,pred,gt\nx,caf\xe9,a\n".encode("latin-1"))
    learn_dir = tmp_path / "learned"
    assert run(["learn", "--predictions", p, "--conditions", c, "--out", learn_dir]) == 0
    ruleset = learn_dir / "ruleset.yaml"
    bad_trace = tmp_path / "bad_trace.csv"
    bad_trace.write_text("sample_id,original,flagged,fired,final\nx,no_such_class,0,,walk\n")
    header, rows = c.read_text().split("\n", 1)
    dup_names, empty_name = tmp_path / "dup_names.csv", tmp_path / "empty_name.csv"
    dup_names.write_text(header.replace(",not_g_walk,", ",g_walk,") + "\n" + rows)
    empty_name.write_text(header.replace(",g_bike,", ",,") + "\n" + rows)
    header, first, rows = p.read_text().split("\n", 2)
    empty_pred = tmp_path / "empty_pred.csv"
    empty_pred.write_text("\n".join([header, first.split(",")[0] + ",,walk", rows]))
    first_id, first_pred = first.split(",")[:2]
    short_trace = tmp_path / "short_trace.csv"
    short_trace.write_text(f"sample_id,original,flagged,fired,final\n{first_id},{first_pred},0,,{first_pred}\n")
    unknown_gt = tmp_path / "unknown_gt.csv"
    unknown_gt.write_text("sample_id,pred,gt\na,walk,__unknown__\nb,bike,walk\n")
    binary_ruleset = tmp_path / "binary_ruleset.yaml"
    binary_ruleset.write_bytes(ruleset.read_bytes() + b"# \xff\n")
    # a valid trace of p with one final cell emptied, and with an extra row of an empty id
    assert run(["apply", "--ruleset", ruleset, "--predictions", p, "--conditions", c,
                "--out", tmp_path / "applied"]) == 0
    header, first, rows = (tmp_path / "applied" / "trace.csv").read_text().split("\n", 2)
    empty_final, empty_trace_id = tmp_path / "empty_final.csv", tmp_path / "empty_trace_id.csv"
    empty_final.write_text("\n".join([header, first.rsplit(",", 1)[0] + ",", rows]))
    empty_trace_id.write_text("\n".join([header, first, "," + first.split(",", 1)[1], rows]))
    empty_class = tmp_path / "empty_class.yaml"
    empty_class.write_text(ruleset.read_text().replace("classes:\n", "classes:\n- ''\n", 1))
    # an empty condition name, declared and used by the first detection rule
    empty_condition = tmp_path / "empty_condition.yaml"
    text = ruleset.read_text().replace("\nconditions:\n", "\nconditions:\n- ''\n", 1)
    empty_condition.write_text(text.replace("  conditions:\n", "  conditions:\n  - ''\n", 1))
    # rule-set documents with a value of the wrong type, each once read without
    # a word: a bare string as its characters, a bool as a number
    ab_p, ab_c = tmp_path / "ab_predictions.csv", tmp_path / "ab_conditions.csv"
    ab_p.write_text("sample_id,pred,gt\nx,a,a\ny,b,a\n")
    ab_c.write_text("sample_id,s,p,e,d\nx,1,0,0,0\ny,0,0,0,1\n")
    typed = ("format_version: 1\nclasses: [a, b]\nconditions: [d, e, p, s]\nepsilon: 0.1\n"
             "detection_rules: [{class: a, conditions: [d, e, p, s], class_support: 0.5, confidence: 1.0}]\n")
    loose_texts = [
        "format_version: 1\nclasses: ab\nconditions: speed\nepsilon: {a: 0.1, b: 0.2}\n"
        "detection_rules: [{class: a, conditions: speed, class_support: '0.5', confidence: true}]\n",
        *(typed.replace(old, new, 1) for old, new in [
            ("epsilon: 0.1", "epsilon: {zeppelin: 0.1}"), ("epsilon: 0.1", "epsilon: {a: 0.1}"),
            ("epsilon: 0.1", "epsilon: '0.1'"), ("epsilon: 0.1", "epsilon: true"),
            ("[d, e, p, s]\n", "[d, e, p, s, 1]\n"), ("[d, e, p, s]\n", "[d, e, p, s, s]\n"),
            ("format_version: 1", "format_version: true"), ("[a, b]", "ab"),
            ("conditions: [d, e, p, s],", "conditions: speed,"), ("0.5", "'0.5'"), ("1.0}", "true}"),
        ]),
        typed + "correction_rules: [{class: b, pairs: [da], support: 0.5, confidence: 0.5}]\n",
    ]
    loose = [tmp_path / f"loose{k}.yaml" for k in range(len(loose_texts))]
    for path, text in zip([tmp_path / "typed.yaml", *loose], [typed, *loose_texts]):
        path.write_text(text)
    assert run(["apply", "--ruleset", tmp_path / "typed.yaml", "--predictions", ab_p, "--conditions", ab_c,
                "--out", tmp_path / "typed"]) == 0
    return [
        *((["apply", "--ruleset", path, "--predictions", ab_p, "--conditions", ab_c,
            "--out", tmp_path / f"o_{path.stem}"], 3) for path in loose),
        (["learn", "--predictions", tmp_path / "absent.csv", "--conditions", c, "--out", tmp_path / "o1"], 3),
        (["learn", "--predictions", p, "--conditions", c, "--out", regular], 3),
        (["learn", "--predictions", tmp_path, "--conditions", c, "--out", tmp_path / "o2"], 3),
        (["learn", "--predictions", latin1, "--conditions", c, "--out", tmp_path / "o3"], 3),
        (["learn", "--predictions", p, "--conditions", c, "--epsilon", "nan", "--out", tmp_path / "o4"], 2),
        (["learn", "--predictions", p, "--conditions", dup_names, "--out", tmp_path / "o17"], 3),
        (["learn", "--predictions", p, "--conditions", empty_name, "--out", tmp_path / "o18"], 3),
        (["learn", "--predictions", empty_pred, "--conditions", c, "--out", tmp_path / "o19"], 3),
        (["learn", "--predictions", p, "--conditions", c, "--epsilon-per-class", "walk=x",
          "--out", tmp_path / "o5"], 2),
        (["apply", "--ruleset", ruleset, "--predictions", p, "--conditions", c, "--out", regular], 3),
        (["apply", "--ruleset", c, "--predictions", p, "--conditions", c, "--out", tmp_path / "o6"], 3),
        (["eval", "--predictions", p, "--mode", "fuzzy", "--out", tmp_path / "o7"], 2),
        (["eval", "--predictions", p, "--trace", tmp_path / "absent.csv", "--out", tmp_path / "o8"], 3),
        (["eval", "--predictions", p, "--trace", bad_trace, "--out", tmp_path / "o12"], 3),
        (["sweep", "--predictions", p, "--conditions", c, "--epsilons", "a,b", "--out", tmp_path / "o9"], 2),
        (["verify", "--predictions", p, "--conditions", c, "--epsilon", "2", "--out", tmp_path / "o10"], 2),
        (["unseen", "--predictions", p, "--conditions", c, "--holdout", "walk", "--out", tmp_path / "o11"], 2),
        (["verify", "--predictions", p, "--conditions", c, "--trials", "-5", "--out", tmp_path / "o13"], 2),
        (["verify", "--predictions", p, "--conditions", c, "--correction-scenarios", "-3",
          "--out", tmp_path / "o14"], 2),
        (["sweep", "--predictions", p, "--conditions", c, "--epsilons", "", "--out", tmp_path / "o15"], 2),
        (["unseen", "--predictions", held / "predictions.csv", "--conditions", held / "conditions.csv",
          "--holdout", "walk", "--fractions", "", "--out", tmp_path / "o16"], 2),
        (["gen", "--seed", "-1", "--samples", "60", "--out", tmp_path / "o20"], 2),
        (["verify", "--predictions", p, "--conditions", c, "--seed", "-3", "--out", tmp_path / "o21"], 2),
        (["apply", "--ruleset", binary_ruleset, "--predictions", p, "--conditions", c,
          "--out", tmp_path / "o22"], 3),
        (["eval", "--predictions", p, "--trace", short_trace, "--out", tmp_path / "o23"], 3),
        (["eval", "--predictions", unknown_gt, "--out", tmp_path / "o24"], 3),
        (["eval", "--predictions", p, "--trace", empty_final, "--out", tmp_path / "o25"], 3),
        (["eval", "--predictions", p, "--trace", empty_trace_id, "--out", tmp_path / "o26"], 3),
        (["apply", "--ruleset", empty_class, "--predictions", p, "--conditions", c,
          "--out", tmp_path / "o27"], 3),
        (["apply", "--ruleset", empty_condition, "--predictions", p, "--conditions", c,
          "--out", tmp_path / "o28"], 3),
        (["learn", "--predictions", p, "--conditions", c, "--epsilon-per-class", "walk=0.1,walk=0.2",
          "--out", tmp_path / "o29"], 2),
        (["sweep", "--predictions", p, "--conditions", c, "--epsilons", "0.1,,0.2", "--out", tmp_path / "o30"], 2),
        (["unseen", "--predictions", held / "predictions.csv", "--conditions", held / "conditions.csv",
          "--holdout", "walk", "--fractions", "0.1,", "--out", tmp_path / "o31"], 2),
        (["gen", "--samples", "60", "--holdout", "walk,walk", "--out", tmp_path / "o32"], 2),
        (["unseen", "--predictions", held / "predictions.csv", "--conditions", held / "conditions.csv",
          "--holdout", "walk,walk", "--out", tmp_path / "o33"], 2),
    ]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--holdout", "walk,walk"], "duplicate holdout class name 'walk'\n"),
    (["gen", "--holdout", "walk,"], "empty holdout class name in the sequence at index 1\n"),
    (["unseen", "--holdout", "walk,walk"], "duplicate holdout class name 'walk'\n"),
    (["learn", "--epsilon-per-class", "zeppelin=0.1"],
     "epsilon mapping names ['bike', 'bus', 'drive', 'train', 'walk', 'zeppelin'], not ("),
    (["sweep", "--epsilons", "0.1,,0.2"], "expected comma-separated numbers, got '0.1,,0.2'"),
])
def test_list_flag_values_are_checked_by_the_library(tmp_path, capsys, argv, message):
    """The CLI splits list flags at commas and leaves their rules to the
    library: holdout names to ``check_names``, epsilon names to
    ``check_epsilon`` and numbers to ``float``."""
    corpus = gen_corpus(tmp_path, seed=22, samples=60)
    reads = [] if argv[0] == "gen" else ["--predictions", corpus / "predictions.csv",
                                         "--conditions", corpus / "conditions.csv"]
    capsys.readouterr()
    assert run([*argv, *reads, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err


def test_invalid_invocations_exit_codes(tmp_path, capsys):
    for argv, expected in invalid_invocations(tmp_path):
        capsys.readouterr()
        assert run(argv) == expected, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert out == "", argv
