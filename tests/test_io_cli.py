import csv
import json
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edcr import (
    ClassSet,
    ConditionMatrix,
    ContractError,
    CorrectionRule,
    DataError,
    DegenerateStatsError,
    DetectionRule,
    EdcrError,
    RuleSet,
    TrajectoryRecord,
    UNKNOWN_NAME,
    UnknownClassError,
    UnknownConditionError,
    VerificationError,
    apply_ruleset,
    generate_synthetic,
)
from edcr import cli, io
from edcr.cli import main
from helpers import (
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
        assert back.column("c").tolist() == [False, True]

    @pytest.mark.parametrize("cell", ["{}", '"{}"'])
    @pytest.mark.parametrize(
        "names, message",
        [("c1,c1", "duplicate condition name 'c1'"), ("c1,,c2", "empty condition name in column 3")],
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


class TestConditionsScanner:
    """The byte scanner of ``io.read_conditions`` against the ``csv.reader``
    reader it replaced (``helpers.reference_read_conditions``)."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("edit", ["none", "blank lines", "no final line break"])
    def test_writer_layout_is_scanned(self, tmp_path, newline, edit):
        ids = ["s1", "x,y", 'q"uote', "line\nbreak", " pad ", "é", ""]
        bits = np.random.default_rng(0).random((len(ids), 3)) < 0.5
        path, table = conditions_file(tmp_path, ids, bits, newline)
        data, end = path.read_bytes(), newline.encode()
        if edit == "blank lines":
            header, rows = data.split(end, 1)
            data = header + end * 2 + rows + end
        elif edit == "no final line break":
            data = data.removesuffix(end)
        path.write_bytes(data)
        scanned = io._scan_conditions(path, table)
        assert scanned is not None
        assert np.array_equal(scanned.values, bits)
        assert scanned.condition_names == ("c0", "c1", "c2")

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
        ],
    )
    def test_other_layouts_go_to_the_row_parser(self, tmp_path, text, sample_id):
        table = make_table(["a"], ["a"], ids=[sample_id])
        path = tmp_path / "c.csv"
        path.write_text(text, newline="")
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

    def test_file_of_several_blocks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        ids = [f"s{i}" if i % 7 else f"s,{i}\n" for i in range(300)]
        bits = rng.random((300, 9)) < 0.3
        path, table = conditions_file(tmp_path, ids, bits, "\r\n")
        monkeypatch.setattr(io, "_SCAN_BLOCK", 256)
        assert path.stat().st_size > 20 * 256
        scanned = io._scan_conditions(path, table)
        assert scanned is not None and np.array_equal(scanned.values, bits)

    def test_record_straddling_a_block_edge(self, tmp_path, monkeypatch):
        ids = ["s0", 'a "quoted",\r\nid', "s2"]
        bits = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        path, table = conditions_file(tmp_path, ids, bits, "\r\n")
        data = path.read_bytes()
        record = data.index(b'"a')
        # every block edge inside the second record, its CR-LF included
        for edge in range(record + 1, data.index(b"s2")):
            monkeypatch.setattr(io, "_SCAN_BLOCK", edge)
            scanned = io._scan_conditions(path, table)
            assert scanned is not None and np.array_equal(scanned.values, bits), edge

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


def outcome(reader, path, table):
    try:
        conds = reader(path, table)
    except Exception as err:  # the exception type and message are the outcome
        return type(err), str(err)
    return conds.condition_names, conds.values.tolist()


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
    arrays = {k: (v.dtype.str, v.tolist()) for k, v in vars(result).items() if isinstance(v, np.ndarray)}
    return type(result), {**vars(result), **arrays}


class TestReadersMatchReference:
    """The byte scanner of ``read_predictions`` and ``read_trace`` against the
    ``csv.reader`` readers it replaced (``helpers.reference_read_*``): the
    same table or trace, or the same exception type and message."""

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
                got = table_outcome(io.read_predictions, path, classes)
                assert got == table_outcome(reference_read_predictions, path, classes)

    @settings(max_examples=300)
    @given(case=st.data(), block=st.sampled_from([1, 7, 64, 1 << 20]))
    def test_trace(self, tmp_path_factory, case, block):
        header = list(io.TRACE_HEADER)
        if case.draw(once_in(16)):
            header[3] = case.draw(st.sampled_from(["Fired", "fired,x", ""]))
        cells = [CLASS_CELLS, FLAG_CELLS, FIRED_CELLS, CLASS_CELLS]
        path = tmp_path_factory.mktemp("t") / "trace.csv"
        path.write_bytes(case.draw(table_bytes(header, cells)))
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            got = table_outcome(io.read_trace, path, ClassSet(("a", "b")))
        assert got == table_outcome(reference_read_trace, path, ClassSet(("a", "b")))

    @settings(max_examples=200)
    @given(case=st.data(), block=st.sampled_from([1, 3, 64, 1 << 20]))
    def test_conditions_scanner_takes_what_it_took(self, tmp_path_factory, case, block):
        """Every file the old scanner read, the shared one reads to the same
        matrix; NUL is now left to the row parser anywhere in the file."""
        data, ids = case.draw(conditions_bytes())
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        path = tmp_path_factory.mktemp("c") / "c.csv"
        path.write_bytes(data)
        with mock.patch.object(io, "_SCAN_BLOCK", block):
            old, new = reference_scan_conditions(path, table), io._scan_conditions(path, table)
        if old is not None and b"\x00" not in data:
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
        classes = ClassSet(("a", "b"))
        got = table_outcome(io.read_trace, path, classes)
        assert got == table_outcome(reference_read_trace, path, classes)

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
        trace = io.read_trace(path, ClassSet(("a", "b")))
        assert trace.fired_names == ("", "b;a", "a", "b")
        assert table_outcome(io.read_trace, path, trace.classes) == table_outcome(
            reference_read_trace, path, trace.classes
        )


class TestTrajectoriesFormat:
    def test_roundtrip(self, tmp_path):
        corpus = generate_synthetic(seed=1, n_samples=5, noise=0.2)
        path = tmp_path / "t.csv"
        io.write_trajectories(path, corpus.records)
        back = io.read_trajectories(path)
        assert len(back) == 5
        for orig, loaded in zip(corpus.records, back):
            assert loaded.sample_id == orig.sample_id
            assert loaded.points == orig.points  # repr round-trips floats exactly

    def test_bad_idx_sequence(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("sample_id,idx,t,lat,lon\na,0,0,0,0\na,2,1,0,0\n")
        with pytest.raises(DataError, match=":3:"):
            io.read_trajectories(path)

    def test_non_contiguous_sample(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "sample_id,idx,t,lat,lon\n"
            "a,0,0,0,0\na,1,1,0,0\n"
            "b,0,0,0,0\nb,1,1,0,0\n"
            "a,0,5,0,0\na,1,6,0,0\n"
        )
        with pytest.raises(DataError, match="contiguous"):
            io.read_trajectories(path)

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("a,0,0,0,0\na,1,1,0,0\nb,0,5,0,0\nb,1,nan,0,0\nb,2,7,0,0\n", 4),
            ("a,0,0,0,0\na,1,inf,0,0\n", 2),
            ("a,0,0,0,0\na,1,1,0,0\nb,0,-inf,0,0\nb,1,1,0,0\nc,0,0,0,0\nc,1,1,0,0\n", 4),
        ],
    )
    def test_non_finite_time_names_the_sample_line(self, tmp_path, rows, line):
        path = tmp_path / "t.csv"
        path.write_text("sample_id,idx,t,lat,lon\n" + rows)
        with pytest.raises(DataError, match=f":{line}: .*not finite"):
            io.read_trajectories(path)


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
        a.classes == b.classes
        and a.sample_ids == b.sample_ids
        and a.original.tolist() == b.original.tolist()
        and a.flagged.tolist() == b.flagged.tolist()
        and a.fired_column() == b.fired_column()
        and a.final.tolist() == b.final.tolist()
    )


class TestTraceFormat:
    def test_roundtrip(self, tmp_path):
        table = make_table(["a", "b"], ["a", "a", "b"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1], [1, 1, 0]])
        _, trace = apply_ruleset(sample_ruleset(), table, conds)
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        assert same_trace(io.read_trace(path, trace.classes), trace)

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\n\ny,a,2,,a\n")
        with pytest.raises(DataError, match=":4:"):
            io.read_trace(path, ClassSet(("a",)))
        for row in ("y,,0,,a", "y,a,0,,", ",a,0,,a"):  # an empty original, final or id
            path.write_text(f"sample_id,original,flagged,fired,final\nx,a,0,,a\n{row}\n")
            with pytest.raises(DataError, match=":3: malformed trace row"):
                io.read_trace(path, ClassSet(("a",)))

    def test_original_outside_classes_extends_trace_classes(self, tmp_path):
        # a class every prediction of which apply routed elsewhere is absent
        # from revised.csv, so eval reads the trace with a class set lacking it
        path = tmp_path / "trace.csv"
        path.write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\ny,zz,1,c,c\n")
        trace = io.read_trace(path, ClassSet(("a",)))
        assert trace.classes.names == ("a", "c", "zz")
        assert trace.original.tolist() == [0, 2]
        assert trace.final.tolist() == [0, 1]

    def test_final_outside_classes_extends_trace_classes(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("sample_id,original,flagged,fired,final\nx,a,1,c,c\ny,a,0,,a\n")
        trace = io.read_trace(path, ClassSet(("a",)))
        assert trace.classes.names == ("a", "c")
        assert trace.original.tolist() == [0, 0]
        assert trace.final.tolist() == [1, 0]

    def test_eval_with_correction_to_unpredicted_class(self, tmp_path):
        table = make_table(["a", "b"], ["a", "a"], ["b", "a"], ids=["x", "y"])
        io.write_predictions(tmp_path / "p.csv", table)
        (tmp_path / "t.csv").write_text("sample_id,original,flagged,fired,final\nx,a,1,b,b\ny,a,0,,a\n")
        assert run(["eval", "--predictions", tmp_path / "p.csv", "--trace", tmp_path / "t.csv",
                    "--out", tmp_path / "out"]) == 0

    def test_eval_trace_missing_sample_id_names_file(self, tmp_path, capsys):
        table = make_table(["a", "b"], ["a", "a"], ["b", "a"], ids=["x", "y"])
        io.write_predictions(tmp_path / "p.csv", table)
        (tmp_path / "t.csv").write_text("sample_id,original,flagged,fired,final\nx,a,0,,a\n")
        assert run(["eval", "--predictions", tmp_path / "p.csv", "--trace", tmp_path / "t.csv",
                    "--out", tmp_path / "out"]) == 3
        assert "t.csv lacks sample id 'y'" in capsys.readouterr().err

    def test_rows_for_aligns_by_id(self):
        table = make_table(["a", "b"], ["a", "a", "b"], ids=["x", "y", "z"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1], [1, 1, 0]])
        _, trace = apply_ruleset(sample_ruleset(), table, conds)
        assert trace.rows_for(table.sample_ids).tolist() == [0, 1, 2]  # as apply writes it
        assert trace.rows_for(("x", "y", "z")).tolist() == [0, 1, 2]  # equal, not the same tuple
        assert trace.rows_for(("z", "x", "y")).tolist() == [2, 0, 1]
        assert trace.rows_for(("x", "z")).tolist() == [0, 2]  # the trace holds an extra id
        with pytest.raises(DataError, match="trace lacks sample id 'w'"):
            trace.rows_for(("x", "w"))
        with pytest.raises(DataError, match="t.csv lacks"):
            trace.rows_for(("x", "w"), source="t.csv")


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
        assert same_trace(io.read_trace(path, trace.classes), trace)

    def test_plain_ids_unquoted(self, tmp_path):
        table = make_table(["a"], ["a", "a"], ["a", "x"], ids=["s1", "s,2"])
        path = tmp_path / "p.csv"
        io.write_predictions(path, table)
        assert path.read_text() == 'sample_id,pred,gt\ns1,a,a\n"s,2",a,x\n'


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
WRITER_IDS = st.lists(
    st.text(st.sampled_from([",", '"', "\n", "\r", "s", "1", "é", " ", "\x00"]), max_size=4),
    max_size=6,
    unique=True,
)


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
    @given(width=st.integers(1, 4), data=st.data())
    def test_text_columns(self, tmp_path_factory, width, data):
        """The joined columns of the predictions and trace writers; a lone
        field always goes to csv.writer, which quotes it when empty."""
        header = data.draw(st.lists(TEXT_FIELDS, min_size=width, max_size=width))
        rows = data.draw(st.lists(st.lists(TEXT_FIELDS, min_size=width, max_size=width), max_size=5))
        work = tmp_path_factory.mktemp("w")
        got = write_outcome(io._write_columns, work / "new.csv", header, list(zip(*rows)) or [()] * width)
        assert got == write_outcome(reference_write_csv_rows, work / "old.csv", header, rows)

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
            (["a", "b"], [("", "é"), ("", "1")]),  # empty and non-ASCII fields stay bare
            (["a", "b"], [("x\x00",), ("y",)]),  # NUL goes to csv.writer
            (["a"], [("", "x")]),  # a lone empty field is quoted
        ],
    )
    def test_listed_columns(self, tmp_path, header, columns):
        got = write_outcome(io._write_columns, tmp_path / "new.csv", header, columns)
        assert got == write_outcome(reference_write_csv_rows, tmp_path / "old.csv", header, list(zip(*columns)))

    @settings(max_examples=100)
    @given(ids=WRITER_IDS, m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_write_conditions(self, tmp_path_factory, ids, m, seed, data):
        names = st.sampled_from(["c1", "c,2", 'c"3', "c\r4", "é"])
        names = data.draw(st.lists(names, min_size=m, max_size=m, unique=True))
        table = make_table(["a"], ["a"] * len(ids), ids=ids)
        bits = np.random.default_rng(seed).random((len(ids), m)) < 0.5
        conds = ConditionMatrix(tuple(names), bits)
        work = tmp_path_factory.mktemp("w")
        rows = [[sample_id, *("1" if bit else "0" for bit in row)] for sample_id, row in zip(ids, bits)]
        got = write_outcome(io.write_conditions, work / "new.csv", table, conds)
        assert got == write_outcome(reference_write_csv_rows, work / "old.csv", ("sample_id", *names), rows)


FINITE = {"allow_nan": False, "allow_infinity": False}


@st.composite
def trajectory_records(draw):
    """Records with unique unicode ids, 2-5 points each, strictly increasing
    finite timestamps and in-range coordinates."""
    ids = draw(SAMPLE_IDS)
    records = []
    for sample_id in ids:
        times = draw(st.lists(st.floats(**FINITE), min_size=2, max_size=5, unique=True))
        points = [
            (t, draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)))
            for t in sorted(times)
        ]
        records.append(TrajectoryRecord(sample_id, tuple(points)))
    return records


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
    # a class name is never empty; a condition name may be
    classes = ClassSet(tuple(draw(st.lists(NAMES.filter(bool), min_size=1, max_size=4, unique=True))))
    conditions = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
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
    @given(records=trajectory_records())
    def test_trajectories(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("tr") / "trajectories.csv"
        io.write_trajectories(path, records)
        back = io.read_trajectories(path)
        assert [(r.sample_id, r.points) for r in back] == [(r.sample_id, r.points) for r in records]

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
        assert manifest["inputs"]["predictions.csv"] == io.sha256_file(corpus / "predictions.csv")
        assert manifest["inputs"]["conditions.csv"] == io.sha256_file(corpus / "conditions.csv")
        assert manifest["command"] == "learn"

    def test_gen_deterministic_digests(self, tmp_path):
        a = gen_corpus(tmp_path, seed=12, samples=80)
        b_dir = tmp_path / "again"
        assert run(["gen", "--seed", 12, "--samples", 80, "--noise", 0.25,
                    "--out", b_dir]) == 0
        for name in ("trajectories.csv", "predictions.csv", "conditions.csv"):
            assert (a / name).read_bytes() == (b_dir / name).read_bytes()

    def test_gen_bytes_pinned(self, tmp_path):
        # the seed-7 corpus bytes are fixed across versions, not only across runs
        out = gen_corpus(tmp_path, seed=7, samples=2000)
        assert {name: io.sha256_file(out / name) for name in GEN_SEED7_SHA256} == GEN_SEED7_SHA256


#: SHA-256 of ``edcr gen --seed 7 --samples 2000`` with the default noise.
GEN_SEED7_SHA256 = {
    "trajectories.csv": "5e4f45e88456d7229933bb4bf12e9acaf8a1a806c0fdcc2298760936c450ba49",
    "predictions.csv": "ca868347f1050bafcf297165d52806f53502468b5b8ba2841286d4b07934d85c",
    "conditions.csv": "c231402e78989c4b235328ec80fc74e6adea1eff923ce876361926e0835dcd90",
}


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
    assert same_trace(io.read_trace(tmp_path / "t.csv", table.classes), trace)


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
    return [
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
    ]


def test_invalid_invocations_exit_codes(tmp_path, capsys):
    for argv, expected in invalid_invocations(tmp_path):
        capsys.readouterr()
        assert run(argv) == expected, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
