import csv
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustggm import fileio
from robustggm.errors import InputError
from robustggm.fileio import _fmt_float, _fmt_floats, _read_cells, dumps_json, read_csv, write_csv


# --- reader: the numpy parse agrees with the cell-by-cell reader ------------

def _outcome(reader, path):
    try:
        data = reader(path)
    except InputError as exc:
        return "error", str(exc)
    return data.shape, data.tobytes()


def _cell(x: float, style: int) -> str:
    text = [repr(x), format(x, ".17g"), format(x, ".3e"), str(int(x)) if x.is_integer() else repr(x)][style % 4]
    return " " + text + " " if style >= 4 else text


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
DEFECTS = ["empty cell", "ragged row", "hash", "quoted cell", "blank line", "blank first line",
           "whitespace line", "crlf", "trailing comma", "nan", "inf", "Infinity", "-inf", "1_5", "1e999"]


@st.composite
def csv_texts(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 4))
    cells = [[_cell(draw(finite), draw(st.integers(0, 5))) for _ in range(p)] for _ in range(n)]
    defects = draw(st.lists(st.sampled_from(DEFECTS), max_size=2))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
    # cell defects first: a row-shape defect may shorten row i below j + 1
    for d in sorted(defects, key=lambda d: d in ("ragged row", "trailing comma")):
        if d == "empty cell":
            cells[i][j] = draw(st.sampled_from(["", " "]))
        elif d == "ragged row":
            cells[i] = cells[i][:-1] if draw(st.booleans()) else cells[i] + ["1.0"]
        elif d == "hash":
            cells[i][j] = "#" + cells[i][j]
        elif d == "quoted cell":
            cells[i][j] = '"' + cells[i][j] + '"'
        elif d == "trailing comma":
            cells[i] = cells[i] + [""]
        elif d in ("nan", "inf", "Infinity", "-inf", "1_5", "1e999"):
            cells[i][j] = d
    lines = [",".join(row) for row in cells]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"x{k + 1}" for k in range(p)))
    if "blank line" in defects:
        lines.insert(draw(st.integers(1, len(lines))), "")
    if "whitespace line" in defects:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from([" ", "\t", " \x0c"])))
    if "blank first line" in defects:
        lines.insert(0, "")
    eol = "\r\n" if "crlf" in defects else "\n"
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.csv"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts())
def test_read_csv_agrees_with_cell_reader(csv_path, text):
    csv_path.write_bytes(text.encode())
    assert _outcome(read_csv, csv_path) == _outcome(_read_cells, csv_path)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,nan\n", ":2: non-finite value 'nan' in column 2"),
    ("x1,x2\n1,2\n-Infinity,4\n", ":3: non-finite value '-Infinity' in column 1"),
    ("1,2\n3,1e999\n", ":2: non-finite value '1e999' in column 2"),
    ('x\n"1"\n2\n', None),
    ("1_5,2\n3,4\n", None),
])
def test_read_csv_falls_back_to_cell_reader(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    if message is None:
        assert np.array_equal(read_csv(path), _read_cells(path))
    else:
        with pytest.raises(InputError) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}{message}"


def test_read_csv_header_only_and_empty(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x1,x2\n")
    with pytest.raises(InputError, match="header only"):
        read_csv(path)
    path.write_text("\n\n")
    with pytest.raises(InputError, match="empty file"):
        read_csv(path)


# --- writers: whole-array formatting keeps the bytes of _fmt_float ----------

EDGE_VALUES = [
    -0.0, 0.0, 1.0, -3.0, 0.5, 1e16, -1e16, 9999999999999998.0, 1e16 + 2.0, 2.0**53, 2.0**53 + 2.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1 / 3, 123456789012345.6,
]
values = st.one_of(finite, st.sampled_from(EDGE_VALUES))


def _write_csv_per_cell(X: np.ndarray) -> bytes:
    """Row-by-row csv writer over _fmt_float, the reference for write_csv's bytes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{j + 1}" for j in range(X.shape[1])])
    for row in X:
        writer.writerow([_fmt_float(float(v)) for v in row])
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(values, min_size=1, max_size=60), cols=st.integers(1, 4))
def test_array_formatting_matches_per_element(tmp_path_factory, vals, cols):
    a = np.array(vals)
    assert _fmt_floats(a) == [_fmt_float(x) for x in vals]
    M = a[: len(vals) - len(vals) % cols].reshape(-1, cols)
    assert dumps_json({"a": a, "m": M}) == dumps_json({"a": vals, "m": M.tolist()})
    path = tmp_path_factory.mktemp("w") / "x.csv"
    write_csv(path, M)
    assert path.read_bytes() == _write_csv_per_cell(M)


@settings(max_examples=100, deadline=None)
@given(vals=st.lists(values, min_size=4, max_size=60))
def test_repeated_array_formatted_once_with_per_element_bytes(vals):
    """fit.json repeats the last point's arrays at the top level: each
    array object is formatted once per document, with the bytes of
    _fmt_float on every element."""
    w = np.array(vals)
    om = w[:4].reshape(2, 2)
    w_text = "[" + ",".join(_fmt_float(x) for x in vals) + "]"
    om_text = "[" + ",".join("[" + ",".join(_fmt_float(x) for x in row) + "]" for row in om.tolist()) + "]"
    point = f'{{"omega":{om_text},"weights":{w_text}}}'
    doc = {"fits": [{"omega": om, "weights": w}, {"omega": om.copy(), "weights": w}], "omega": om, "weights": w}
    with mock.patch.object(fileio, "_fmt_floats", wraps=fileio._fmt_floats) as fmt:
        text = dumps_json(doc)
    assert text == f'{{"fits":[{point},{point}],"omega":{om_text},"weights":{w_text}}}'
    assert fmt.call_count == 3  # w, om and om's copy


@settings(max_examples=100, deadline=None)
@given(vals=st.lists(values, min_size=1, max_size=30), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       data=st.data())
def test_array_formatting_rejects_non_finite_like_per_element(tmp_path_factory, vals, bad, data):
    vals = list(vals)
    vals.insert(data.draw(st.integers(0, len(vals))), bad)
    with pytest.raises(InputError) as ref:
        [_fmt_float(x) for x in vals]
    a = np.array(vals)
    for write in (_fmt_floats, dumps_json, lambda arr: write_csv(tmp_path_factory.mktemp("w") / "x.csv", arr)):
        with pytest.raises(InputError) as got:
            write(a)
        assert str(got.value) == str(ref.value)


def test_write_csv_blocks_match_per_cell_across_block_edges(tmp_path):
    rng = np.random.default_rng(61)
    X = rng.standard_normal((2 * fileio.CSV_BLOCK_ROWS + 3, 3))
    X[::7, 1] = np.round(X[::7, 1])
    path = tmp_path / "x.csv"
    write_csv(path, X)
    assert path.read_bytes() == _write_csv_per_cell(X)
    assert np.array_equal(read_csv(path), X)


# write_csv's traced peak on a (50000, 20) array is about 8 MiB in row
# blocks; formatting the array whole peaks at about 124 MiB.
WRITE_CSV_PEAK_BOUND = 16 * 2**20


def test_write_csv_memory_is_bounded_by_blocks(tmp_path):
    X = np.random.default_rng(62).standard_normal((50_000, 20))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < WRITE_CSV_PEAK_BOUND
