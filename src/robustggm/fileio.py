"""Deterministic file formats for the command-line tools.

CSV: comma-separated, rows are observations, optional header detected by
a non-numeric first row; missing, malformed or non-finite cells are
rejected, never imputed.  :func:`read_csv` first parses the numbers with
``np.loadtxt``, which gives the same floats as Python's ``float``.  It
keeps that result only when the parse succeeds and every value is
finite; on a quoted cell, a ragged row, an empty or non-numeric cell, a
number ``float`` reads but numpy does not (such as ``1_5``), ``nan`` or
``inf``, it reads the file again cell by cell, which returns the same
array or raises a single-line diagnostic naming the row and column.

JSON: floats rendered with 17 significant digits so that written
artifacts round-trip exactly and repeated runs are byte-identical.
Float arrays are formatted a whole array at a time, with the bytes of
formatting each element alone; :func:`write_csv` does so a block of
rows at a time, so its memory stays flat in the number of rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import InputError

CSV_BLOCK_ROWS = 2048  # rows formatted at once by write_csv


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise InputError(f"non-finite number {x!r} in output")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _fmt_floats(a: np.ndarray) -> list[str]:
    """``[_fmt_float(x) for x in a.ravel()]`` with the same bytes and the
    same error, formatted as one array."""
    flat = np.asarray(a, dtype=float).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        _fmt_float(float(flat[np.argmin(finite)]))  # raises on the first non-finite
    vals = flat.tolist()
    out = ("%.17g\n" * len(vals) % tuple(vals)).split("\n")
    out.pop()
    for k in np.flatnonzero((flat == np.trunc(flat)) & (np.abs(flat) < 1e16)).tolist():
        out[k] = "%.1f" % vals[k]
    return out


def _nest(cells: list, shape: tuple) -> str:
    """JSON nested lists of ``shape`` over row-major ``cells``."""
    if len(shape) == 1:
        return "[" + ",".join(cells) + "]"
    step = math.prod(shape[1:])
    return "[" + ",".join(
        _nest(cells[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])
    ) + "]"


def _emit(obj, out: list, arrays: dict) -> None:
    """Append ``obj``'s JSON to ``out``; ``arrays`` maps the id of each
    float array already formatted in this document to its text."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _emit(str(k), out, arrays)
            out.append(":")
            _emit(v, out, arrays)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim:
        text = arrays.get(id(obj))
        if text is None:
            text = arrays[id(obj)] = _nest(_fmt_floats(obj), obj.shape)
        out.append(text)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _emit(v, out, arrays)
        out.append("]")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """``obj`` as deterministic JSON.  An array that appears more than
    once (``fit.json`` repeats the last point's arrays at the top) is
    formatted once; the ids are those of objects ``obj`` keeps alive."""
    out: list = []
    _emit(obj, out, {})
    return "".join(out)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj) + "\n")


def write_csv(path, X: np.ndarray) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = X.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(p)) + "\n")
        for start in range(0, X.shape[0], CSV_BLOCK_ROWS):
            block = X[start:start + CSV_BLOCK_ROWS]
            cells = _fmt_floats(block)
            fh.write("".join(
                ",".join(cells[i * p:(i + 1) * p]) + "\n" for i in range(block.shape[0])
            ))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_loadtxt(path: Path) -> np.ndarray | None:
    """The file parsed by ``np.loadtxt``, or None where only
    :func:`_read_cells` decides: a blank or quoted first line, no data
    rows, a row numpy cannot parse, or a non-finite value."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if not first or '"' in first:
            return None
        if all(_is_number(tok) for tok in first.split(",")):
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                data = np.loadtxt(fh, dtype=float, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if data.size == 0 or not np.isfinite(data).all():
        return None
    return data


def _read_cells(path: Path) -> np.ndarray:
    """The reference reader: parses the file cell by cell with ``csv``
    and ``float``, raising InputError at the first bad row or cell."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise InputError(f"{path}: empty file")
    start = 0
    if any(not _is_number(tok) for tok in rows[0]):
        start = 1
        if len(rows) == 1:
            raise InputError(f"{path}: header only, no data rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise InputError(f"{path}:{i}: expected {width} fields, got {len(row)}")
        for j, tok in enumerate(row):
            tok = tok.strip()
            if tok == "":
                raise InputError(f"{path}:{i}: missing value in column {j + 1}")
            try:
                v = float(tok)
            except ValueError:
                raise InputError(f"{path}:{i}: bad number {tok!r} in column {j + 1}")
            if not math.isfinite(v):
                raise InputError(f"{path}:{i}: non-finite value {tok!r} in column {j + 1}")
            data[i - start - 1, j] = v
    return data


def read_csv(path) -> np.ndarray:
    """Read an observation matrix; raises InputError with a single-line
    diagnostic on any malformed or non-finite content."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    data = _read_loadtxt(path)
    return _read_cells(path) if data is None else data


def write_tsv(path, header: list, rows: list) -> None:
    buf = io.StringIO()
    buf.write("\t".join(header) + "\n")
    for row in rows:
        buf.write(
            "\t".join(
                _fmt_float(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
            + "\n"
        )
    Path(path).write_text(buf.getvalue())


def edge_hash(edges) -> str:
    """Stable short hash of a 1-based edge list."""
    canon = ";".join(f"{i},{j}" for i, j in sorted(edges))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
