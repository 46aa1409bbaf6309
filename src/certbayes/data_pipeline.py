"""Synthetic data generation, CSV ingestion, standardization, and splitting.

CSV format: comma delimiter, one header row, '.' decimal point, UTF-8, no
quoting of numerics. Numbers are written with enough digits ('%.17g') that a
write/read round trip is bit-identical for finite doubles. Rows with missing
fields are rejected rather than imputed.

save_csv writes the fixed header x1,...,xd,y and formats the rows in blocks
of _SAVE_BLOCK_ROWS; every line, the header's too, ends in CRLF, as
csv.writer ends lines. A block's text is the bytes that '%.17g' % x gives
for each cell, made by one numpy kernel (_fast_cells) for every cell with
1e-11 <= |x| < 1e16: it takes the 17-digit significand from one product
|x| * 10**p in the x87 long double, where 10**p is exact for p <= 27, and
that product lies within 2**-8 of the exact one, so rint gives the digits
that Python's correctly rounded '%' gives unless the product lies that
close to a half. Such near-ties, which include exact ties such as
100000000000000.125 that '%' rounds half to even, and every cell out of that
range, zero, inf and nan among them, go through '%' one at a time; so does
every cell where numpy's long double is not the x87 type
(_EXTENDED_PRECISION). The digits then go into their cell's bytes by one
gather from a table of '%g' layouts, and the pad bytes are dropped.

load_csv reads the header with csv.reader. It then streams the body from
the file: one binary pass counts the lines (ended by LF, CRLF or a bare CR,
as readlines(newline="") ends them) and records where each piece of about
_CHUNK_BYTES starts. The rows go straight into X and Y: each piece, cut at a
line end, is decoded and parsed with np.loadtxt, and kept only when it is
UTF-8 and loadtxt raised and warned nothing and gave one row per line, each
as wide as the header. Otherwise (a blank or '#' line, a quoted cell, '1_0',
a header-only file, a field longer than the csv module's limit, one of the
separators U+001C to U+001F, which loadtxt strips and float() does not, or
a header that spans lines, or a pipe, which cannot be read twice) it reads
the lines again with csv.reader and float(), cell by cell. That parser
alone raises ParseError and NonNumericColumn, with their rows and columns,
and the UnicodeDecodeError of a body that is not UTF-8.

Both spend their time converting numbers in code that holds the GIL: numpy
loops over blocks of a few MB, or one number at a time in np.loadtxt. So
threads would not overlap. A large call is therefore cut into
contiguous row ranges, one part per usable CPU and at most one per
_CELLS_PER_PART cells (_row_ranges). This process runs the first range and
a child forked with multiprocessing's "fork" context runs each other range,
sending its bytes back through a pipe: save_csv writes the header and then
the parts in order, so the file is the same byte for byte (a child formats
its whole range, so it need not wait on the pipe while this process formats
the first, and then sends it block by block, never joined), and load_csv
applies every check above to each range and keeps the rows only if every
range passed, so a file the fast path refuses still reaches the cell-by-cell
parser whole. A call below 2 * _CELLS_PER_PART cells, or on a machine with
one usable CPU, starts no process. A child runs only numpy's and '%'
formatting and a pipe write per block, or reads its own byte range of the file, parses it with
np.loadtxt into its copy of X and Y and writes its X rows and then its Y
rows to the pipe: no BLAS call and no lock that another thread of this
process could hold at the fork, so forking a process that has OpenBLAS
threads is safe here, though Python 3.12 and later warn about such forks. A
child that cannot start, or ends without sending its range, leaves that
range to this process, and a save_csv child that ends inside its range
leaves the rows from the first block not received; no child outlives the
call.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import functools
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    MissingTarget,
    NonNumericColumn,
    ParseError,
    TooFewRows,
    ZeroVarianceColumn,
)
from .model import Dataset, _check_nonnegative, _check_positive, _own_dataset

__all__ = [
    "SyntheticSpec",
    "SplitSpec",
    "generate_synthetic",
    "load_csv",
    "save_csv",
    "standardize_fit_transform",
    "split",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic regression protocol.

    Features are i.i.d. N(0, sigma_x_sq I_d); labels are X theta* + noise with
    noise variance sigma_sq; theta* has squared norm theta_star_norm_sq with a
    direction drawn uniformly on the sphere (results depend on the direction
    only through the norm, by rotational symmetry of the features).
    """

    n: int
    d: int
    sigma_x_sq: float
    sigma_sq: float
    theta_star_norm_sq: float
    seed: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        _check_positive("sigma_x_sq", self.sigma_x_sq)
        _check_positive("sigma_sq", self.sigma_sq)
        _check_nonnegative("theta_star_norm_sq", self.theta_star_norm_sq)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Generate a dataset from the spec; returns (dataset, theta_star).

    Deterministic for a fixed seed: the generator draws the direction of
    theta*, then the feature matrix, then the label noise.
    """
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal(spec.d)
    if spec.theta_star_norm_sq > 0.0:
        theta_star = math.sqrt(spec.theta_star_norm_sq) * direction / np.linalg.norm(direction)
    else:
        theta_star = np.zeros(spec.d)
    x = rng.standard_normal((spec.n, spec.d))
    x *= math.sqrt(spec.sigma_x_sq)
    y = x @ theta_star + math.sqrt(spec.sigma_sq) * rng.standard_normal(spec.n)
    return _own_dataset(x, y), theta_star


def _parse_cell(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


# Line breaks of str.splitlines() that csv.reader does not break lines at.
# float() also rejects the four separators \x1c-\x1f inside a cell, which
# np.loadtxt strips as white space.
_NOT_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _parse_fast(text: str, width: int) -> Optional[np.ndarray]:
    """The lines of a piece of the body as a (lines, width) array, or None
    unless np.loadtxt parsed every line into exactly the cells that
    csv.reader and float() would give."""
    if any(ch in text for ch in _NOT_LINE_ENDS):
        return None
    lines = text.splitlines(keepends=True)
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None  # csv.reader raises on such a field
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(
                lines, delimiter=",", comments=None, quotechar=None, ndmin=2
            )
        except (ValueError, Warning):
            return None
    # loadtxt skips blank lines, which csv.reader gives as rows of no fields.
    return values if values.shape == (len(lines), width) else None


# Bytes read at a time; a piece of the file is cut at its last line end.
_CHUNK_BYTES = 1 << 20


def _pieces(fh, size=math.inf):
    """The next `size` bytes of the binary file fh, or all that are left, in
    pieces of about _CHUNK_BYTES. Each piece but the last ends at a line end:
    LF, CRLF or a bare CR, as readlines(newline="") ends lines. So no piece
    splits a line, nor a CRLF."""
    while size > 0:
        piece = fh.read(min(size, _CHUNK_BYTES))
        if not piece:
            return
        while len(piece) < size:
            # A CR that ends the piece may be the first half of a CRLF.
            cut = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, -1)) + 1
            if cut:
                fh.seek(cut - len(piece), os.SEEK_CUR)
                piece = piece[:cut]
                break
            more = fh.read(min(size - len(piece), _CHUNK_BYTES))
            if not more:
                break
            piece += more
        size -= len(piece)
        yield piece


def _line_table(fh) -> list:
    """(first line, byte offset) of each piece of the binary file fh, then
    (number of lines, file size): one pass that counts lines.

    bytes.splitlines() breaks lines only at LF, CRLF and CR, and no piece
    but the last ends inside a line."""
    table, line, offset = [], 0, 0
    for piece in _pieces(fh):
        table.append((line, offset))
        line += len(piece.splitlines())
        offset += len(piece)
    table.append((line, offset))
    return table


def _line_offset(fh, table: list, line: int) -> int:
    """The byte offset of a line of fh, counted from 0, or the file size for
    the line after the last: found in the one piece of _line_table that
    holds it."""
    i = bisect.bisect_right(table, (line, math.inf)) - 1
    first, offset = table[i]
    if line > first:
        fh.seek(offset)
        piece = fh.read(table[i + 1][1] - offset)
        offset += sum(map(len, piece.splitlines(keepends=True)[: line - first]))
    return offset


# Cells per part: a call gets a second part from 2 * _CELLS_PER_PART cells.
_CELLS_PER_PART = 100_000


def _send(sender, work, start: int, stop: int) -> None:
    for part in work(start, stop):
        sender.send_bytes(part)


@contextlib.contextmanager
def _row_ranges(rows: int, width: int, work):
    """range(rows) cut into contiguous ranges, one per part, as a list of
    (start, stop, connection).

    The first range has connection None: the caller runs it. Each other
    range runs work(start, stop) in a forked child, which sends each of the
    bytes-like objects it returns through a pipe that the connection reads.
    Where the child did not start, or ended without sending, reading raises
    EOFError, and the caller runs that range too. On exit every child is
    ended and reaped, whether or not its bytes were read.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, rows * width // _CELLS_PER_PART, rows))
    bounds = [rows * k // parts for k in range(parts + 1)]
    ranges, children = [(0, bounds[1], None)], []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            import multiprocessing  # here, so that a call in one part does not load it

            context = multiprocessing.get_context("fork")
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send, args=(sender, work, start, stop))
            try:
                child.start()
                children.append(child)
            except (OSError, AssertionError):  # a daemonic process may start no child
                pass  # with the sender closed, the receiver reads end of file
            finally:
                sender.close()
            ranges.append((start, stop, receiver))
        yield ranges
    finally:
        for child in children:
            child.kill()
            child.join()
        for _, _, receiver in ranges:
            if receiver is not None:
                receiver.close()


def _parse_range(path, table: list, start: int, stop: int, x: np.ndarray,
                 y: np.ndarray, target: int) -> bool:
    """Parse body rows start to stop of the file into x and y, its target
    column into y and the others into x, with _parse_fast on each piece of
    the range; False if a piece is not UTF-8 or _parse_fast refuses it."""
    with open(path, "rb") as fh:
        # Line 0 is the header.
        first = _line_offset(fh, table, start + 1)
        size = _line_offset(fh, table, stop + 1) - first
        fh.seek(first)
        row = 0
        for piece in _pieces(fh, size):
            try:
                values = _parse_fast(piece.decode("utf-8"), x.shape[1] + 1)
            except UnicodeDecodeError:
                return False
            if values is None or len(values) > len(y) - row:
                return False
            rows = slice(row, row + len(values))
            x[rows, :target] = values[:, :target]
            x[rows, target:] = values[:, target + 1:]
            y[rows] = values[:, target]
            row += len(values)
    return row == len(y)


def _parse_parts(path, width: int, target: int):
    """The body of the file as (X, Y), parsed range by range over the row
    ranges of _row_ranges, or None if any range fails."""
    with open(path, "rb") as fh:
        table = _line_table(fh)
    rows = table[-1][0] - 1
    x, y = np.empty((rows, width - 1)), np.empty(rows)

    def parse(start, stop):
        xs, ys = x[start:stop], y[start:stop]
        return (xs, ys) if _parse_range(path, table, start, stop, xs, ys, target) else (b"",)

    with _row_ranges(rows, width, parse) as ranges:
        for start, stop, receiver in ranges:
            if receiver is not None:
                xs, ys = (memoryview(a[start:stop]).cast("B") for a in (x, y))
                try:
                    if receiver.recv_bytes_into(xs) < xs.nbytes:
                        return None  # the child's range failed
                    receiver.recv_bytes_into(ys)
                    continue
                except EOFError:  # no child sent this range
                    pass
            if not _parse_range(path, table, start, stop, x[start:stop], y[start:stop], target):
                return None
    return x, y


def _parse_rows(rows: list, header: list) -> np.ndarray:
    """The csv.reader rows as an array, parsed cell by cell with float().

    Raises ParseError for a short or long row or a non-numeric cell (the
    first, with its 1-based row and column), NonNumericColumn if that cell's
    column fails in every row.
    """
    values = np.empty((len(rows), len(header)))
    bad_cell = None  # (row_1based, col_1based)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"row {i + 2} has {len(row)} fields, expected {len(header)}",
                row=i + 2,
            )
        for j, cell in enumerate(row):
            parsed = _parse_cell(cell)
            if parsed is None:
                if bad_cell is None:
                    bad_cell = (i + 2, j + 1)
                values[i, j] = np.nan
            else:
                values[i, j] = parsed

    if bad_cell is not None:
        col = bad_cell[1] - 1
        column_all_bad = len(rows) > 0 and all(
            _parse_cell(row[col]) is None for row in rows
        )
        if column_all_bad:
            raise NonNumericColumn(
                f"column {header[col]!r} (index {col}) is non-numeric in every row"
            )
        raise ParseError(
            f"non-numeric cell at row {bad_cell[0]}, column {bad_cell[1]} "
            f"({header[col]!r})",
            row=bad_cell[0],
            column=bad_cell[1],
        )
    return values


def _target_index(header: list, target_column: Union[str, int]) -> int:
    """The header index of the target column; raises MissingTarget."""
    if isinstance(target_column, (bool, np.bool_)):
        raise MissingTarget(
            f"target column {target_column!r} is neither a name nor an index"
        )
    if isinstance(target_column, numbers.Integral):
        if not 0 <= target_column < len(header):
            raise MissingTarget(
                f"target index {target_column} out of range for {len(header)} columns"
            )
        return int(target_column)
    if target_column not in header:
        raise MissingTarget(
            f"target column {target_column!r} not in header {header}"
        )
    return header.index(target_column)


def load_csv(path, target_column: Union[str, int]) -> Dataset:
    """Load a delimited numeric table; features are all non-target columns in
    file order.

    target_column may be a header name or a 0-based column index, any
    integer but a bool.

    Raises
    ------
    MissingTarget
        if the named column is absent, the index out of range, or
        target_column a bool.
    NonNumericColumn
        if a column fails to parse in every row.
    ParseError
        for a malformed cell or row, with 1-based row/column location.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: file is empty", row=1) from None
        try:
            target = _target_index(header, target_column)
        except MissingTarget:
            target = None  # raised below, after csv.reader's own errors
        # The body's first byte is known only after a one-line header, and a
        # pipe cannot be read again. A file of one column has no feature, so
        # it can only raise: Empty, or the cell-by-cell parser's errors.
        if target is not None and len(header) > 1 and reader.line_num == 1 and fh.seekable():
            parsed = _parse_parts(path, len(header), target)
            if parsed is not None:
                return _own_dataset(*parsed)
        lines = fh.readlines()
    # csv.reader's own errors come before MissingTarget, as they always have.
    rows = list(csv.reader(lines))
    target = _target_index(header, target_column)
    values = _parse_rows(rows, header)
    return _own_dataset(np.delete(values, target, axis=1), values[:, target].copy())


# Rows formatted per write in save_csv.
_SAVE_BLOCK_ROWS = 4096

# Cells formatted at a time, which bounds _fast_cells' arrays: a block of
# 4096 rows of up to 16 columns goes in one piece.
_FORMAT_CELLS = 1 << 16

# Bytes that a cell takes before its pad bytes go: the longest '%.17g'
# text, -2.2250738585072014e-308, and a CRLF.
_CELL_BYTES = 26

# An x87 extended long double, whose 64-bit significand holds 10**27 exactly
# (5**27 < 2**63): _fast_cells' products rest on it.
_EXTENDED_PRECISION = np.finfo(np.longdouble).nmant == 63

# The bytes after a cell's 17 digits in its source row; '\0' pads.
_CONSTANT_BYTES = b"-.e+,\r\n0123456789\0\0\0"


def _const(text: str) -> list:
    """The source bytes of constant text: constant byte c is byte 20 + c of
    a cell's source row, after its 20 digit bytes."""
    return [20 + _CONSTANT_BYTES.index(ch) for ch in text.encode("ascii")]


def _layout(k: int, digits: int) -> list:
    """The source bytes of '%.17g''s text, sign and separator aside, for a
    positive number with decimal exponent k and `digits` significant digits:
    digit i is byte 3 + i of its source row."""
    if k < -4 or k >= 17:  # %g's exponent notation, at precision 17
        point = _const(".") + [3 + i for i in range(1, digits)] if digits > 1 else []
        return [3] + point + _const("e%+03d" % k)
    if k < 0:
        return _const("0." + "0" * (-k - 1)) + [3 + i for i in range(digits)]
    point = _const(".") + [3 + i for i in range(k + 1, digits)] if digits > k + 1 else []
    return [3 + i for i in range(k + 1)] + point


@functools.cache
def _format_tables():
    """(layouts, 10**p for p in 0..27, the 4 ASCII digits of each 0..9999 as
    one uint32, the trailing zeros of each 0..9999, the constant bytes as
    uint32), built on the first call, in a few ms.

    Row (((k + 11) * 17 + digits - 1) * 2 + negative) * 2 + last of the
    layouts holds, for k in -11..16, the source bytes of a whole cell:
    sign, _layout, then ',' or, after a row's last cell, a CRLF, padded to
    _CELL_BYTES with a '\0' byte."""
    bodies = [_layout(k, digits) for k in range(-11, 17) for digits in range(1, 18)]
    signs, ends, pad = ([], _const("-")), (_const(","), _const("\r\n")), _const("\0")
    layouts = np.array([(sign + body + end + pad * _CELL_BYTES)[:_CELL_BYTES]
                        for body in bodies for sign in signs for end in ends], dtype=np.intp)
    powers = np.ones(28, dtype=np.longdouble)
    for p in range(1, 28):
        powers[p] = powers[p - 1] * 10  # exact: 10**p = 5**p * 2**p, 5**27 < 2**63
    text = np.frombuffer("".join("%04d" % i for i in range(10_000)).encode("ascii"),
                         dtype=np.uint8)
    zeros = np.cumprod(text.reshape(-1, 4)[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    return (layouts, powers, text.view(np.uint32), zeros,
            np.frombuffer(_CONSTANT_BYTES, dtype=np.uint32))


def _fast_cells(x: np.ndarray, last: np.ndarray):
    """(cells, fast): for each float64 x[i] with 1e-11 <= |x[i]| < 1e16,
    cells[i] is '%.17g' % x[i] then ',' or, where last[i], a CRLF, padded
    with '\0' to _CELL_BYTES; fast[i] is False for the other cells, whose
    bytes are left to '%', and for a few near-ties in range.

    With k = floor(log10 |x|) in -11..15 and p = 16 - k <= 27, 10**p is an
    exact long double, so s = |x| * 10**p lies in [1e16, 1e17) and within
    2**-8 (half an ulp below 2**57) of the exact product. Unless s is that
    close to a half, rint(s) is the correctly rounded 17-digit significand
    that '%.17g' prints. It is below 10**17: the largest double below each
    power of ten from 1e-10 to 1e16 has 17 digits that are not all 9s."""
    layouts, powers, quads, zeros, constants = _format_tables()
    size = np.abs(x)
    fast = (size >= 1e-11) & (size < 1e16)
    size[~fast] = 1.0  # so that log10 and the casts below see no zero, inf or nan
    k = np.clip(np.floor(np.log10(size)), -11, 15).astype(np.int64)
    size = size.astype(np.longdouble)
    s = size * powers[16 - k]
    # log10 may be one off next to a power of ten; a cell off by more goes to '%'.
    off = np.flatnonzero((s < 1e16) | (s >= 1e17))
    if off.size:
        k[off] += np.where(s[off] < 1e16, -1, 1)
        fast[off] &= (k[off] >= -11) & (k[off] <= 15)
        s[off] = size[off] * powers[16 - np.clip(k[off], -11, 15)]
        fast[off] &= (s[off] >= 1e16) & (s[off] < 1e17)
    rounded = np.rint(s)
    fast &= np.abs((s - rounded).astype(np.float64)) < 0.5 - 2.0 ** -8
    significand = rounded.astype(np.int64)
    fast &= significand < 10 ** 17  # no double in range rounds up to 10**(k + 1)
    # Its 17 digits in five groups: 1, then four of 4.
    rest = significand % 10 ** 16
    groups = (significand // 10 ** 16, rest // 10 ** 12, rest // 10 ** 8 % 10 ** 4,
              rest // 10 ** 4 % 10 ** 4, rest % 10 ** 4)
    trailing = np.full(x.size, 16)
    for j in range(1, 5):  # the last group that is not 0 counts
        trailing = np.where(groups[j], 16 - 4 * j + zeros[groups[j]], trailing)
    source = np.empty((x.size, 10), dtype=np.uint32)
    for j, group in enumerate(groups):
        source[:, j] = quads[group]
    source[:, 5:] = constants
    key = (((k + 11) * 17 + 16 - trailing) * 2 + (x < 0)) * 2 + last
    key[~fast] = 0
    index = layouts.take(key, axis=0)
    index += np.arange(0, 40 * x.size, 40)[:, None]
    return source.view(np.uint8).take(index), fast


def _format_cells(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, width) block of float64 cells: each cell as
    '%.17g' % x writes it, then ',' or, after a row's last cell, a CRLF."""
    rows, width = block.shape
    if not _EXTENDED_PRECISION:  # every cell through '%'
        row = ",".join(["%.17g"] * width) + "\r\n"
        return (row * rows % tuple(block.ravel().tolist())).encode("ascii")
    x = block.ravel()
    last = np.arange(x.size) % width == width - 1
    cells, fast = _fast_cells(x, last)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ["%.17g%s" % (v, "\r\n" if end else ",")
                 for v, end in zip(x[slow].tolist(), last[slow].tolist())]
        cells[slow] = np.array(texts, dtype=f"S{_CELL_BYTES}").view(np.uint8).reshape(
            slow.size, _CELL_BYTES)
    return cells.tobytes().translate(None, b"\0")


def _format_rows(data: Dataset, start: int, stop: int):
    """The CSV lines of rows start to stop, as bytes, one block of
    _SAVE_BLOCK_ROWS rows at a time, formatted in pieces of whole rows of
    at most _FORMAT_CELLS cells, or one row."""
    piece = max(1, _FORMAT_CELLS // (data.d + 1))
    for lo in range(start, stop, _SAVE_BLOCK_ROWS):
        hi = min(lo + _SAVE_BLOCK_ROWS, stop)
        block = np.column_stack((data.X[lo:hi], data.Y[lo:hi]))
        yield b"".join(_format_cells(block[i:i + piece]) for i in range(0, len(block), piece))


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV under the header x1,...,xd,y, each value as
    '%.17g' writes it and each line ended by CRLF; values round-trip
    bit-identically via load_csv.

    The file is the same byte for byte whether the rows are formatted by
    the numpy kernel or by '%' alone, and in one part or in several."""
    header = ",".join([f"x{j + 1}" for j in range(data.d)] + ["y"]) + "\r\n"
    with open(path, "wb") as fh, _row_ranges(
        data.n, data.d + 1, lambda start, stop: list(_format_rows(data, start, stop))
    ) as ranges:
        fh.write(header.encode("ascii"))
        for start, stop, receiver in ranges:
            while receiver is not None and start < stop:
                try:
                    block = receiver.recv_bytes()
                except (EOFError, OSError):  # the child ended before this block
                    break
                fh.write(block)
                start += _SAVE_BLOCK_ROWS
            fh.writelines(_format_rows(data, start, stop))


def standardize_fit_transform(
    train: Dataset, test: Dataset
) -> tuple[Dataset, Dataset]:
    """Standardize features and labels to zero mean, unit variance; returns
    (train, test), both transformed with the training split's means and
    standard deviations (population divisor n).

    Raises
    ------
    TooFewRows
        if the training split has fewer than 2 rows.
    ZeroVarianceColumn
        if a training feature column (or the label) is constant.
    """
    if train.n < 2:
        raise TooFewRows(f"need >= 2 training rows to standardize, got {train.n}")
    if test.d != train.d:
        raise ValueError(f"train has {train.d} features but test has {test.d}")

    f_mean = train.X.mean(axis=0)
    f_scale = train.X.std(axis=0)  # population divisor
    y_mean = float(train.Y.mean())
    y_scale = float(train.Y.std())

    tol = 1e-12
    for j in range(train.d):
        if f_scale[j] <= tol * max(1.0, abs(f_mean[j])):
            raise ZeroVarianceColumn(f"feature column {j} is constant in the training split")
    if y_scale <= tol * max(1.0, abs(y_mean)):
        raise ZeroVarianceColumn("label column is constant in the training split")

    train_std = _own_dataset(
        (train.X - f_mean) / f_scale, (train.Y - y_mean) / y_scale
    )
    test_std = _own_dataset(
        (test.X - f_mean) / f_scale, (test.Y - y_mean) / y_scale
    )
    return train_std, test_std


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; train gets floor(n * fraction) rows.

    The floor is taken with a 1e-9 nudge so fractions that are exact in
    decimal (0.7 of 10 rows -> 7) do not lose a row to binary rounding.
    """
    if data.n < 2:
        raise TooFewRows(f"need >= 2 rows to split, got {data.n}")
    n_train = int(math.floor(data.n * spec.train_fraction + 1e-9))
    if n_train < 1 or n_train >= data.n:
        raise TooFewRows(
            f"train fraction {spec.train_fraction} of {data.n} rows leaves an "
            f"empty split ({n_train} train rows)"
        )
    perm = np.random.default_rng(spec.seed).permutation(data.n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    train = _own_dataset(data.X[train_idx], data.Y[train_idx])
    test = _own_dataset(data.X[test_idx], data.Y[test_idx])
    return train, test
