"""Synthetic data generation, CSV ingestion, standardization, and splitting.

CSV format: comma delimiter, one header row, '.' decimal point, UTF-8, no
quoting of numerics. Numbers are written with enough digits ('%.17g') that a
write/read round trip is bit-identical for finite doubles. Rows with missing
fields are rejected rather than imputed.

save_csv writes the fixed header x1,...,xd,y and formats the rows in blocks
of _SAVE_BLOCK_ROWS, each with one '%' on a row template; every line, the
header's too, ends in CRLF, as csv.writer ends lines.

load_csv reads the header with csv.reader and parses the remaining lines with
np.loadtxt. It keeps that result only when loadtxt raised and warned nothing
and gave one row per line, each as wide as the header. Otherwise (a blank or
'#' line, a quoted cell, '1_0', a header-only file, a field longer than the
csv module's limit, or one of the separators U+001C to U+001F, which loadtxt
strips and float() does not) it parses the lines again with csv.reader and
float(), cell by cell. That parser alone raises ParseError and
NonNumericColumn, with their rows and columns.

Both spend their time converting numbers one at a time in code that holds
the GIL, so threads would not overlap. A large call is therefore cut into
contiguous row ranges, one part per usable CPU and at most one per
_CELLS_PER_PART cells (_row_ranges). This process runs the first range and
a child forked with multiprocessing's "fork" context runs each other range,
sending its bytes back through a pipe: save_csv writes the header and then
the parts in order, so the file is the same byte for byte, and load_csv
applies every check above to each range and keeps the rows only if every
range passed, so a file the fast path refuses still reaches the cell-by-cell
parser whole. A call below 2 * _CELLS_PER_PART cells, or on a machine with
one usable CPU, starts no process. A child runs only '%' formatting or
np.loadtxt and one pipe write: no BLAS call and no lock that another thread
of this process could hold at the fork, so forking a process that has
OpenBLAS threads is safe here, though Python 3.12 and later warn about such
forks. A child that cannot start, or ends without sending its range, leaves
that range to this process, and no child outlives the call.
"""

from __future__ import annotations

import contextlib
import csv
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
from .model import Dataset, _check_nonnegative, _check_positive, validate_dataset

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
    x = math.sqrt(spec.sigma_x_sq) * rng.standard_normal((spec.n, spec.d))
    y = x @ theta_star + math.sqrt(spec.sigma_sq) * rng.standard_normal(spec.n)
    return validate_dataset(x, y), theta_star


def _parse_cell(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


# float() rejects these separators inside a cell; np.loadtxt strips them as
# white space.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _parse_fast(lines: list, width: int) -> Optional[np.ndarray]:
    """The body lines as a (len(lines), width) array, or None unless
    np.loadtxt parsed every line into exactly the cells that csv.reader and
    float() would give."""
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None  # csv.reader raises on such a field
    body = "".join(lines)
    if any(ch in body for ch in _LOADTXT_ONLY_SPACES):
        return None
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


# Cells per part: a call gets a second part from 2 * _CELLS_PER_PART cells.
_CELLS_PER_PART = 100_000


def _send(sender, work, start: int, stop: int) -> None:
    sender.send_bytes(work(start, stop))


@contextlib.contextmanager
def _row_ranges(rows: int, width: int, work):
    """range(rows) cut into contiguous ranges, one per part, as a list of
    (start, stop, connection).

    The first range has connection None: the caller runs it. Each other
    range runs work(start, stop) in a forked child, which sends the
    bytes-like result through a pipe that the connection reads. Where the
    child did not start, or ended without sending, reading raises EOFError,
    and the caller runs that range too. On exit every child is ended and
    reaped, whether or not its bytes were read.
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


def _parse_parts(lines: list, width: int) -> Optional[np.ndarray]:
    """_parse_fast over the row ranges of _row_ranges: the rows of every
    range, or None if any range fails."""

    def parse(start, stop):
        values = _parse_fast(lines[start:stop], width)
        return b"" if values is None else values

    values = np.empty((len(lines), width))
    with _row_ranges(len(lines), width, parse) as ranges:
        for start, stop, receiver in ranges:
            if receiver is not None:
                rows = memoryview(values[start:stop]).cast("B")
                try:
                    if receiver.recv_bytes_into(rows) < rows.nbytes:
                        return None  # the child's range failed
                    continue
                except EOFError:  # no child sent this range
                    pass
            part = _parse_fast(lines[start:stop], width)
            if part is None:
                return None
            values[start:stop] = part
    return values


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
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty", row=1) from None
        lines = fh.readlines()
    values = _parse_parts(lines, len(header))
    # csv.reader's own errors come before MissingTarget, as they always have.
    rows = list(csv.reader(lines)) if values is None else None

    header = [h.strip() for h in header]
    if isinstance(target_column, (bool, np.bool_)):
        raise MissingTarget(
            f"target column {target_column!r} is neither a name nor an index"
        )
    if isinstance(target_column, numbers.Integral):
        if not 0 <= target_column < len(header):
            raise MissingTarget(
                f"target index {target_column} out of range for {len(header)} columns"
            )
        target_idx = int(target_column)
    else:
        if target_column not in header:
            raise MissingTarget(
                f"target column {target_column!r} not in header {header}"
            )
        target_idx = header.index(target_column)

    if values is None:
        values = _parse_rows(rows, header)
    y = values[:, target_idx]
    x = np.delete(values, target_idx, axis=1)
    return validate_dataset(x, y)


# Rows formatted per write in save_csv.
_SAVE_BLOCK_ROWS = 4096


def _format_rows(data: Dataset, start: int, stop: int):
    """The CSV lines of rows start to stop, as bytes, one block of
    _SAVE_BLOCK_ROWS rows at a time."""
    # The rows as csv.writer would write them: no numeral needs quoting.
    row = ",".join(["%.17g"] * (data.d + 1)) + "\r\n"
    for lo in range(start, stop, _SAVE_BLOCK_ROWS):
        hi = min(lo + _SAVE_BLOCK_ROWS, stop)
        block = np.column_stack((data.X[lo:hi], data.Y[lo:hi]))
        yield (row * len(block) % tuple(block.ravel().tolist())).encode("ascii")


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV under the header x1,...,xd,y; values round-trip
    bit-identically via load_csv."""
    header = ",".join([f"x{j + 1}" for j in range(data.d)] + ["y"]) + "\r\n"
    with open(path, "wb") as fh, _row_ranges(
        data.n, data.d + 1, lambda start, stop: b"".join(_format_rows(data, start, stop))
    ) as ranges:
        fh.write(header.encode("ascii"))
        for start, stop, receiver in ranges:
            if receiver is not None:
                try:
                    fh.write(receiver.recv_bytes())
                    continue
                except EOFError:  # no child sent this range
                    pass
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

    train_std = validate_dataset(
        (train.X - f_mean) / f_scale, (train.Y - y_mean) / y_scale
    )
    test_std = validate_dataset(
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
    train = validate_dataset(data.X[train_idx], data.Y[train_idx])
    test = validate_dataset(data.X[test_idx], data.Y[test_idx])
    return train, test
