"""Synthetic data generation, CSV ingestion, standardization, and splitting.

CSV format: comma delimiter, one header row, '.' decimal point, UTF-8, no
quoting of numerics. Numbers are written with enough digits ('%.17g') that a
write/read round trip is bit-identical for finite doubles. Rows with missing
fields are rejected rather than imputed.

save_csv writes the fixed header x1,...,xd,y through csv.writer and formats
the rows in blocks of _SAVE_BLOCK_ROWS, each with one '%' on a row template;
every line, the header's too, ends in CRLF, as csv.writer ends lines.

load_csv reads the header with csv.reader and parses the remaining lines with
np.loadtxt. It keeps that result only when loadtxt raised and warned nothing
and gave one row per line, each as wide as the header. Otherwise (a blank or
'#' line, a quoted cell, '1_0', a header-only file, a field longer than the
csv module's limit, or one of the separators U+001C to U+001F, which loadtxt
strips and float() does not) it parses the lines again with csv.reader and
float(), cell by cell. That parser alone raises ParseError and
NonNumericColumn, with their rows and columns.
"""

from __future__ import annotations

import csv
import math
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

    target_column may be a header name or a 0-based column index.

    Raises
    ------
    MissingTarget
        if the named column is absent (or the index out of range).
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
    values = _parse_fast(lines, len(header))
    # csv.reader's own errors come before MissingTarget, as they always have.
    rows = list(csv.reader(lines)) if values is None else None

    header = [h.strip() for h in header]
    if isinstance(target_column, int):
        if not 0 <= target_column < len(header):
            raise MissingTarget(
                f"target index {target_column} out of range for {len(header)} columns"
            )
        target_idx = target_column
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


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV under the header x1,...,xd,y; values round-trip
    bit-identically via load_csv."""
    # The rows as csv.writer would write them: no numeral needs quoting.
    row = ",".join(["%.17g"] * (data.d + 1)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([f"x{j + 1}" for j in range(data.d)] + ["y"])
        for start in range(0, data.n, _SAVE_BLOCK_ROWS):
            stop = start + _SAVE_BLOCK_ROWS
            block = np.column_stack((data.X[start:stop], data.Y[start:stop]))
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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
