import csv
import itertools
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certbayes import (
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    standardize_fit_transform,
    validate_dataset,
)
from certbayes import data_pipeline
from certbayes.errors import (
    CertBayesError,
    Empty,
    MissingTarget,
    NonFiniteEntry,
    NonNumericColumn,
    ParseError,
    TooFewRows,
    ZeroVarianceColumn,
)


# --- synthetic generation ------------------------------------------------------


def test_generate_synthetic_reproducible():
    spec = SyntheticSpec(n=50, d=3, sigma_x_sq=1.0, sigma_sq=0.5, theta_star_norm_sq=2.0, seed=7)
    a, theta_a = generate_synthetic(spec)
    b, theta_b = generate_synthetic(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert np.array_equal(theta_a, theta_b)


def test_generate_synthetic_theta_norm_exact():
    spec = SyntheticSpec(n=5, d=4, sigma_x_sq=1.0, sigma_sq=1.0, theta_star_norm_sq=0.5, seed=0)
    _, theta = generate_synthetic(spec)
    assert float(theta @ theta) == pytest.approx(0.5, rel=1e-12)


def test_generate_synthetic_noise_variance():
    spec = SyntheticSpec(
        n=10_000, d=5, sigma_x_sq=1.0, sigma_sq=1.0 / 9.0, theta_star_norm_sq=0.5, seed=3
    )
    data, theta = generate_synthetic(spec)
    resid = data.Y - data.X @ theta
    assert float(np.var(resid)) == pytest.approx(1.0 / 9.0, rel=0.05)


def test_generate_synthetic_zero_signal():
    spec = SyntheticSpec(n=100, d=3, sigma_x_sq=1.0, sigma_sq=1.0, theta_star_norm_sq=0.0, seed=1)
    data, theta = generate_synthetic(spec)
    assert np.all(theta == 0.0)
    assert data.n == 100


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, d=3, sigma_x_sq=1.0, sigma_sq=1.0, theta_star_norm_sq=0.5, seed=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=3, sigma_x_sq=-1.0, sigma_sq=1.0, theta_star_norm_sq=0.5, seed=0)


# --- CSV ingestion ----------------------------------------------------------------


def test_load_csv_well_formed(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(p, "y")
    assert ds.n == 3 and ds.d == 2
    np.testing.assert_array_equal(ds.Y, [3.0, 6.0, 9.0])
    np.testing.assert_array_equal(ds.X[:, 1], [2.0, 5.0, 8.0])


def test_load_csv_target_by_index(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,2,3\n")
    ds = load_csv(p, 0)
    np.testing.assert_array_equal(ds.Y, [1.0])
    np.testing.assert_array_equal(ds.X, [[2.0, 3.0]])


def test_load_csv_missing_target(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(MissingTarget):
        load_csv(p, "y")
    with pytest.raises(MissingTarget):
        load_csv(p, 5)


def test_load_csv_target_by_numpy_integer(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,2,3\n4,5,7\n")
    ds = load_csv(p, np.int64(2))
    np.testing.assert_array_equal(ds.Y, [3.0, 7.0])
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])
    with pytest.raises(MissingTarget, match="out of range"):
        load_csv(p, np.int32(3))


@pytest.mark.parametrize("target", [True, False, np.True_])
def test_load_csv_refuses_a_bool_target(target, tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,5\n")
    with pytest.raises(MissingTarget, match="neither a name nor an index"):
        load_csv(p, target)


def test_load_csv_bad_cell_location(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n1,oops\n3,4\n")
    with pytest.raises(ParseError) as info:
        load_csv(p, "a")
    assert info.value.row == 3 and info.value.column == 2


def test_load_csv_non_numeric_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("name,y\nalpha,1\nbeta,2\n")
    with pytest.raises(NonNumericColumn):
        load_csv(p, "y")


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(ParseError, match="file is empty") as info:
        load_csv(p, "y")
    assert info.value.row == 1


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError) as info:
        load_csv(p, "a")
    assert info.value.row == 3


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    ds = validate_dataset(rng.standard_normal((20, 4)) * 1e3, rng.standard_normal(20) / 7.0)
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    back = load_csv(p, "y")
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)



# Edge files, each with what load_csv gives for it: the dataset as (X, Y), or
# the exception type with its row and column. The cell-by-cell parser gave
# these before load_csv had a NumPy fast path, and the fast path must too.
_EDGE_FILES = {
    "blank_line_middle": ("a,y\n1,2\n\n3,4\n", (ParseError, 3, None)),
    "blank_line_end": ("a,y\n1,2\n3,4\n\n", (ParseError, 4, None)),
    "whitespace_line": ("a,y\n1,2\n  \n3,4\n", (ParseError, 3, None)),
    "whitespace_line_one_column": ("y\n1\n  \n2\n", (ParseError, 3, 1)),
    "comment_line": ("a,y\n1,2\n# note\n3,4\n", (ParseError, 3, None)),
    "comment_cell": ("a,y\n1,2\n#3,4\n", (ParseError, 3, 1)),
    "quoted_cell": ('a,y\n1,"2"\n3,4\n', ([[1.0], [3.0]], [2.0, 4.0])),
    "quoted_header": ('"a,b",y\n1,2\n', ([[1.0]], [2.0])),
    "trailing_comma": ("a,y\n1,2,\n3,4\n", (ParseError, 2, None)),
    "trailing_comma_everywhere": ("a,y,\n1,2,\n3,4,\n", (NonNumericColumn, None, None)),
    "empty_cell": ("a,y\n1,2\n,4\n", (ParseError, 3, 1)),
    "header_only": ("a,y\n", (Empty, None, None)),
    "header_only_one_column": ("y\n", (Empty, None, None)),
    "underscore_digits": ("a,y\n1_0,2\n", ([[10.0]], [2.0])),
    "spaces_around_numbers": ("a,y\n 1 , 2\t\n", ([[1.0]], [2.0])),
    "infinite_cell": ("a,y\n1,inf\n", (NonFiniteEntry, None, None)),
    "lf": ("a,y\n1,2\n3,4", ([[1.0], [3.0]], [2.0, 4.0])),
    "crlf": ("a,y\r\n1,2\r\n3,4\r\n", ([[1.0], [3.0]], [2.0, 4.0])),
    "cr": ("a,y\r1,2\r3,4\r", ([[1.0], [3.0]], [2.0, 4.0])),
}


@pytest.mark.parametrize("name", sorted(_EDGE_FILES))
def test_load_csv_edge_files(name, tmp_path):
    text, want = _EDGE_FILES[name]
    p = tmp_path / "edge.csv"
    p.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_csv(p, "y")
        except CertBayesError as exc:
            got = (type(exc), getattr(exc, "row", None), getattr(exc, "column", None))
        else:
            got = (ds.X.tobytes(), ds.Y.tobytes())
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got == (np.array(want[0]).tobytes(), np.array(want[1]).tobytes())
    assert not caught, [str(w.message) for w in caught]



def test_load_csv_field_over_csv_limit_raises_csv_error(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("a,y\n1," + "0" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(csv.Error):
        load_csv(p, "y")


def _outcome(path):
    """What load_csv gives for a file: the arrays' bytes, or the exception."""
    try:
        ds = load_csv(path, "y")
    except Exception as exc:  # any exception, so both parsers are compared on it
        return (type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None))
    return ds.X.shape, ds.X.tobytes(), ds.Y.tobytes()


def _fast_and_cell_outcomes(text: str):
    """load_csv's outcome on the text, and its outcome with the NumPy fast
    path turned off, so that the cell-by-cell parser reads every file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(path)
        with mock.patch.object(data_pipeline, "_parse_fast", return_value=None):
            cells = _outcome(path)
    return fast, cells


_EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -7.0, 2.0 ** 53 + 2.0,
]
_VALUES = st.one_of(
    st.sampled_from(_EXTREMES),
    st.integers(-(10 ** 17), 10 ** 17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 4))
def test_save_load_round_trip_bit_exact_both_parsers(data, n, d):
    table = np.array(data.draw(st.lists(_VALUES, min_size=n * (d + 1), max_size=n * (d + 1))))
    table = table.reshape(n, d + 1)
    ds = validate_dataset(table[:, :d], table[:, d])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        save_csv(ds, path)
        text = path.read_bytes().decode("utf-8")
    fast, cells = _fast_and_cell_outcomes(text)
    assert fast == cells == (ds.X.shape, ds.X.tobytes(), ds.Y.tobytes())


# Cells that float() and np.loadtxt may read differently: padding, signs,
# underscores, quotes, comment marks, non-ASCII digits and the separators
# \x1c-\x1f, which only np.loadtxt strips.
_ODD_CELL = st.one_of(
    st.sampled_from(["1_0", '"2"', "#3", " 4 ", "\t5", "\x1c6", "7\x1f", "\xa08",
                     "\u0669", "1e400", "nan", "-inf", "", "+.5", "5.", "0x1"]),
    st.text(alphabet="0123456789.eE+-_ \"#\x0c\x1d", max_size=5),
)
_NUMERAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10 ** 20), 10 ** 20).map(str),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 3), final_end=st.sampled_from(["", "\n"]))
def test_load_csv_fast_path_matches_cell_parser(data, width, final_end):
    row = st.one_of(
        st.lists(_NUMERAL, min_size=width, max_size=width),
        st.lists(st.one_of(_NUMERAL, _ODD_CELL), min_size=width, max_size=width),
        st.lists(st.one_of(_NUMERAL, _ODD_CELL), max_size=width + 1),
    )
    rows = data.draw(st.lists(row, max_size=5))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(rows), max_size=len(rows)))
    header = ",".join([f"x{j}" for j in range(width - 1)] + ["y"])
    body = "".join(",".join(cells) + end for cells, end in zip(rows, ends))
    if rows:
        body = body[: -len(ends[-1])] + final_end
    fast, cells = _fast_and_cell_outcomes(header + "\n" + body)
    assert fast == cells


# --- save_csv's '%.17g' kernel ---------------------------------------------------


def _percent(block):
    """The oracle: each cell as '%.17g' % x writes it, then ',' or, after a
    row's last cell, CRLF."""
    return "".join(
        ",".join("%.17g" % v for v in row) + "\r\n" for row in block.tolist()
    ).encode("ascii")


def _formatted(block, extended):
    """_format_cells' bytes, with the long double check as `extended`."""
    if extended and not data_pipeline._EXTENDED_PRECISION:
        pytest.skip("numpy's long double is not the x87 type here")
    with mock.patch.object(data_pipeline, "_EXTENDED_PRECISION", extended):
        return data_pipeline._format_cells(block)


def _hard_to_print():
    """About 2e5 doubles on which a '%.17g' shortcut can go wrong, in and
    out of the kernel's range 1e-11 <= |x| < 1e16, half of them negative."""
    rng = np.random.default_rng(31)
    powers = 10.0 ** np.arange(-16, 22)
    # j + (2i + 1) / 2**m: among them exact ties of the 17th digit, such as
    # 100000000000000.125, which '%' rounds half to even.
    ties = (10.0 ** rng.integers(11, 16, 20_000) * rng.uniform(1, 2, 20_000)).round()
    ties += (2 * rng.integers(0, 2 ** 9, 20_000) + 1) / 2.0 ** rng.integers(1, 11, 20_000)
    values = np.concatenate([
        10.0 ** rng.uniform(-14, 20, 80_000),
        rng.integers(1, 2 ** 30, 30_000) / 2.0 ** rng.integers(0, 60, 30_000),
        rng.integers(0, 2 ** 53 + 1, 30_000, dtype=np.int64).astype(np.float64),
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        rng.integers(-(10 ** 9), 10 ** 9, 30_000) / 1000.0,
        ties, [100000000000000.125, 1e-11, 1e16, 0.1, 0.5, 1.0, 123.0],
        rng.uniform(0, 2.2250738585072014e-308, 5_000),
        [0.0, 5e-324, np.inf, np.nan, 1.7976931348623157e308],
    ])
    values[rng.random(values.size) < 0.5] *= -1.0
    return np.append(values, [-0.0, -np.inf])


@pytest.mark.parametrize("extended", [True, False])
def test_format_cells_writes_the_percent_bytes(extended):
    values = _hard_to_print()
    block = values[: values.size // 7 * 7].reshape(-1, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as CI runs with -W error::RuntimeWarning
        got = _formatted(block, extended)
    assert got == _percent(block)


def test_the_kernel_takes_the_cells_in_range_but_near_ties():
    if not data_pipeline._EXTENDED_PRECISION:
        pytest.skip("numpy's long double is not the x87 type here")
    values = _hard_to_print()
    size = np.abs(values)
    in_range = (size >= 1e-11) & (size < 1e16)
    _, fast = data_pipeline._fast_cells(values, np.zeros(values.size, bool))
    assert not fast[~in_range].any()
    assert fast[in_range].mean() > 0.9
    tie = np.array([100000000000000.125, -100000000000000.375, 1.5e-11])
    assert data_pipeline._fast_cells(tie, np.zeros(3, bool))[1].tolist() == [False, False, True]


_DOUBLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-11, 1e16),
    st.floats(-1e16, -1e-11),
    st.integers(-(2 ** 53), 2 ** 53).map(float),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), width=st.integers(1, 5),
       extended=st.booleans())
def test_format_cells_matches_percent_on_any_finite_double(data, rows, width, extended):
    cells = data.draw(st.lists(_DOUBLE, min_size=rows * width, max_size=rows * width))
    block = np.array(cells, dtype=np.float64).reshape(rows, width)
    assert _formatted(block, extended) == _percent(block)


def test_importing_certbayes_builds_no_format_table():
    """The layout table costs milliseconds; a process that saves no CSV
    should not pay for it."""
    package_root = str(Path(data_pipeline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [package_root, env.get("PYTHONPATH")] if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import certbayes, certbayes.cli; from certbayes import "
         "data_pipeline; print(data_pipeline._format_tables.cache_info().currsize)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# --- row ranges in forked children ------------------------------------------------


@pytest.fixture
def started(monkeypatch):
    """The processes started during a test; no child may outlive a call."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def recording(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    yield processes
    assert multiprocessing.active_children() == []


def _cut(monkeypatch, parts):
    """Cut save_csv calls into `parts` row ranges from as few as `parts`
    rows, and load_csv calls into `parts` byte ranges from a body of as few
    as 2 * `parts` bytes, whatever the machine."""
    monkeypatch.setattr(data_pipeline.os, "sched_getaffinity", lambda pid: set(range(parts)),
                        raising=False)
    monkeypatch.setattr(data_pipeline, "_CELLS_PER_PART", 1)
    monkeypatch.setattr(data_pipeline, "_CHUNK_BYTES", 1)


def _parts_table():
    """13 rows of extremes and random values, formatted in blocks of 4 rows
    so that blocks and ranges both end inside the table."""
    rng = np.random.default_rng(11)
    table = rng.standard_normal((13, 4)) * 10.0 ** rng.integers(-300, 300, (13, 4))
    table.ravel()[: len(_EXTREMES)] = _EXTREMES
    return validate_dataset(table[:, :3], table[:, 3])


@pytest.mark.parametrize("parts", [2, 3])
def test_save_csv_in_parts_writes_the_one_part_bytes(parts, tmp_path, monkeypatch, started):
    ds = _parts_table()
    monkeypatch.setattr(data_pipeline, "_SAVE_BLOCK_ROWS", 4)
    one, cut = tmp_path / "one.csv", tmp_path / "cut.csv"
    save_csv(ds, one)
    assert started == []
    _cut(monkeypatch, parts)
    save_csv(ds, cut)
    assert len(started) == parts - 1
    oracle = "x1,x2,x3,y\r\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\r\n"
        for row in np.column_stack((ds.X, ds.Y)).tolist()
    )
    assert cut.read_bytes() == one.read_bytes() == oracle.encode("ascii")


@pytest.mark.parametrize("cells", [1, 9])
def test_save_csv_in_pieces_of_whole_rows_writes_the_same_bytes(cells, tmp_path, monkeypatch):
    """A block goes to the kernel in pieces of whole rows of at most
    _FORMAT_CELLS cells, and of one row where a row is wider."""
    ds = _parts_table()
    one, cut = tmp_path / "one.csv", tmp_path / "cut.csv"
    save_csv(ds, one)
    monkeypatch.setattr(data_pipeline, "_FORMAT_CELLS", cells)
    save_csv(ds, cut)
    assert cut.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("parts", [2, 3])
def test_load_csv_in_parts_reads_the_one_part_arrays(parts, tmp_path, monkeypatch, started):
    ds = _parts_table()
    p = tmp_path / "t.csv"
    save_csv(ds, p)
    one = _outcome(p)
    _cut(monkeypatch, parts)
    assert _outcome(p) == one == (ds.X.shape, ds.X.tobytes(), ds.Y.tobytes())
    assert len(started) == parts - 1


# Bodies with a defect of _EDGE_FILES after 12 good rows, so in the last
# range, and one whose every range fails.
_GOOD_ROWS = "1,2\n" * 12
_LAST_PART_DEFECTS = {
    "blank_line": _GOOD_ROWS + "\n3,4\n",
    "bad_cell": _GOOD_ROWS + "3,x\n",
    "quoted_cell": _GOOD_ROWS + '3,"4"\n',
    "cr_ends": _GOOD_ROWS + "3,4\r5,6\r",
    "ragged_row": _GOOD_ROWS + "3,4,5\n",
    "non_numeric_column": "a,2\n" * 13,
}


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("defect", sorted(_LAST_PART_DEFECTS))
def test_load_csv_in_parts_gives_the_one_part_outcome(defect, parts, tmp_path,
                                                      monkeypatch, started):
    p = tmp_path / "edge.csv"
    p.write_bytes(("x,y\n" + _LAST_PART_DEFECTS[defect]).encode("utf-8"))
    one = _outcome(p)
    _cut(monkeypatch, parts)
    assert _outcome(p) == one
    assert len(started) == parts - 1


def _first_in(monkeypatch, name, effect, here=True):
    """Make data_pipeline.<name> call effect() first, in this process alone
    or, unless `here`, in forked children alone: the others run the real
    function."""
    real, parent = getattr(data_pipeline, name), os.getpid()

    def patched(*args):
        if (os.getpid() == parent) == here:
            effect()
        return real(*args)

    monkeypatch.setattr(data_pipeline, name, patched)


def _raise_here():
    raise RuntimeError("this process's range failed")


def test_a_failing_range_here_leaves_no_child(tmp_path, monkeypatch, started):
    ds = _parts_table()
    p = tmp_path / "t.csv"
    save_csv(ds, p)
    _cut(monkeypatch, 3)
    _first_in(monkeypatch, "_parse_fast", _raise_here)
    with pytest.raises(RuntimeError, match="range failed"):
        load_csv(p, "y")
    assert multiprocessing.active_children() == []
    _first_in(monkeypatch, "_format_rows", _raise_here)
    with pytest.raises(RuntimeError, match="range failed"):
        save_csv(ds, tmp_path / "u.csv")
    assert len(started) == 4


def _unstartable(process):
    raise OSError("cannot fork")


def _end_child():
    os._exit(0)


@pytest.mark.parametrize("fault", ["cannot_start", "ends_without_sending",
                                   "ends_before_its_count", "ends_after_its_count"])
def test_a_range_whose_child_fails_runs_here(fault, tmp_path, monkeypatch):
    """A load_csv child that ends before its count leaves its range to be
    counted and parsed here; one that ends after it, to be parsed here."""
    ds = _parts_table()
    one, cut = tmp_path / "one.csv", tmp_path / "cut.csv"
    save_csv(ds, one)
    loaded = _outcome(one)
    _cut(monkeypatch, 3)
    if fault == "cannot_start":
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _unstartable)
    elif fault == "ends_without_sending":
        monkeypatch.setattr(data_pipeline, "_send", lambda *args: None)
    else:
        _first_in(monkeypatch, "_lines" if fault == "ends_before_its_count" else "_parse_range",
                  _end_child, here=False)
    save_csv(ds, cut)
    assert cut.read_bytes() == one.read_bytes()
    assert _outcome(cut) == loaded
    assert multiprocessing.active_children() == []


def _one_block_then(end):
    """A _send that sends its range's first block and then ends(sender)."""

    def send(sender, work, start, stop):
        sender.send_bytes(next(iter(work(start, stop))))
        end(sender)

    return send


@pytest.mark.parametrize("end", ["after_one_block", "inside_the_second_block"])
def test_a_save_child_that_ends_mid_range_leaves_the_rest_here(end, tmp_path, monkeypatch,
                                                               started):
    """In blocks of 2 rows, each of 3 ranges of the 13 rows is 2 or 3
    blocks; a child that sends only its first one, whole, or half of its
    second too, leaves the rest of its range to this process."""
    ds = _parts_table()
    one, cut = tmp_path / "one.csv", tmp_path / "cut.csv"
    save_csv(ds, one)
    monkeypatch.setattr(data_pipeline, "_SAVE_BLOCK_ROWS", 2)
    _cut(monkeypatch, 3)
    if end == "after_one_block":
        ending = _one_block_then(lambda sender: None)
    else:  # a 4-byte length header promising 100 bytes, then 10 of them
        ending = _one_block_then(
            lambda sender: os.write(sender.fileno(), (100).to_bytes(4, "big") + b"x" * 10))
    monkeypatch.setattr(data_pipeline, "_send", ending)
    save_csv(ds, cut)
    assert len(started) == 2
    assert cut.read_bytes() == one.read_bytes()


def _cell_outcome(path):
    """_outcome with the NumPy fast path turned off."""
    with mock.patch.object(data_pipeline, "_parse_fast", return_value=None):
        return _outcome(path)


def _no_cell_parser(*args):
    raise AssertionError("the cell-by-cell parser read the file")


# Bodies that pieces of a few bytes cut between a CR and its LF, after a
# bare CR, and inside a last line that has no line end.
_CUT_FILES = {
    "crlf": "x,y\r\n" + "1,2\r\n-3.5,4e1\r\n" * 6,
    "cr": "x,y\r" + "1,2\r-3.5,4e1\r" * 6,
    "no_last_line_end": "x,y\n" + "1,2\n-3.5,4e1\n" * 6 + "5,6",
}

# Byte offsets of a _CUT_FILES text at which to cut its body in two: at the
# header's end, which leaves this process an empty range; two bytes after
# the first row's last digit, so inside a CRLF where lines end in one; and
# at the last byte, inside the last line or its line end, which moves the
# cut to the file's end and so leaves one part.
_CUT_AT = {
    "after_header": lambda text: text.index("1"),
    "inside_a_crlf": lambda text: text.index("2") + 2,
    "at_the_last_byte": lambda text: len(text) - 1,
}


def _cut_at(monkeypatch, text, offset) -> int:
    """Cut load_csv's body in two at a byte offset of the text, checking
    that the real _line_start moves the cut to the next line start that
    str.splitlines gives. Returns the parts: 1 where the cut moves to the
    file's end."""
    real = data_pipeline._line_start
    starts = itertools.accumulate(map(len, text.splitlines(keepends=True)))
    cut = min(s for s in starts if s >= offset)

    def line_start(fh, at):
        if at == 1:  # the header's end
            return real(fh, at)
        assert real(fh, offset) == cut
        return cut

    monkeypatch.setattr(data_pipeline, "_line_start", line_start)
    return 2 if cut < len(text) else 1


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("parts", [1, 2, 3, *sorted(_CUT_AT)])
@pytest.mark.parametrize("name", sorted(_CUT_FILES))
def test_load_csv_streams_pieces_cut_anywhere(name, parts, chunk, tmp_path, monkeypatch,
                                              started):
    """In `parts` byte ranges, or in two cut at a byte offset of _CUT_AT,
    and in pieces of `chunk` bytes, load_csv reads the one-part arrays."""
    text = _CUT_FILES[name]
    p = tmp_path / "cut.csv"
    p.write_bytes(text.encode("ascii"))
    one, cells = _outcome(p), _cell_outcome(p)
    assert one == cells and one[0] in ((12, 1), (13, 1))
    if parts in _CUT_AT:
        _cut(monkeypatch, 2)
        parts = _cut_at(monkeypatch, text, _CUT_AT[parts](text))
    else:
        _cut(monkeypatch, parts)
    monkeypatch.setattr(data_pipeline, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(data_pipeline, "_parse_rows", _no_cell_parser)
    assert _outcome(p) == one
    assert len(started) == parts - 1


# Files that the streamed parser hands to the cell-by-cell parser whole, or
# that raise, with the outcome each gives.
_GOOD_BODY = b"1,2\n" * 12
_CUT_FALLBACKS = {
    "not_utf8_in_last_range": (b"x,y\n" + _GOOD_BODY + b"3,\xff4\n", UnicodeDecodeError),
    "header_over_two_lines": (b'"x\nz",y\n' + _GOOD_BODY,
                              ((12, 1), np.ones((12, 1)).tobytes(), np.full(12, 2.0).tobytes())),
    "header_only": (b"x,y\n", Empty),
}


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_CUT_FALLBACKS))
def test_load_csv_in_pieces_keeps_the_one_part_outcome(name, parts, tmp_path, monkeypatch):
    body, want = _CUT_FALLBACKS[name]
    p = tmp_path / "fallback.csv"
    p.write_bytes(body)
    one = _outcome(p)
    assert one == _cell_outcome(p)
    assert one[0] is want if isinstance(want, type) else one == want
    _cut(monkeypatch, parts)
    monkeypatch.setattr(data_pipeline, "_CHUNK_BYTES", 3)
    assert _outcome(p) == one


def test_load_csv_reads_a_pipe_once(tmp_path):
    """A pipe cannot be read twice, so the cell-by-cell parser reads it."""
    p, fifo = tmp_path / "t.csv", tmp_path / "t.pipe"
    save_csv(_parts_table(), p)
    os.mkfifo(fifo)
    got = []
    # a daemon, so that a reader stuck on opening the pipe again fails the test
    reader = threading.Thread(target=lambda: got.append(_outcome(fifo)), daemon=True)
    reader.start()
    fifo.write_bytes(p.read_bytes())  # fits in the pipe's buffer
    reader.join(timeout=30)
    assert got == [_outcome(p)]


# --- memory -------------------------------------------------------------------------


def _traced_peak(call):
    """call()'s result and the tracemalloc peak, in bytes, of what it allocated."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


def test_load_csv_holds_its_arrays_and_one_piece(tmp_path, monkeypatch):
    """In one part, load_csv parses into the X and Y it returns and holds
    beside them only the piece it is reading: its bytes and text, their lines
    and loadtxt's rows, about 4 * _CHUNK_BYTES here. Reading every line
    first and copying the parsed table twice took 8.0 times the arrays."""
    data, _ = generate_synthetic(SyntheticSpec(
        n=30_000, d=10, sigma_x_sq=1.0, sigma_sq=0.5, theta_star_norm_sq=1.0, seed=8))
    p = tmp_path / "t.csv"
    save_csv(data, p)
    monkeypatch.setattr(data_pipeline.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    got, peak = _traced_peak(lambda: load_csv(p, "y"))
    assert got.X.tobytes() == data.X.tobytes() and got.Y.tobytes() == data.Y.tobytes()
    assert peak < got.X.nbytes + got.Y.nbytes + 6 * data_pipeline._CHUNK_BYTES


def test_generate_synthetic_holds_one_feature_matrix():
    """generate_synthetic scales its draws in place and keeps them, so it
    peaks below 1.5 feature matrices: 2.2 when it scaled into a new array
    and the dataset copied that."""
    spec = SyntheticSpec(n=20_000, d=10, sigma_x_sq=2.0, sigma_sq=0.5,
                         theta_star_norm_sq=1.0, seed=8)
    (data, _), peak = _traced_peak(lambda: generate_synthetic(spec))
    assert peak < 1.5 * data.X.nbytes


def test_library_datasets_hold_frozen_arrays_of_their_own():
    """The datasets the library makes from arrays it has just made are
    frozen in place, and share no memory with their source."""
    data, _ = generate_synthetic(SyntheticSpec(
        n=40, d=3, sigma_x_sq=1.0, sigma_sq=0.5, theta_star_norm_sq=1.0, seed=2))
    train, test = split(data, SplitSpec(0.75, seed=3))
    made = [data, train, test, *standardize_fit_transform(train, test)]
    for ds in made:
        assert not ds.X.flags.writeable and not ds.Y.flags.writeable
        assert ds.X.flags.c_contiguous and ds.Y.flags.c_contiguous
    for a, b in itertools.combinations(made, 2):
        assert not np.shares_memory(a.X, b.X) and not np.shares_memory(a.Y, b.Y)


# --- standardization ----------------------------------------------------------------


def _tiny_pair():
    train = validate_dataset(np.array([[0.0], [2.0]]), np.array([0.0, 2.0]))
    test = validate_dataset(np.array([[1.0], [5.0]]), np.array([1.0, 5.0]))
    return train, test


def test_standardize_hand_values():
    train, test = _tiny_pair()
    train_s, test_s = standardize_fit_transform(train, test)
    np.testing.assert_allclose(train_s.X[:, 0], [-1.0, 1.0])
    np.testing.assert_allclose(train_s.Y, [-1.0, 1.0])
    # test uses the train stats (mean 1, population sd 1), not its own
    np.testing.assert_allclose(test_s.X[:, 0], [0.0, 4.0])


def test_standardize_train_moments():
    rng = np.random.default_rng(8)
    train = validate_dataset(rng.standard_normal((40, 3)) * 5 + 2, rng.standard_normal(40) * 9)
    test = validate_dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
    train_s, _ = standardize_fit_transform(train, test)
    assert np.max(np.abs(train_s.X.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(train_s.X.var(axis=0) - 1.0)) <= 1e-10
    assert abs(train_s.Y.mean()) <= 1e-10
    assert abs(train_s.Y.var() - 1.0) <= 1e-10


def test_standardize_idempotent_on_standardized_input():
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((30, 2))
    raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    y = rng.standard_normal(30)
    y = (y - y.mean()) / y.std()
    train = validate_dataset(raw, y)
    test = validate_dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
    train_s, _ = standardize_fit_transform(train, test)
    np.testing.assert_allclose(train_s.X, train.X, atol=1e-10)
    np.testing.assert_allclose(train_s.Y, train.Y, atol=1e-10)


def test_standardize_rejects_constant_column():
    train = validate_dataset(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    test = validate_dataset(np.array([[1.0, 2.0]]), np.array([3.0]))
    with pytest.raises(ZeroVarianceColumn):
        standardize_fit_transform(train, test)


def test_standardize_rejects_constant_label():
    train = validate_dataset(np.array([[0.0], [1.0]]), np.array([2.0, 2.0]))
    test = validate_dataset(np.array([[1.0]]), np.array([3.0]))
    with pytest.raises(ZeroVarianceColumn, match="label column is constant"):
        standardize_fit_transform(train, test)


def test_standardize_rejects_a_test_set_of_another_width():
    train = validate_dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    test = validate_dataset(np.array([[1.0]]), np.array([3.0]))
    with pytest.raises(ValueError, match="train has 2 features but test has 1"):
        standardize_fit_transform(train, test)


def test_standardize_rejects_single_row():
    train = validate_dataset(np.array([[1.0]]), np.array([0.0]))
    test = validate_dataset(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(TooFewRows):
        standardize_fit_transform(train, test)


# --- splitting ------------------------------------------------------------------------


def test_split_sizes_and_exhaustive():
    rng = np.random.default_rng(10)
    ds = validate_dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    train, test = split(ds, SplitSpec(train_fraction=0.7, seed=0))
    assert train.n == 7 and test.n == 3
    merged = np.vstack([np.column_stack([train.X, train.Y]), np.column_stack([test.X, test.Y])])
    original = np.column_stack([ds.X, ds.Y])
    assert np.array_equal(
        merged[np.lexsort(merged.T)], original[np.lexsort(original.T)]
    )


def test_split_deterministic():
    rng = np.random.default_rng(11)
    ds = validate_dataset(rng.standard_normal((20, 2)), rng.standard_normal(20))
    a_train, _ = split(ds, SplitSpec(train_fraction=0.5, seed=3))
    b_train, _ = split(ds, SplitSpec(train_fraction=0.5, seed=3))
    assert np.array_equal(a_train.X, b_train.X)


def test_split_varies_with_seed():
    rng = np.random.default_rng(12)
    ds = validate_dataset(rng.standard_normal((30, 2)), rng.standard_normal(30))
    trains = [split(ds, SplitSpec(train_fraction=0.5, seed=s))[0].X for s in range(5)]
    distinct = {t.tobytes() for t in trains}
    assert len(distinct) >= 2


def test_split_too_few_rows():
    ds = validate_dataset(np.ones((1, 1)), np.ones(1))
    with pytest.raises(TooFewRows):
        split(ds, SplitSpec(train_fraction=0.5, seed=0))
    two = validate_dataset(np.arange(2.0)[:, None], np.arange(2.0))
    with pytest.raises(TooFewRows):
        split(two, SplitSpec(train_fraction=0.01, seed=0))  # empty train side


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0, seed=0)
