import csv
import multiprocessing
import os
import tempfile
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
    """Cut save_csv and load_csv calls into `parts` row ranges, whatever the
    machine, from as few as `parts` rows."""
    monkeypatch.setattr(data_pipeline.os, "sched_getaffinity", lambda pid: set(range(parts)),
                        raising=False)
    monkeypatch.setattr(data_pipeline, "_CELLS_PER_PART", 1)


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


def _in_this_process_only(monkeypatch, name, effect):
    """Make data_pipeline.<name> call effect() first, in this process alone:
    a forked child runs the real function."""
    real, parent = getattr(data_pipeline, name), os.getpid()

    def patched(*args):
        if os.getpid() == parent:
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
    _in_this_process_only(monkeypatch, "_parse_fast", _raise_here)
    with pytest.raises(RuntimeError, match="range failed"):
        load_csv(p, "y")
    assert multiprocessing.active_children() == []
    _in_this_process_only(monkeypatch, "_format_rows", _raise_here)
    with pytest.raises(RuntimeError, match="range failed"):
        save_csv(ds, tmp_path / "u.csv")
    assert len(started) == 4


def _unstartable(process):
    raise OSError("cannot fork")


@pytest.mark.parametrize("fault", ["cannot_start", "ends_without_sending"])
def test_a_range_whose_child_fails_runs_here(fault, tmp_path, monkeypatch):
    ds = _parts_table()
    one, cut = tmp_path / "one.csv", tmp_path / "cut.csv"
    save_csv(ds, one)
    loaded = _outcome(one)
    _cut(monkeypatch, 3)
    if fault == "cannot_start":
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _unstartable)
    else:
        monkeypatch.setattr(data_pipeline, "_send", lambda *args: None)
    save_csv(ds, cut)
    assert cut.read_bytes() == one.read_bytes()
    assert _outcome(cut) == loaded
    assert multiprocessing.active_children() == []


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
