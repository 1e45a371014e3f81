import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsegp.data import (Dataset, load_csv, synth_fixed_function_dataset,
                           synth_prior_dataset, write_csv)
from sparsegp.errors import DimensionMismatch, EmptyFile, NonFiniteValue, ParseError
from sparsegp.kernels import GaussianKernel
from sparsegp.linalg import noise_factor


def test_dataset_shapes_and_properties():
    data = Dataset(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
    assert data.inputs.shape == (3, 1)
    assert data.n == 3 and data.d == 1


def test_dataset_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((3, 1)), np.zeros(2))


def test_dataset_rejects_nan():
    # NonFiniteValue is also a ValueError, for callers that catch that
    with pytest.raises(NonFiniteValue, match="NaN or Inf"):
        Dataset(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(NonFiniteValue, match="NaN or Inf"):
        Dataset(np.array([[1.0]]), np.array([np.inf]))


def test_synth_prior_is_seeded_and_scales_with_kernel():
    kernel = GaussianKernel(lengthscale=1.0)
    X = np.linspace(-3, 3, 20)
    a = synth_prior_dataset(kernel, X, noise_var=0.1, seed=5)
    b = synth_prior_dataset(kernel, X, noise_var=0.1, seed=5)
    c = synth_prior_dataset(kernel, X, noise_var=0.1, seed=6)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)


def test_synth_prior_marginal_statistics():
    # each y_i is N(0, k(x,x) + s2) = N(0, 1.1); check the pooled variance
    kernel = GaussianKernel(lengthscale=1.0)
    X = np.linspace(-200, 200, 400)  # far apart, essentially independent
    data = synth_prior_dataset(kernel, X, noise_var=0.1, seed=0)
    var = np.var(data.targets)
    assert var == pytest.approx(1.1, rel=0.2)


def test_synth_fixed_function_noiseless():
    data = synth_fixed_function_dataset(lambda x: float(x[0]) ** 2,
                                        np.array([1.0, 2.0, 3.0]),
                                        noise_var=0.0, seed=0)
    assert np.allclose(data.targets, [1.0, 4.0, 9.0])


def test_synth_fixed_function_noise_statistics():
    rng_free = synth_fixed_function_dataset(lambda x: 0.0, np.zeros(5000),
                                            noise_var=0.25, seed=1)
    assert np.std(rng_free.targets) == pytest.approx(0.5, rel=0.1)
    assert np.mean(rng_free.targets) == pytest.approx(0.0, abs=0.05)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    data = Dataset(rng.uniform(-3, 3, size=(10, 2)), rng.standard_normal(10))
    path = tmp_path / "data.csv"
    write_csv(path, data)
    loaded = load_csv(path)
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.targets, data.targets)
    assert loaded.d == 2


def _peak_in_n_by_n_buffers(run, n):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (n * n * 8)
    finally:
        tracemalloc.stop()


def test_prior_draw_allocates_one_n_by_n_buffer_per_matrix():
    # the Gram is built in the buffer of A @ B.T, and noise_factor shifts a
    # symmetric Gram in place, so the draw holds only the Gram and the factor
    # (np.linalg.cholesky's own work copy is not traced)
    n = 1000
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    X = np.random.default_rng(3).uniform(-3, 3, size=(n, 2))
    K = kernel.gram(X)
    assert _peak_in_n_by_n_buffers(lambda: kernel.gram(X), n) < 1.25
    assert _peak_in_n_by_n_buffers(lambda: noise_factor(K, 0.1), n) < 1.25
    assert _peak_in_n_by_n_buffers(
        lambda: synth_prior_dataset(kernel, X, 0.1, seed=0), n) < 2.25


@pytest.mark.parametrize("d", [1, 3])
def test_write_csv_bytes_match_csv_writer(d, tmp_path):
    values = [-1.5, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, -0.0, 123456.789, 2.0 / 3.0]
    rng = np.random.default_rng(d)
    table = rng.permutation(np.resize(values, 9 * (d + 1))).reshape(9, d + 1)
    data = Dataset(table[:, :d], table[:, d])
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(d)] + ["y"])
        for row in table:
            writer.writerow([f"{v:.17g}" for v in row])
    path = tmp_path / "data.csv"
    write_csv(path, data)
    assert path.read_bytes() == reference.read_bytes()
    loaded = load_csv(path)
    assert np.array_equal(loaded.inputs.view(np.int64), data.inputs.view(np.int64))
    assert np.array_equal(loaded.targets.view(np.int64), data.targets.view(np.int64))


def test_load_csv_missing_file_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(path)


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("x1,y\n")
    with pytest.raises(EmptyFile):
        load_csv(path)


def test_load_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 1


def test_load_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("x1,y\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_wrong_field_count(tmp_path):
    path = tmp_path / "fields.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_bad_float_after_blank_lines_reports_its_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x1,y\n1.0,2.0\n\n\n3.0,4.0\n\n5.0,1.2.3\n6.0,7.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 7
    assert "1.2.3" in exc.value.reason


def test_load_csv_checks_field_counts_before_converting(tmp_path):
    # The short row on line 4 is reported, although line 3 holds a value
    # that does not convert: field counts are checked for the whole file
    # before any value is converted.
    path = tmp_path / "short.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,oops,3.0\n1.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 4
    assert "expected 3 fields" in exc.value.reason


def test_load_csv_accepts_quoted_and_padded_fields(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('x1,x2,y\n"1.5", 2.0 ,"  -3e-2 "\n\t4,1_000,"7"\n')
    data = load_csv(path)
    assert np.array_equal(data.inputs, [[1.5, 2.0], [4.0, 1000.0]])
    assert np.array_equal(data.targets, [-3e-2, 7.0])


def test_load_csv_values_match_python_float(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-30, 30, (50, 3))
    lines = ["x1,x2,y"] + [",".join(repr(float(v)) for v in row) for row in values]
    path = tmp_path / "exact.csv"
    path.write_text("\n".join(lines) + "\n")
    data = load_csv(path)
    assert np.array_equal(data.inputs, values[:, :2])
    assert np.array_equal(data.targets, values[:, 2])


def test_load_csv_rejects_nan_rows(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x1,y\n1.0,2.0\nnan,3.0\n")
    with pytest.raises(ParseError, match="NaN or Inf: x1 = 'nan'") as err:
        load_csv(path)
    assert err.value.line == 3


def test_load_csv_reports_the_first_non_finite_field(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,2.0,-inf\n\n4.0,inf,nan\n")
    with pytest.raises(ParseError, match="y = '-inf'") as err:
        load_csv(path)
    assert err.value.line == 3
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n\n4.0,inf,nan\n")
    with pytest.raises(ParseError, match="x2 = 'inf'") as err:
        load_csv(path)
    assert err.value.line == 4


def test_load_csv_accepts_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with the mark; the file loads
    # bit for bit as the same bytes without it, on both parse paths
    for body in (b"1,2\r\n3,4\r\n", b"1,2\r\n1_0,4\r\n"):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"x1,y\r\n" + body)
        marked.write_bytes(b"\xef\xbb\xbfx1,y\r\n" + body)
        a, b = load_csv(plain), load_csv(marked)
        assert np.array_equal(a.inputs.view(np.int64), b.inputs.view(np.int64))
        assert np.array_equal(a.targets.view(np.int64), b.targets.view(np.int64))


def _reference_load(text, path):
    """The dataset of a CSV text by csv.reader and float() on each field,
    with load_csv's rules: field counts first, then the first value that
    does not parse, then the first non-finite value in row-major order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(reader)]
    d = len(header) - 1
    rows, linenos = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise ParseError(lineno, f"expected {d + 1} fields, got {len(row)}")
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    table = []
    for lineno, row in zip(linenos, rows):
        try:
            table.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    for lineno, row, values in zip(linenos, rows, table):
        for name, field, value in zip(header, row, values):
            if not np.isfinite(value):
                raise ParseError(lineno, f"dataset contains NaN or Inf: {name} = {field!r}")
    return np.array(table)


def _outcome(load):
    try:
        return load()
    except (ParseError, EmptyFile) as exc:
        return type(exc).__name__, getattr(exc, "line", None), getattr(exc, "reason", str(exc))


_PADDING = st.text(st.sampled_from(" \t\v\f\x1c\xa0"), max_size=2)
_NUMBER = st.builds(lambda fmt, v: fmt(v), st.sampled_from([repr, "%.17g".__mod__, "%.3e".__mod__]),
                    st.floats(width=64))
_TOKEN = st.one_of(_NUMBER, st.sampled_from(
    ["1_0", "nan", "inf", "-inf", "Infinity", "1e400", "-0", "١", "", "1.2.3", "oops", '1"2"']))


@st.composite
def _field(draw):
    text = draw(_PADDING) + draw(_TOKEN) + draw(_PADDING)
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def _csv_text(draw):
    d = draw(st.integers(1, 3))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join([f"x{i + 1}" for i in range(d)] + ["y"])]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        width = d + 1 + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        lines.append(",".join(draw(_field()) for _ in range(width)))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_text())
def test_load_csv_matches_a_float_per_field_reference(tmp_path, text):
    # load_csv reads most files with numpy's C reader and the rest row by
    # row; either way it returns the reference's bits or raises its error,
    # and it prints no warning
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: load_csv(path))
    want = _outcome(lambda: _reference_load(text, path))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        table = np.column_stack((got.inputs, got.targets))
        assert np.array_equal(table.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("body, expected", [
    ("1_0,2\n", [[10.0, 2.0]]),  # numpy's reader rejects the underscore
    ("١,2\n", [[1.0, 2.0]]),  # and non-ASCII digits
    ("\x1c1,2\n", ("ParseError", 2, "could not convert string to float: '\\x1c1'")),
    ("1,2\n   \n", ("ParseError", 3, "expected 2 fields, got 1")),
    ("\n\r\n\n", ("EmptyFile", None, None)),
    ("", ("EmptyFile", None, None)),
])
def test_load_csv_row_path_decides_where_numpy_differs_from_float(tmp_path, body, expected):
    path = tmp_path / "data.csv"
    path.write_text("x1,y\n" + body, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: load_csv(path))
    if isinstance(expected, tuple):
        assert got[:2] == expected[:2]
        if expected[2] is not None:
            assert got[2] == expected[2]
    else:
        assert np.array_equal(np.column_stack((got.inputs, got.targets)), expected)


# A field of 200 001 characters, past csv.field_size_limit() (131072 by
# default); its value is 1e-199999, which float() reads as 0.0.
_LONG_FIELD = "0." + "0" * 199998 + "1"


@pytest.mark.parametrize("text, line", [
    ("x1,y\n1_0," + _LONG_FIELD + "\n", 2),  # the 1_0 field sends the file row by row
    ("x1,y\n1,2\n\n3_0," + _LONG_FIELD + "\n", 4),
    ("x" * 200000 + ",y\n1,2\n", 1),
], ids=["row", "row-after-blank", "header"])
def test_load_csv_reports_a_field_past_the_csv_limit_with_its_line(tmp_path, text, line):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == line
    assert exc.value.reason == f"field larger than field limit ({csv.field_size_limit()})"


def test_load_csv_reads_a_field_past_the_csv_limit_as_float_does(tmp_path):
    # numpy's reader has no field limit: a file it takes reads the field
    path = tmp_path / "data.csv"
    path.write_text("x1,y\n1," + _LONG_FIELD + "\n", encoding="utf-8", newline="")
    data = load_csv(path)
    assert data.inputs.tolist() == [[1.0]]
    assert data.targets.view(np.int64).tolist() == [np.float64(float(_LONG_FIELD)).view(np.int64)]
