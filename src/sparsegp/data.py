"""Datasets: CSV ingestion and seeded synthetic generation."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptyFile, InvalidParameter, NonFiniteValue,
                     ParseError)
from .kernels import Kernel, as_points
from .linalg import SpdFactor, noise_factor


@dataclass(frozen=True)
class Dataset:
    """Regression sample: inputs (n, d) and targets (n,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.targets, dtype=float).ravel()
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DimensionMismatch(f"inputs must be (n, d) with n >= 1, got {X.shape}")
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"{X.shape[0]} inputs but {y.shape[0]} targets"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise NonFiniteValue("dataset contains NaN or Inf")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


def synth_prior_dataset(kernel: Kernel, X, noise_var: float, seed: int,
                        factor: SpdFactor | None = None) -> Dataset:
    """Draw y ~ N(0, k_XX + noise_var * I) through the SPD factor, seeded.

    `factor`, the Cholesky factor of k_XX + noise_var * I without jitter,
    is built here unless the caller holds it already."""
    X = as_points(X, kernel.input_dim)
    if factor is None:
        factor = noise_factor(kernel.gram(X), noise_var)
    rng = np.random.default_rng(seed)
    y = factor.lower @ rng.standard_normal(X.shape[0])
    return Dataset(inputs=X, targets=y)


def synth_fixed_function_dataset(f0, X, noise_var: float, seed: int,
                                 input_dim: int = 1) -> Dataset:
    """y_i = f0(x_i) + eps_i with seeded Gaussian noise (noise_var may be 0)."""
    if not noise_var >= 0:
        raise InvalidParameter("noise_var must be nonnegative")
    if noise_var == np.inf:
        raise InvalidParameter("noise_var must be finite, got inf")
    X = as_points(X, input_dim)
    values = np.array([float(f0(x)) for x in X])
    rng = np.random.default_rng(seed)
    if noise_var > 0:
        values = values + np.sqrt(noise_var) * rng.standard_normal(X.shape[0])
    return Dataset(inputs=X, targets=values)


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with header x1,...,xd,y.

    The file is UTF-8, with or without a byte-order mark. Fields may be
    quoted or padded with whitespace, blank lines are skipped, and lines
    may end in LF, CRLF or CR. Each value is parsed exactly as Python's
    float() parses it.

    Raises ParseError with the 1-based line number on any malformed row or
    NaN / infinite field, EmptyFile when there are no data rows. Field
    counts are checked for the whole file before any value is converted, so
    a short row is reported ahead of an earlier value that does not parse.

    The data rows are parsed by numpy's C reader, which converts through
    the routine behind float(). Its result is kept only when it is a
    finite table of d + 1 columns; any other file, valid or not, is parsed
    again row by row, which returns the same dataset or names the error.

    A field longer than csv.field_size_limit() (131072 characters by
    default) is a ParseError naming the line and the limit when it is in
    the header or in a file that takes the row-by-row path. numpy's reader
    has no such limit and reads the field as float() reads it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise ParseError(reader.line_num, str(exc)) from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "y":
            raise ParseError(1, f"expected header x1,...,xd,y, got {header}")
        d = len(header) - 1
        expected = [f"x{i + 1}" for i in range(d)]
        if header[:-1] != expected:
            raise ParseError(1, f"expected columns {expected + ['y']}, got {header}")
        body = fh.read()
    arr = _read_table(body, d)
    if arr is not None:
        return Dataset(inputs=arr[:, :d], targets=arr[:, d])
    rows, linenos = [], []
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ParseError(lineno, f"expected {d + 1} fields, got {len(row)}")
            rows.append(row)
            linenos.append(lineno)
    except csv.Error as exc:
        raise ParseError(1 + reader.line_num, str(exc)) from None
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    table = []
    for lineno, row in zip(linenos, rows):
        try:
            table.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    arr = np.array(table)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]  # row-major: the first non-finite field in the file
        raise ParseError(linenos[i], f"dataset contains NaN or Inf: "
                                     f"{header[j]} = {rows[i][j]!r}")
    return Dataset(inputs=arr[:, :d], targets=arr[:, d])


def _read_table(body: str, d: int) -> np.ndarray | None:
    """The data rows below the header as a finite table of d + 1 columns,
    read by numpy's C reader; None when the row-by-row path must decide."""
    # numpy warns when it reads no row: a body of blank lines has none.
    # float() strips only ASCII space, \t, \n, \r, \v and \f from the ends
    # of a field, numpy's reader also the ASCII separators \x1c-\x1f.
    if not body.strip() or any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        arr = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None,
                         quotechar='"', dtype=float, ndmin=2)
    except ValueError:
        return None
    if arr.shape[1] != d + 1 or not np.isfinite(arr).all():
        return None
    return arr


def format_rows(inputs: np.ndarray, values: np.ndarray, newline: str = "\n") -> str:
    """The rows x_1,...,x_d,value of a table, each number to 17 significant
    digits, which round-trip every float64; one %-format over the whole
    table."""
    row = ",".join(["%.17g"] * (inputs.shape[1] + 1)) + newline
    table = np.column_stack((inputs, values))
    return (row * len(table)) % tuple(table.ravel().tolist())


def write_csv(path, data: Dataset) -> None:
    """Write a dataset in the load_csv format: the bytes of csv.writer (CRLF
    line ends; no field needs quoting) on format_rows' fields."""
    header = ",".join([f"x{i + 1}" for i in range(data.d)] + ["y"]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + format_rows(data.inputs, data.targets, "\r\n"))
