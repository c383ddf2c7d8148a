"""Matrix and vector file exchange.

Two formats, chosen by content on read and by extension on write:

* Dense MatrixMarket array text ("%%MatrixMarket matrix array real general"),
  entries printed column-major with 17 significant digits so a write/read
  round trip is exact.
* A compact binary layout for large runs: 8-byte magic "RNLADNS1", two
  little-endian uint64 dims, then the row-major float64 payload.

Readers reject NaN/Inf with the offending line (text) or flat index (binary)
and report parse errors with line numbers.

The text reader keeps its bulk parse of the body only when that is exactly
rows x cols finite entries, one per line, with the bits ``float()`` gives;
anything else goes to the line scanner, which decides what the file holds
or which error to raise.
"""

from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .linalg import _first_nonfinite, as_matrix, as_vector

__all__ = [
    "BINARY_MAGIC",
    "MatrixFileError",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]

BINARY_MAGIC = b"RNLADNS1"

_BANNER = "%%MatrixMarket matrix array real general"

# Entries formatted per write by the text writer (128 KiB of float64); memory
# is bounded by one block of Python floats and their text.
_WRITE_BLOCK = 2 ** 14


class MatrixFileError(ValueError):
    """Malformed matrix file; message carries the path and position."""


def _is_binary_path(path) -> bool:
    return Path(path).suffix.lower() in (".bin", ".rnla")


def write_matrix(path, M) -> None:
    """Write M to path; ".bin"/".rnla" selects the binary format.

    Raises ValueError, before the file is opened, on an empty matrix:
    neither format reads one back.
    """
    _write(path, as_matrix(M))


def _write(path, M: np.ndarray) -> None:
    """write_matrix of an already validated matrix."""
    if M.size == 0:
        raise ValueError(f"{path}: dimensions must be positive, got "
                         f"{M.shape[0]} x {M.shape[1]}")
    if _is_binary_path(path):
        _write_binary(path, M)
    else:
        _write_text(path, M)


def read_matrix(path, transpose: bool = False) -> np.ndarray:
    """Read a matrix, sniffing binary vs text by the leading magic bytes.

    The result is row-major.  With transpose=True it is the file's matrix
    transposed: for a text file, whose entries run down columns, that is the
    parsed body itself, with no copy.
    """
    p = Path(path)
    with open(p, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    if head == BINARY_MAGIC:
        M = _read_binary(p)
        return np.ascontiguousarray(M.T) if transpose else M
    M_T = _read_text(p)  # stored column-major: the rows of M^T
    return M_T if transpose else M_T.T.copy()


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 matrix."""
    _write(path, as_vector(v).reshape(-1, 1))


def read_vector(path) -> np.ndarray:
    """Read a vector: accepts n x 1 or 1 x n files."""
    M = read_matrix(path)
    if 1 not in M.shape:
        raise MatrixFileError(f"{path}: expected a vector, got shape {M.shape}")
    return M.reshape(-1)


def _write_text(path, M: np.ndarray) -> None:
    m, n = M.shape
    cols = max(1, _WRITE_BLOCK // m)
    with open(path, "w") as fh:
        fh.write(_BANNER + "\n")
        fh.write(f"{m} {n}\n")
        # MatrixMarket array entries run down columns.  "%.17g" prints the
        # same digits as format(x, ".17g").
        for j in range(0, n, cols):
            block = M[:, j:j + cols].T.ravel().tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))


def _read_text(path) -> np.ndarray:
    """The file's matrix transposed, row-major: its body as read."""
    try:
        with open(path, "r") as fh:
            m, n, _ = _read_size(path, _plain_lines(fh))
            values = _bulk_values(fh, m * n)
    except ValueError:
        # A header error, an undecodable byte or a body loadtxt refuses:
        # the scanner raises exactly what a full read reports.
        values = None
    if values is None:
        m, n, values = _scan_text(path)
    return values.reshape((n, m))


def _plain_lines(fh):
    """Lines of fh up to the first one that holds a line break other than
    "\n" (form feed, "\x1c", U+2028, ...): there readline and splitlines()
    disagree on line numbers, so the header is left to the scanner."""
    for raw in fh:
        lines = raw.splitlines()
        if len(lines) != 1:
            return
        yield lines[0]


def _read_size(path, lines) -> tuple[int, int, int]:
    """Check the banner, skip comment lines and parse the size line.

    Returns rows, cols and the 1-based number of the size line.
    """
    banner = next(lines, None)
    if banner is None:
        raise MatrixFileError(f"{path}: empty file")
    if [w.lower() for w in banner.split()] != [w.lower() for w in _BANNER.split()]:
        raise MatrixFileError(
            f"{path}: line 1: expected banner {_BANNER!r}, got {banner!r}")
    for ln, line in enumerate(lines, start=2):
        if not line.lstrip().startswith("%"):
            break
    else:
        raise MatrixFileError(f"{path}: missing size line")
    parts = line.split()
    if len(parts) != 2:
        raise MatrixFileError(
            f"{path}: line {ln}: size line must be 'rows cols', got {line!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFileError(
            f"{path}: line {ln}: non-integer dimensions {line!r}") from None
    if m < 1 or n < 1:
        raise MatrixFileError(f"{path}: line {ln}: dimensions must be positive")
    return m, n, ln


def _bulk_values(fh, count: int) -> np.ndarray | None:
    """The rest of fh as `count` finite floats, one per line, or None."""
    # A file of size bytes holds at most (size + 1) // 2 entries, a digit and
    # a line break each but the last; a header that claims more is the
    # scanner's to report.  max_rows = count + 1 sizes loadtxt's result from
    # the header, where it would grow it by quarters (up to 1.25x), and
    # still shows a longer body.
    if count > (os.fstat(fh.fileno()).st_size + 1) // 2:
        return None
    with warnings.catch_warnings():
        # An empty body is the scanner's to report, not a warning.
        warnings.simplefilter("ignore", UserWarning)
        # ndmin=2 keeps a lone line "1 2" as one row of two, not two entries.
        values = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2,
                            max_rows=count + 1)
    if values.shape != (count, 1):
        return None
    values = values.reshape(count)
    return None if _first_nonfinite(values) is not None else values


def _scan_text(path) -> tuple[int, int, np.ndarray]:
    """Read the file line by line; report the first bad line by number."""
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as e:
        # One read() decodes the whole file, so e.start is a file offset.
        raise MatrixFileError(f"{path}: byte {e.start}: can't decode byte "
                              f"0x{e.object[e.start]:02x} as {e.encoding}") from None
    m, n, size_ln = _read_size(path, iter(lines))
    # No more entries than body lines: a header alone never sizes the buffer.
    values = np.empty(min(m * n, len(lines) - size_ln))
    count = 0
    for ln in range(size_ln + 1, len(lines) + 1):
        text = lines[ln - 1].strip()
        if not text or text.startswith("%"):
            continue
        if count >= m * n:
            raise MatrixFileError(
                f"{path}: line {ln}: more than {m * n} entries")
        try:
            x = float(text)
        except ValueError:
            raise MatrixFileError(
                f"{path}: line {ln}: not a number: {text!r}") from None
        if not np.isfinite(x):
            raise MatrixFileError(
                f"{path}: line {ln}: non-finite entry {text!r}")
        values[count] = x
        count += 1
    if count != m * n:
        raise MatrixFileError(
            f"{path}: expected {m * n} entries for a {m} x {n} matrix, found {count}")
    return m, n, values


def _write_binary(path, M: np.ndarray) -> None:
    m, n = M.shape
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", m, n))
        fh.write(np.ascontiguousarray(M, dtype="<f8"))  # its buffer, not a copy


def _read_binary(path) -> np.ndarray:
    header = len(BINARY_MAGIC) + 16
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) < header:
            raise MatrixFileError(f"{path}: truncated header")
        m, n = struct.unpack("<QQ", head[len(BINARY_MAGIC):])
        if m < 1 or n < 1:
            raise MatrixFileError(f"{path}: dimensions must be positive, got {m} x {n}")
        payload = os.fstat(fh.fileno()).st_size - header
        if payload != 8 * m * n:
            raise MatrixFileError(
                f"{path}: payload is {payload} bytes, expected {8 * m * n}")
        # One read into the returned array; astype copies only on a
        # big-endian host.
        data = np.fromfile(fh, dtype="<f8", count=m * n).astype(np.float64, copy=False)
    bad = _first_nonfinite(data)
    if bad is not None:
        raise MatrixFileError(f"{path}: non-finite value at flat index {bad}")
    return data.reshape((int(m), int(n)))
