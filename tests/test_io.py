import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from rnla import (MatrixFileError, make_rng, read_matrix, read_vector,
                  write_matrix, write_vector)
from rnla import matio
from rnla.matio import BINARY_MAGIC

HEAD = "%%MatrixMarket matrix array real general\n"


def test_text_round_trip_exact(tmp_path):
    M = make_rng(0).standard_normal((5, 3))
    M[0, 0] = 1e300
    M[1, 1] = -1e-300
    M[2, 2] = 0.1  # not representable exactly; 17 digits must still round-trip
    p = tmp_path / "m.mtx"
    write_matrix(p, M)
    np.testing.assert_array_equal(read_matrix(p), M)


def test_binary_round_trip_exact(tmp_path):
    M = make_rng(1).standard_normal((4, 7))
    for name in ("m.bin", "m.rnla"):
        p = tmp_path / name
        write_matrix(p, M)
        assert p.read_bytes()[:8] == BINARY_MAGIC
        A = read_matrix(p)
        np.testing.assert_array_equal(A, M)
        assert A.dtype == np.float64 and A.flags.writeable


def test_read_sniffs_content_not_extension(tmp_path):
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    src = tmp_path / "m.bin"
    write_matrix(src, M)
    disguised = tmp_path / "m.mtx"
    shutil.copy(src, disguised)
    np.testing.assert_array_equal(read_matrix(disguised), M)


def test_text_layout_is_column_major(tmp_path):
    p = tmp_path / "m.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 3\n"
                 "1\n2\n3\n4\n5\n6\n")
    np.testing.assert_array_equal(read_matrix(p),
                                  [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_binary_layout_is_row_major(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(BINARY_MAGIC + struct.pack("<QQ", 2, 2)
                  + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
    np.testing.assert_array_equal(read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_banner_case_and_comments(tmp_path):
    p = tmp_path / "m.mtx"
    p.write_text("%%matrixmarket MATRIX Array REAL General\n"
                 "% a comment\n% another\n1 2\n7\n% inline comment line\n8\n")
    np.testing.assert_array_equal(read_matrix(p), [[7.0, 8.0]])


def test_vector_round_trip_and_shapes(tmp_path):
    v = np.array([1.5, -2.5, 3.5])
    p = tmp_path / "v.mtx"
    write_vector(p, v)
    np.testing.assert_array_equal(read_vector(p), v)
    assert read_matrix(p).shape == (3, 1)

    row = tmp_path / "row.mtx"
    write_matrix(row, v.reshape(1, -1))
    np.testing.assert_array_equal(read_vector(row), v)

    square = tmp_path / "sq.mtx"
    write_matrix(square, np.eye(2))
    with pytest.raises(MatrixFileError, match="expected a vector"):
        read_vector(square)


def test_text_errors(tmp_path):
    head = "%%MatrixMarket matrix array real general\n"

    def bad(name, body):
        p = tmp_path / name
        p.write_text(body)
        return p

    with pytest.raises(MatrixFileError, match="line 1"):
        read_matrix(bad("banner.mtx", "%%MatrixMarket coordinate real\n1 1\n0\n"))
    with pytest.raises(MatrixFileError, match="empty"):
        read_matrix(bad("empty.mtx", ""))
    with pytest.raises(MatrixFileError, match="missing size line"):
        read_matrix(bad("nosize.mtx", head + "% only comments\n"))
    with pytest.raises(MatrixFileError, match="line 2"):
        read_matrix(bad("size3.mtx", head + "1 2 3\n"))
    with pytest.raises(MatrixFileError, match="non-integer"):
        read_matrix(bad("sizex.mtx", head + "one 2\n"))
    with pytest.raises(MatrixFileError, match="positive"):
        read_matrix(bad("size0.mtx", head + "0 2\n"))
    with pytest.raises(MatrixFileError, match="line 3: not a number"):
        read_matrix(bad("nan1.mtx", head + "1 1\nabc\n"))
    with pytest.raises(MatrixFileError, match="non-finite"):
        read_matrix(bad("inf.mtx", head + "1 1\ninf\n"))
    with pytest.raises(MatrixFileError, match="non-finite"):
        read_matrix(bad("nan2.mtx", head + "1 1\nnan\n"))
    with pytest.raises(MatrixFileError, match="found 1"):
        read_matrix(bad("short.mtx", head + "2 2\n1\n"))
    with pytest.raises(MatrixFileError, match="more than 1"):
        read_matrix(bad("long.mtx", head + "1 1\n1\n2\n"))


def test_oversized_header_is_a_count_error_not_an_allocation(tmp_path):
    """A header far larger than the body is reported by count, before any
    header-sized buffer (7.28 TiB for 10^6 x 10^6) is asked for."""
    p = tmp_path / "huge.mtx"
    p.write_text(HEAD + "1000000 1000000\n1.0\n2.0\n")
    with pytest.raises(MatrixFileError,
                       match="expected 1000000000000 entries for a "
                             "1000000 x 1000000 matrix, found 2"):
        read_matrix(p)


def test_binary_errors(tmp_path):
    def bad(name, payload):
        p = tmp_path / name
        p.write_bytes(payload)
        return p

    with pytest.raises(MatrixFileError, match="truncated"):
        read_matrix(bad("t.bin", BINARY_MAGIC + b"\x00" * 4))
    with pytest.raises(MatrixFileError, match="positive"):
        read_matrix(bad("z.bin", BINARY_MAGIC + struct.pack("<QQ", 0, 3)))
    with pytest.raises(MatrixFileError, match="payload is 8 bytes, expected 32"):
        read_matrix(bad("p.bin", BINARY_MAGIC + struct.pack("<QQ", 2, 2)
                        + struct.pack("<d", 1.0)))
    with pytest.raises(MatrixFileError, match="flat index 1"):
        read_matrix(bad("n.bin", BINARY_MAGIC + struct.pack("<QQ", 1, 2)
                        + struct.pack("<2d", 1.0, float("nan"))))


# The flat index of the first NaN/Inf in a 5 x 10000 matrix (scan blocks of
# 2**14 entries, the last one ragged) and a 1 x 40000 row wider than a block.
NONFINITE_AT = {"first-block": ((5, 10000), 3),
                "middle-block": ((5, 10000), 2 ** 14 + 7),
                "ragged-last-block": ((5, 10000), 3 * 2 ** 14 + 100),
                "row-wider-than-a-block": ((1, 40000), 2 ** 15 + 1)}


@pytest.mark.parametrize("case", list(NONFINITE_AT))
def test_non_finite_entries_are_refused_in_every_scan_block(tmp_path, case):
    shape, flat = NONFINITE_AT[case]
    M = np.ones(shape)
    M.flat[flat] = np.inf
    M.flat[-1] = np.nan  # a later one does not hide the first
    p = tmp_path / "n.bin"
    p.write_bytes(BINARY_MAGIC + struct.pack("<QQ", *shape) + M.astype("<f8").tobytes())
    with pytest.raises(MatrixFileError,
                       match=f"n.bin: non-finite value at flat index {flat}$"):
        read_matrix(p)
    # The text file lists M column-major, one entry a line after two header lines.
    q = tmp_path / "n.mtx"
    q.write_text(HEAD + f"{shape[0]} {shape[1]}\n"
                 + "".join(f"{x!r}\n" for x in M.T.ravel().tolist()))
    i, j = np.unravel_index(flat, shape)
    with pytest.raises(MatrixFileError,
                       match=f"n.mtx: line {3 + j * shape[0] + i}: non-finite entry 'inf'$"):
        read_matrix(q, transpose=True)


def test_error_messages_carry_path(tmp_path):
    p = tmp_path / "named.mtx"
    p.write_text("junk\n")
    with pytest.raises(MatrixFileError, match="named.mtx"):
        read_matrix(p)


@pytest.mark.parametrize("suffix", [".mtx", ".bin"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)], ids=["0x3", "3x0", "vector"])
def test_empty_write_is_refused_before_the_file_opens(tmp_path, suffix, shape):
    """Neither format reads an empty matrix back, so none is written."""
    p = tmp_path / f"empty{suffix}"
    write = write_vector if len(shape) == 1 else write_matrix
    with pytest.raises(ValueError, match="dimensions must be positive"):
        write(p, np.zeros(shape))
    assert not p.exists()


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_matrix(tmp_path / "absent.mtx")


# Odd but legal files, and whether the bulk parse keeps its result (True) or
# hands the file to the line scanner.  Either way the scanner's bits come back.
LEGAL = {
    "comment_mid_body": ("2 2\n1\n% note\n2\n  % indented\n3\n4\n", False),
    "crlf": ("2 2\r\n1\r\n2\r\n3\r\n4\r\n", True),
    "blank_and_space_lines": ("2 2\n\n1\n   \n2\n\t\n3\n4\n\n", True),
    "signs_and_underflow": ("2 2\n+1.5\n-0\n1e-400\n-2.5e-3\n", True),
    "underscore": ("2 2\n1_0\n2\n3\n4\n", False),
    "padded_entries": ("2 1\n  0.1  \n\t-7\t\n", True),
    "no_final_newline": ("1 2\n5\n6", True),
    "form_feed_in_size_line": ("2 1\x0c\n1\n2\n", False),
}

# Malformed files and the scanner's error text, which read_matrix must raise.
MALFORMED = {
    "overflow": ("2 2\n1\n1e500\n3\n4\n", "line 4: non-finite entry '1e500'"),
    "nan_line_7": ("2 2\n1\n2\n\n3\nnan\n",
                   "line 7: non-finite entry 'nan'"),
    "two_tokens": ("2 2\n1\n2 3\n4\n", "line 4: not a number: '2 3'"),
    "two_tokens_only_line": ("2 1\n1 2\n", "line 3: not a number: '1 2'"),
    "inline_comment": ("2 1\n1.5 % x\n2\n", "line 3: not a number: '1.5 % x'"),
    "empty_body": ("2 2\n", "expected 4 entries for a 2 x 2 matrix, found 0"),
    "too_few": ("2 2\n1\n2\n3\n", "expected 4 entries for a 2 x 2 matrix, found 3"),
    "too_many": ("2 2\n1\n2\n3\n4\n5\n", "line 7: more than 4 entries"),
}


@pytest.fixture
def scans(monkeypatch):
    """Count the reads that fell back to the line scanner."""
    calls = []
    scan = matio._scan_text

    def counted(path):
        calls.append(path)
        return scan(path)

    monkeypatch.setattr(matio, "_scan_text", counted)
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(LEGAL))
def test_bulk_read_agrees_with_scanner_on_legal_files(tmp_path, scans, name):
    body, bulk = LEGAL[name]
    p = tmp_path / f"{name}.mtx"
    p.write_bytes((HEAD + body).encode())
    A = read_matrix(p)
    assert (len(scans) == 0) == bulk
    m, n, values = matio._scan_text(p)
    assert A.shape == (m, n)
    assert A.tobytes() == values.reshape((n, m)).T.tobytes()
    assert A.flags.c_contiguous


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_bulk_read_raises_scanner_errors_on_malformed_files(tmp_path, name):
    body, message = MALFORMED[name]
    p = tmp_path / f"{name}.mtx"
    p.write_bytes((HEAD + body).encode())
    with pytest.raises(MatrixFileError) as bulk:
        read_matrix(p)
    with pytest.raises(MatrixFileError) as scan:
        matio._scan_text(p)
    assert str(bulk.value) == str(scan.value) == f"{p}: {message}"


def test_undecodable_body_raises_as_a_full_read_does(tmp_path):
    p = tmp_path / "bytes.mtx"
    p.write_bytes(HEAD.encode() + b"1 2\n1\n\xff\n")
    with pytest.raises(MatrixFileError) as bulk:
        read_matrix(p)
    with pytest.raises(MatrixFileError) as scan:
        matio._scan_text(p)
    offset = len(HEAD) + len("1 2\n1\n")
    assert (str(bulk.value) == str(scan.value)
            == f"{p}: byte {offset}: can't decode byte 0xff as utf-8")


AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16, float(2**53 + 1),
           1.7976931348623157e308, -1.7976931348623157e308]


def _golden(M):
    m, n = M.shape
    return (HEAD + f"{m} {n}\n"
            + "".join(format(x, ".17g") + "\n" for x in M.T.ravel())).encode()


@pytest.mark.parametrize("block", [1, 3, 5, 65536])
def test_text_writer_golden_bytes(tmp_path, monkeypatch, block):
    monkeypatch.setattr(matio, "_WRITE_BLOCK", block)
    M = np.array(AWKWARD).reshape(2, 4)
    v = np.array(AWKWARD[::-1])
    pm, pv = tmp_path / "m.mtx", tmp_path / "v.mtx"
    write_matrix(pm, M)
    write_vector(pv, v)
    assert pm.read_bytes() == _golden(M)
    assert pv.read_bytes() == _golden(v.reshape(-1, 1))
    assert read_matrix(pm).tobytes() == M.tobytes()
    assert read_vector(pv).tobytes() == v.tobytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,bound", [("m.mtx", 4.0), ("m.bin", 1.5)])
def test_read_peak_memory_is_bounded(tmp_path, name, bound):
    M = make_rng(2).standard_normal((256, 1024))
    p = tmp_path / name
    write_matrix(p, M)
    assert _traced_peak(lambda: read_matrix(p)) <= bound * M.nbytes


def _scanner_file(p, M):
    """A text file of M with a comment line in its body, which only the line
    scanner reads."""
    write_matrix(p, M)
    lines = p.read_text().splitlines(keepends=True)
    p.write_text("".join(lines[:3] + ["% note\n"] + lines[3:]))


# A single row, a single column and a ragged shape, from each read path.
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (37, 50)], ids=["1x9", "9x1", "37x50"])
@pytest.mark.parametrize("path", ["text-bulk", "text-scanner", "binary"])
def test_transposed_read_is_the_row_major_transpose(tmp_path, scans, shape, path):
    M = make_rng(3).standard_normal(shape)
    p = tmp_path / ("m.bin" if path == "binary" else "m.mtx")
    if path == "text-scanner":
        _scanner_file(p, M)
    else:
        write_matrix(p, M)
    T = read_matrix(p, transpose=True)
    assert T.shape == shape[::-1] and T.dtype == np.float64
    assert T.flags.c_contiguous and T.flags.writeable
    assert T.tobytes() == np.ascontiguousarray(read_matrix(p).T).tobytes()
    assert T.tobytes() == np.ascontiguousarray(M.T).tobytes()
    assert len(scans) == (2 if path == "text-scanner" else 0)


def test_text_write_and_transposed_read_peaks_at_the_bench_shape(tmp_path):
    """At 256 x 4096 the writer holds one 128 KiB block of entries as Python
    floats and text, at most 0.2x M, and the transposed read holds the
    parsed body it returns, at most 1.1x M (the plain read adds M's
    row-major copy, 2x)."""
    M = make_rng(4).standard_normal((256, 4096))
    p = tmp_path / "m.mtx"
    assert _traced_peak(lambda: write_matrix(p, M)) <= 0.2 * M.nbytes
    assert _traced_peak(lambda: read_matrix(p, transpose=True)) <= 1.1 * M.nbytes


def test_binary_write_holds_no_copy_of_the_matrix(tmp_path):
    """The binary writer hands the array's own buffer to the file."""
    M = make_rng(5).standard_normal((256, 1024))
    p = tmp_path / "w.bin"
    write_matrix(p, M)  # warm up the first call's one-time allocations
    assert _traced_peak(lambda: write_matrix(p, M)) <= 0.05 * M.nbytes
    assert read_matrix(p).tobytes() == M.tobytes()
