import gc
import math
import tracemalloc

import numpy as np
import pytest

from rnla import (OpCounter, SrhtOperator, coherence_check, draw_plan, fwht,
                  make_rng, make_srht, next_pow2, srht_apply, subsampled_fwht,
                  uniform_probs)
from rnla import srht as srht_module
from rnla.linalg import _BLOCK
from rnla.sampling import SamplingPlan, _draw_indices


def _hadamard(n):
    # Closed form Htilde[i, j] = (-1)^popcount(i & j), normalized by sqrt(n).
    i = np.arange(n)
    bits = np.array([[bin(a & b).count("1") for b in i] for a in i])
    return np.where(bits % 2 == 0, 1.0, -1.0) / math.sqrt(n)


def _inorder_plan(n):
    return SamplingPlan(indices=np.arange(n), scales=np.ones(n), n=n)


def _reference_butterfly(top, bot, want_top, want_bot):
    """The butterfly as one whole-array pass, with a half-sized temporary."""
    if want_top and want_bot:
        diff = top - bot
        top += bot
        bot[...] = diff
    elif want_top:
        top += bot
    else:
        np.subtract(top, bot, out=bot)


def _closed_form_rows(rows, n):
    """Rows `rows` of the unnormalized Htilde_n: (-1)^popcount(i & j), by parity folds."""
    v = rows[:, None] & np.arange(n)
    for s in (32, 16, 8, 4, 2, 1):
        v ^= v >> s
    return 1.0 - 2.0 * (v & 1)


def _reference_leaf(n, u):
    """Largest power of two at most n log2(u + 1) / u."""
    return 2 ** math.floor(math.log2(n * math.log2(u + 1) / u))


def _reference_hadamard_rows(y, idx, counter, leaf=None):
    """Per-node reference kernel: array bookkeeping, one-pass butterflies, and
    leaves of at most `leaf` rows finished by one product with closed-form
    sign rows."""
    n, k = y.shape
    if leaf is None:
        leaf = _reference_leaf(n, idx.size)
    if idx.size == n:
        for s in range(1, n.bit_length()):
            blk = y.reshape(1 << (s - 1), 2, n >> s, k)
            _reference_butterfly(blk[:, 0], blk[:, 1], True, True)
            counter.add(n * k)
        return
    if n <= leaf and idx.size * n <= _BLOCK:
        y[idx] = _closed_form_rows(idx, n) @ y
        counter.add(idx.size * (n - 1) * k)
        return
    half = n // 2
    split = int(np.searchsorted(idx, half))
    want_top, want_bot = split > 0, split < idx.size
    _reference_butterfly(y[:half], y[half:], want_top, want_bot)
    counter.add(half * k * (want_top + want_bot))
    if want_top:
        _reference_hadamard_rows(y[:half], idx[:split], counter, leaf)
    if want_bot:
        _reference_hadamard_rows(y[half:], idx[split:] - half, counter, leaf)


def _frozen_fill(op, M):
    """The zero-padded (n_pad, k) buffer D [M; 0], one whole-block pass per
    block: einsum for a matrix (its zero-initialised sum turns -0.0 into
    +0.0), np.multiply for a 1-d column (which keeps -0.0)."""
    if isinstance(M, tuple):
        blocks = [np.asarray(B, dtype=np.float64) for B in M]
    else:
        A = np.atleast_1d(np.asarray(M, dtype=np.float64))
        blocks = [A.T if op.side == "right" else A]
    n = len(blocks[0])
    widths = [1 if B.ndim == 1 else B.shape[1] for B in blocks]
    y = np.zeros((op.n_pad, sum(widths)))
    col = 0
    for B, w in zip(blocks, widths):
        if B.ndim == 1:
            np.multiply(op.signs[:n], B, out=y[:n, col])
        else:
            np.einsum("i,ij->ij", op.signs[:n], B, out=y[:n, col:col + w])
        col += w
    return y


def _reference_apply(op, M, counter):
    """srht_apply from the test's own padded buffer and reference kernel."""
    y = _frozen_fill(op, M)
    _reference_hadamard_rows(y, np.unique(op.plan.indices), counter)
    out = y[op.plan.indices] / math.sqrt(op.n_pad) * op.plan.scales[:, None]
    out = np.ascontiguousarray(out.T if op.side == "right" else out)
    return out.reshape(-1) if not isinstance(M, tuple) and np.ndim(M) <= 1 else out


def _assert_matches_reference(op, M):
    ops, ref_ops = OpCounter(), OpCounter()
    out = srht_apply(op, M, ops)
    want = _reference_apply(op, M, ref_ops)
    assert out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    assert ops.adds_subs == ref_ops.adds_subs


def test_fwht_two_point_values():
    np.testing.assert_allclose(fwht(np.array([1.0, 0.0])),
                               [1 / math.sqrt(2)] * 2, atol=1e-15)
    np.testing.assert_allclose(fwht(np.array([1.0, 1.0])),
                               [math.sqrt(2), 0.0], atol=1e-15)


def test_fwht_matches_closed_form():
    rng = make_rng(0)
    for n in (2, 4, 8, 16):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fwht(x), _hadamard(n) @ x, atol=1e-12)


def test_fwht_counter_and_validation():
    counter = OpCounter()
    fwht(np.zeros(8), counter)
    assert counter.adds_subs == 8 * 3
    with pytest.raises(ValueError):
        fwht(np.zeros(6))
    with pytest.raises(ValueError):
        fwht(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        OpCounter().add(-1)


def test_fwht_involution_and_isometry():
    rng = make_rng(1)
    for n in (2, 8, 64):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fwht(fwht(x)), x, atol=1e-12)
        assert np.linalg.norm(fwht(x)) == pytest.approx(np.linalg.norm(x),
                                                        abs=1e-12)


def test_subsampled_full_inorder_equals_fwht():
    x = make_rng(2).standard_normal(16)
    out = subsampled_fwht(x, _inorder_plan(16))
    np.testing.assert_allclose(out, fwht(x), atol=1e-12)


def test_subsampled_matches_oracle_on_grid():
    rng = make_rng(3)
    for n in (2, 4, 8, 16, 32, 64):
        x = rng.standard_normal(n)
        full = fwht(x)
        for r in sorted({1, 2, n // 2, n} - {0}):
            plan = draw_plan(uniform_probs(n), r, 100 * n + r)
            counter = OpCounter()
            out = subsampled_fwht(x, plan, counter)
            want = full[plan.indices] * plan.scales
            np.testing.assert_allclose(out, want, atol=1e-12)
            closed = (_hadamard(n) @ x)[plan.indices] * plan.scales
            np.testing.assert_allclose(out, closed, atol=1e-12)
            assert counter.adds_subs <= 2 * n * math.log2(r + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 100, 1024, 4096, 12000])
def test_apply_matches_reference_kernel(n):
    """Byte-equal outputs and equal add counts; r = 2n forces duplicate draws."""
    rng = make_rng(n)
    for r in sorted({1, 2, 3, n // 2, n, 2 * n} - {0}):
        for side, shape in (("left", (n, 3)), ("right", (4, n)), ("left", (n,))):
            op = make_srht(n, r, 10 * n + r, side=side)
            _assert_matches_reference(op, rng.standard_normal(shape))


def test_apply_matches_reference_kernel_tall():
    op = make_srht(131072, 1024, 1)
    _assert_matches_reference(op, make_rng(1).standard_normal((131072, 17)))


@pytest.mark.parametrize("k", [1, 4, 17, 300, 20000])
def test_butterfly_matches_one_pass_across_the_chunk(k):
    """Halves one row below, at and one above _BLOCK // k rows, and a row
    wider than a block: the one-pass bytes, through a temporary of at most
    _BLOCK elements."""
    chunk_rows = _BLOCK // k
    rng = make_rng(k)
    for rows in sorted({chunk_rows - 1, chunk_rows, chunk_rows + 1} - {-1, 0}):
        for want in ((True, True), (True, False), (False, True)):
            y = rng.standard_normal((2 * rows, k))
            ref = y.copy()
            _reference_butterfly(ref[:rows], ref[rows:], *want)
            tracemalloc.start()
            try:
                srht_module._butterfly(y[:rows], y[rows:], *want)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert y.tobytes() == ref.tobytes()
            assert peak <= 8 * _BLOCK + 4096


@pytest.mark.parametrize("side, shape, r", [
    ("left", (8192, 4), 64),     # top half exactly _BLOCK // k rows
    ("left", (8193, 4), 64),     # top half twice that
    ("right", (20000, 64), 8),   # each mixed row wider than the chunk
])
def test_apply_matches_reference_kernel_across_the_chunk(side, shape, r):
    n = shape[0] if side == "left" else shape[1]
    op = make_srht(n, r, 5, side=side)
    _assert_matches_reference(op, make_rng(5).standard_normal(shape))


def test_full_plan_matches_reference_kernel_past_the_chunk():
    """The full-block path at n = 2**16, k = 4: level views from one group
    larger than the chunk to many groups smaller than it."""
    n = 1 << 16
    op = SrhtOperator(n_pad=n, signs=make_srht(n, 1, 6).signs,
                      plan=_inorder_plan(n), side="left")
    _assert_matches_reference(op, make_rng(6).standard_normal((n, 4)))


def test_add_count_level_formula():
    """Adds = the levels above the leaf size L, sum over s < log2(n_pad / L) of
    (n_pad >> (s+1)) k |unique(idx >> (log2(n_pad)-s-1))|, plus, per node of L
    rows holding q requested rows, q (L - 1) k for a leaf and L log2(L) k when
    all L rows are requested."""
    rng = make_rng(13)
    for n, r, k in ((1, 1, 2), (2, 1, 1), (8, 3, 2), (100, 7, 3), (1024, 64, 2),
                    (1024, 2048, 1), (5000, 300, 4)):
        op = make_srht(n, r, int(rng.integers(1 << 30)))
        idx = np.unique(op.plan.indices)
        n_pad, lg = op.n_pad, op.n_pad.bit_length() - 1
        leaf = _reference_leaf(n_pad, idx.size)
        want = sum((n_pad >> (s + 1)) * k * np.unique(idx >> (lg - s - 1)).size
                   for s in range(lg - leaf.bit_length() + 1))
        q = np.unique(idx // leaf, return_counts=True)[1]
        assert np.all(q * leaf <= _BLOCK)  # every such node is a leaf or full
        want += k * sum(leaf * (leaf.bit_length() - 1) if c == leaf else c * (leaf - 1)
                        for c in q.tolist())
        counter = OpCounter()
        srht_apply(op, rng.standard_normal((n, k)), counter)
        assert counter.adds_subs == want


def _clustered_plan(n_pad, r, seed):
    """r draws from one 256-row window that starts off any node boundary."""
    width = min(256, n_pad)
    start = min(n_pad // 3, n_pad - width)
    idx = start + make_rng(seed).integers(0, width, r)
    return SamplingPlan(indices=idx, scales=np.full(r, math.sqrt(n_pad / r)), n=n_pad)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 4096, 131072])
def test_kernel_adds_and_peak_memory_are_bounded(n):
    """At most 2 n_pad log2(r+1) adds per column, uniform or clustered draws.
    The kernel allocates a temporary of at most _BLOCK elements (a butterfly's
    difference or a leaf's sign rows) and, per requested row, its k product
    entries and the two Kronecker factor rows (hi + lo <= 256 entries) that
    its sign row is built from."""
    k = 2
    n_pad = next_pow2(n)
    srht_module._sylvester(7)  # the sign tables are built once per process
    for r in sorted({1, 2, 3, n // 2, 2 * n} - {0}):
        for plan in (make_srht(n, r, r).plan, _clustered_plan(n_pad, r, r)):
            idx = np.unique(plan.indices)
            y = make_rng(n).standard_normal((n_pad, k))
            tracemalloc.start()
            try:
                adds = srht_module._rows_node(y, 0, n_pad, memoryview(idx), 0, idx.size,
                                              _reference_leaf(n_pad, idx.size))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert adds <= 2 * n_pad * math.log2(r + 1)
            assert peak <= 8 * _BLOCK + 4096 + 8 * r * (k + 256)


def test_apply_matches_reference_kernel_clustered():
    """Clustered draws: nodes of at most L rows whose q rows span more than
    _BLOCK entries are walked on, down to leaves that fit."""
    n = 131072
    M = make_rng(15).standard_normal((n, 3))
    for r in (3, 200, 1000):
        plan = _clustered_plan(n, r, r)
        op = SrhtOperator(n_pad=n, signs=make_srht(n, 1, r).signs, plan=plan, side="left")
        _assert_matches_reference(op, M)


@pytest.mark.parametrize("n", [3, 1000, 1024])
def test_column_blocks_match_the_stacked_matrix(n):
    """A tuple of column blocks, read in place, gives np.column_stack's result
    byte for byte and the same adds: a strided view, 1-d columns, n < n_pad."""
    rng = make_rng(n)
    op = make_srht(n, 64, n)
    A = rng.standard_normal((n, 3))
    b = rng.standard_normal(n)
    U = np.linalg.qr(rng.standard_normal((n, 6)))[0][:, :2]
    assert not U.flags.c_contiguous
    for blocks in ((A, b), (U, b), (b,), (A,), (b, A, U, b)):
        ops, stacked_ops = OpCounter(), OpCounter()
        out = srht_apply(op, blocks, ops)
        want = srht_apply(op, np.column_stack(blocks), stacked_ops)
        assert out.shape == want.shape
        assert out.tobytes() == want.tobytes()
        assert ops.adds_subs == stacked_ops.adds_subs


def test_column_blocks_validation():
    op = make_srht(100, 8, 1)
    A, b = make_rng(17).standard_normal((100, 3)), make_rng(18).standard_normal(100)
    for i in range(2):
        blocks = [A.copy(), b.copy()]
        blocks[i][7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            srht_apply(op, tuple(blocks))
    for bad in ((A, b[:99]), (A[:99], b), (), (A[None], b), (A, np.float64(1.0))):
        with pytest.raises(ValueError, match="column blocks of equal height"):
            srht_apply(op, bad)
    with pytest.raises(ValueError, match="side='left' only"):
        srht_apply(make_srht(100, 8, 1, side="right"), (A.T,))
    with pytest.raises(ValueError, match="at most n_pad"):
        srht_apply(op, (np.zeros((129, 2)), np.zeros(129)))


def _kernel_inputs(op, M, monkeypatch):
    """The buffers srht_apply hands its kernel, as the kernel receives them,
    and the call's output."""
    seen = []
    kernel = srht_module._rows_node

    def spy(y, offset, size, *rest):
        if size == len(y):  # a top-level call; the kernel's own calls take parts of y
            seen.append(y.copy())
        return kernel(y, offset, size, *rest)

    with monkeypatch.context() as m:
        m.setattr(srht_module, "_rows_node", spy)
        out = srht_apply(op, M)
    return seen, out


def _reference_inputs(op, M):
    """The halves of the padded buffer after the reference top butterfly,
    each one that holds requested rows, or the whole buffer when the top
    node is one leaf product (one requested row and n_pad <= _BLOCK)."""
    y = _frozen_fill(op, M)
    idx = np.unique(op.plan.indices)
    if idx.size == 1 and op.n_pad <= _BLOCK:
        return [y]
    half = op.n_pad // 2
    want = (idx[0] < half, idx[-1] >= half)
    _reference_butterfly(y[:half], y[half:], *want)
    return [h for h, w in zip((y[:half], y[half:]), want) if w]


def _assert_kernel_inputs_match(op, M, monkeypatch):
    seen, out = _kernel_inputs(op, M, monkeypatch)
    want = _reference_inputs(op, M)
    assert [y.shape for y in seen] == [y.shape for y in want]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, want))
    return out


@pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
def test_right_fill_by_row_blocks_gives_the_whole_einsum_bits(m, monkeypatch):
    """Rows of A one below, at and one above a fill tile's side (isqrt(_BLOCK)
    = 128), and past two, plus a wide A and a 1-d row: the kernel receives
    the halves of the whole-block einsum's padded buffer after the top
    butterfly, byte for byte, and the output is the reference's."""
    rng = make_rng(m)
    shapes = [(m, 200)] + ([(64, 3000), (200,)] if m == 1 else [])
    for shape in shapes:
        A = rng.standard_normal(shape)
        op = make_srht(shape[-1], 16, m, side="right")
        out = _assert_kernel_inputs_match(op, A, monkeypatch)
        assert out.tobytes() == _reference_apply(op, A, OpCounter()).tobytes()


def test_column_fill_gives_the_whole_einsum_bits(monkeypatch):
    """1-d columns, filled by np.multiply, a column-major block among
    others, and a zero-width block: the halves of the whole-block padded
    buffer after the top butterfly, byte for byte."""
    rng = make_rng(19)
    A, b = rng.standard_normal((1000, 4)), rng.standard_normal(1000)
    op = make_srht(1000, 32, 19)
    for M in ((A, b), (b,), b, (b, A.T.copy().T, b), A[:, :0]):
        _assert_kernel_inputs_match(op, M, monkeypatch)


@pytest.mark.parametrize("m", [129, 2048])
def test_right_fill_allocates_nothing_beyond_the_buffer_and_the_output(m, monkeypatch):
    """When the kernel starts on the top half, the traced peak is the
    (n_pad/2, m) buffer, the fill's two one-block tiles, the r x m output
    and a few KiB of views; the whole call adds only the output's
    temporaries and a leaf's sign rows (at most _BLOCK entries).  No
    (n_pad, m) buffer is made."""
    op = make_srht(1024, 64, 3, side="right")
    A = make_rng(3).standard_normal((m, 1024))
    half, output = op.n_pad // 2 * m * 8, op.r * m * 8
    at_kernel = []
    kernel = srht_module._rows_node

    def spy(y, offset, size, *rest):
        if size == len(y):
            at_kernel.append(tracemalloc.get_traced_memory()[1])
        return kernel(y, offset, size, *rest)

    srht_apply(op, A)  # the first call in a process also pays one-time lazy imports
    with monkeypatch.context() as mp:
        mp.setattr(srht_module, "_rows_node", spy)
        tracemalloc.start()
        try:
            srht_apply(op, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(at_kernel) == 2
    assert at_kernel[0] <= half + 2 * 8 * _BLOCK + output + 16384
    assert peak <= half + 2.25 * output + 3 * 8 * _BLOCK + 16384


def _one_index_op(n, index, r, seed):
    """An operator over next_pow2(n) whose r draws are all one index."""
    n_pad = next_pow2(n)
    plan = SamplingPlan(indices=np.full(r, index), scales=np.full(r, math.sqrt(n_pad / r)),
                        n=n_pad)
    return SrhtOperator(n_pad=n_pad, signs=make_srht(n, 1, seed).signs, plan=plan, side="left")


def _signed_zeros(n, seed):
    """A (n, 3) matrix with a zero column and zero rows, and a zero vector."""
    A = make_rng(seed).standard_normal((n, 3))
    A[:, 1] = 0.0
    A[::5] = 0.0
    return A, np.zeros(n)


def _edge_cases(name):
    """(op, M) pairs for the split's edge cases."""
    rng = make_rng(33)
    if name in ("bottom-one-row", "no-padding"):
        n = 1025 if name == "bottom-one-row" else 1024
        A, b = rng.standard_normal((n, 3)), rng.standard_normal(n)
        return [(make_srht(n, 64, 1, side=side), M) for side, M in (
            ("left", A), ("left", b), ("left", (A, b)), ("right", A.T.copy()), ("right", b))]
    if name == "one-index":  # a whole-buffer leaf at n_pad <= _BLOCK, walked above it
        M = rng.standard_normal((20000, 2))
        return [(_one_index_op(n, index, r, 3), M[:n])
                for n in (3, 9000, _BLOCK, 20000) for index in (1, next_pow2(n) - 2)
                for r in (1, 3)]
    if name == "every-row":
        n = 4096
        op = SrhtOperator(n_pad=n, signs=make_srht(n, 1, 4).signs, plan=_inorder_plan(n),
                          side="left")
        U = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        return [(op, U), (op, U[:, 0]), (_one_index_op(1, 0, 1, 4), np.array([-0.0]))]
    if name == "duplicates-vector-zero-width":
        n = 300
        A, b = rng.standard_normal((n, 4)), rng.standard_normal(n)
        op = make_srht(n, 3 * n, 5)
        return [(op, b), (op, (A[:, :0], b, A, A[:, :0])), (op, A[:, :0])]
    if name == "right-wide":  # 2048 rows of A: a C-order A by tiles, an F-order A by rows
        A = rng.standard_normal((2048, 600))
        op = make_srht(600, 64, 6, side="right")
        return [(op, A), (op, np.asfortranarray(A))]
    if name == "signed-zeros":  # -0.0 from np.multiply, +0.0 from einsum, as before
        A, b = _signed_zeros(1500, 7)
        left, right = make_srht(1500, 200, 7), make_srht(1500, 200, 7, side="right")
        one = _one_index_op(1500, 3, 2, 7)
        return [(op, M) for op in (left, one) for M in (A, b, (A, b), (b, A[:, 0]))] + [
            (right, A.T), (right, np.ascontiguousarray(A.T)), (right, b)]  # by rows, by tiles
    if name == "short":  # n below n_pad / 2, which make_srht never builds
        ref = make_srht(64, 8, 8)
        op = SrhtOperator(n_pad=64, signs=ref.signs, plan=ref.plan, side="left")
        A, b = _signed_zeros(20, 8)
        return [(op, A), (op, (A, b)), (op, b)]
    if name == "wide-rows":  # one row of the buffer wider than a block
        return [(make_srht(5, 3, 9), rng.standard_normal((5, _BLOCK + 300)))]
    raise KeyError(name)


@pytest.mark.parametrize("name", ["bottom-one-row", "no-padding", "one-index", "every-row",
                                  "duplicates-vector-zero-width", "right-wide",
                                  "signed-zeros", "short", "wide-rows"])
def test_split_matches_the_padded_reference_at_its_edges(name, monkeypatch):
    """The fused fill and split top node give the padded reference's output
    byte for byte, with equal adds, and hand the kernel the reference's
    halves (or its whole buffer for a one-leaf top node)."""
    for op, M in _edge_cases(name):
        _assert_matches_reference(op, M)
        _assert_kernel_inputs_match(op, M, monkeypatch)


def test_signed_zero_cases_put_negative_zeros_in_the_kernel_input():
    """The signed-zeros cases bite: a zero column read as a 1-d block puts
    -0.0 in both halves the kernel receives, except in the top rows whose
    partner is padding, where + 0.0 makes it +0.0; inside a matrix, through
    einsum, the same column is +0.0 throughout."""
    A, b = _signed_zeros(1500, 7)
    op = make_srht(1500, 200, 7)
    pair = 1500 - op.n_pad // 2
    top, bottom = _reference_inputs(op, b)
    assert np.any(np.signbit(top[:pair])) and not np.any(np.signbit(top[pair:]))
    assert np.any(np.signbit(bottom[pair:]))
    for y in _reference_inputs(op, A):
        assert not np.any(np.signbit(y[:, 1]))


def test_every_row_transforms_match_the_reference():
    """fwht and coherence_check request every row: their values come from
    the padded reference, byte for byte."""
    x = make_rng(16).standard_normal(4096)
    for m in (1, 2, 4096):
        want = _reference_apply(SrhtOperator(n_pad=m, signs=np.ones(m), plan=_inorder_plan(m),
                                             side="left"), x[:m], OpCounter())
        assert fwht(x[:m]).tobytes() == want.tobytes()
    U = np.linalg.qr(make_rng(17).standard_normal((4096, 3)))[0]
    op = make_srht(4096, 8, 17)
    rotate = SrhtOperator(n_pad=4096, signs=op.signs, plan=_inorder_plan(4096), side="left")
    hdu = _reference_apply(rotate, np.ascontiguousarray(U), OpCounter())
    assert coherence_check(U, op)[0] == float(np.max(np.sum(hdu * hdu, axis=1)))


def test_apply_leaves_no_reference_cycle():
    """The transform's buffer is freed on return, not left to the cyclic GC."""
    left = make_srht(1000, 30, 1)
    right = make_srht(1000, 30, 2, side="right")
    M = make_rng(14).standard_normal((1000, 3))
    gc.collect()
    gc.disable()
    try:
        srht_apply(left, M)
        srht_apply(right, M.T)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subsampled_duplicate_draws():
    x = make_rng(4).standard_normal(8)
    plan = SamplingPlan(indices=np.array([2, 2, 2, 4]),
                        scales=np.full(4, math.sqrt(8 / 4)), n=8)
    counter = OpCounter()
    out = subsampled_fwht(x, plan, counter)
    full = fwht(x)
    np.testing.assert_allclose(out, full[[2, 2, 2, 4]] * math.sqrt(2.0),
                               atol=1e-12)
    assert counter.adds_subs <= 2 * 8 * math.log2(5)


def test_subsampled_validation():
    with pytest.raises(ValueError):
        subsampled_fwht(np.zeros(8), _inorder_plan(4))
    plan6 = SamplingPlan(indices=np.array([0]), scales=np.array([math.sqrt(6.0)]), n=6)
    with pytest.raises(ValueError):
        subsampled_fwht(np.zeros(6), plan6)


def test_next_pow2_and_padding_rule():
    assert next_pow2(1) == 1
    assert next_pow2(5) == 8
    assert make_srht(8, 2, 0).n_pad == 8
    assert make_srht(5, 2, 0).n_pad == 8
    with pytest.raises(ValueError):
        next_pow2(0)


def test_make_srht_deterministic():
    a = make_srht(16, 4, 9)
    b = make_srht(16, 4, 9)
    assert a.signs.tobytes() == b.signs.tobytes()
    assert a.plan.indices.tobytes() == b.plan.indices.tobytes()
    assert a.r == a.plan.indices.size == 4
    assert np.all(np.abs(a.signs) == 1.0)
    np.testing.assert_allclose(a.plan.scales, math.sqrt(16 / 4), atol=1e-15)


def _table_draw(rng, n_pad, r):
    """make_srht's draw through the inverse-CDF table of uniform_probs(n_pad)."""
    u = rng.random(n_pad)
    return np.where(u < 0.5, 1.0, -1.0), _draw_indices(rng, uniform_probs(n_pad).p, r)


@pytest.mark.parametrize("bits", range(21))
def test_make_srht_draws_what_the_probability_table_draws(bits):
    n_pad = 2 ** bits
    n = n_pad // 2 + 1 if n_pad > 1 else 1
    for seed, r in ((0, 1), (5, 37), (2 ** 100 + 3, min(3 * n_pad + 1, 4096))):
        op = make_srht(n, r, seed)
        signs, idx = _table_draw(make_rng(seed), n_pad, r)
        assert op.n_pad == n_pad
        assert op.signs.tobytes() == signs.tobytes()
        assert op.plan.indices.tobytes() == idx.tobytes()


class _Deviates:
    """A generator stand-in that hands out the given deviates, in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, k):
        u = self.draws.pop(0)
        assert u.shape == (k,)
        return u.copy()


@pytest.mark.parametrize("bits", range(11))
def test_make_srht_matches_the_table_on_boundary_deviates(bits, monkeypatch):
    """Every j / n_pad and the deviate just below it, for signs and indices."""
    n_pad = 2 ** bits
    j = np.arange(n_pad + 1) / n_pad
    below = np.nextafter(j, 0.0)
    index_u = np.concatenate([j[:-1], below[1:]])
    sign_u = np.resize([0.5, np.nextafter(0.5, 0.0), 0.0, np.nextafter(1.0, 0.0),
                        np.nextafter(0.5, 1.0)], n_pad)
    monkeypatch.setattr(srht_module, "make_rng",
                        lambda seed: _Deviates(sign_u, index_u))
    op = make_srht(n_pad, index_u.size, 0)
    signs, idx = _table_draw(_Deviates(sign_u, index_u), n_pad, index_u.size)
    assert op.signs.tobytes() == signs.tobytes()
    assert op.plan.indices.tobytes() == idx.tobytes()
    np.testing.assert_array_equal(idx, np.concatenate([np.arange(n_pad),
                                                       np.arange(n_pad)]))


@pytest.mark.parametrize("bad", [0.0, -0.0, 0.5, 2.0, np.nextafter(1.0, 2.0),
                                 np.nextafter(-1.0, -2.0), np.nan, np.inf, -np.inf])
def test_operator_refuses_every_sign_outside_plus_minus_one(bad):
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    for i in range(signs.size):
        poisoned = signs.copy()
        poisoned[i] = bad
        with pytest.raises(ValueError, match="signs must be a"):
            SrhtOperator(n_pad=4, signs=poisoned, plan=_inorder_plan(4), side="left")
    SrhtOperator(n_pad=4, signs=signs, plan=_inorder_plan(4), side="left")  # accepted


def test_operator_validation():
    with pytest.raises(ValueError):
        SrhtOperator(n_pad=6, signs=np.ones(6), plan=_inorder_plan(6),
                     side="left")
    with pytest.raises(ValueError):
        SrhtOperator(n_pad=4, signs=np.array([1.0, 2.0, 1.0, 1.0]),
                     plan=_inorder_plan(4), side="left")
    with pytest.raises(ValueError):
        SrhtOperator(n_pad=4, signs=np.ones(4), plan=_inorder_plan(4),
                     side="diagonal")
    with pytest.raises(ValueError, match="plan must be drawn over n_pad"):
        SrhtOperator(n_pad=4, signs=np.ones(4), plan=_inorder_plan(8),
                     side="left")
    for n, r in ((0, 2), (8, 0)):
        with pytest.raises(ValueError, match="n and r must be >= 1"):
            make_srht(n, r, 0)


def test_degenerate_operator_is_plain_hadamard():
    """All +1 signs with a full in-order plan reduce to H @ M."""
    n = 8
    op = SrhtOperator(n_pad=n, signs=np.ones(n), plan=_inorder_plan(n),
                      side="left")
    M = make_rng(5).standard_normal((n, 3))
    np.testing.assert_allclose(srht_apply(op, M), _hadamard(n) @ M, atol=1e-12)


def test_apply_basis_vector_closed_form():
    n, r, j = 8, 5, 3
    op = make_srht(n, r, 21)
    e = np.zeros(n)
    e[j] = 1.0
    out = srht_apply(op, e)
    H = _hadamard(n)
    want = op.plan.scales * op.signs[j] * H[op.plan.indices, j]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_apply_matches_padded_equivalent():
    op = make_srht(5, 4, 13)
    M = make_rng(6).standard_normal((5, 2))
    padded = np.vstack([M, np.zeros((3, 2))])
    np.testing.assert_allclose(srht_apply(op, M), srht_apply(op, padded),
                               atol=1e-12)
    with pytest.raises(ValueError):
        srht_apply(op, np.zeros((9, 2)))


def test_right_side_is_transposed_left():
    opr = make_srht(6, 4, 7, side="right")
    opl = SrhtOperator(n_pad=opr.n_pad, signs=opr.signs, plan=opr.plan,
                       side="left")
    M = make_rng(7).standard_normal((3, 6))
    np.testing.assert_allclose(srht_apply(opr, M),
                               srht_apply(opl, M.T).T, atol=1e-12)
    x = make_rng(8).standard_normal(6)
    out = srht_apply(opr, x)
    assert out.shape == (4,)
    np.testing.assert_allclose(out, srht_apply(opl, x), atol=1e-12)


def test_isometry_in_expectation_by_enumeration():
    """E ||S^T H D x||^2 = ||x||^2, averaging over all signs and draws."""
    rng = make_rng(9)
    for n, r in ((2, 1), (2, 2), (4, 1)):
        x = rng.standard_normal(n)
        total = 0.0
        count = 0
        for sign_bits in range(2 ** n):
            signs = np.array([1.0 if sign_bits >> i & 1 else -1.0
                              for i in range(n)])
            for draw in np.ndindex(*([n] * r)):
                plan = SamplingPlan(indices=np.array(draw),
                                    scales=np.full(r, math.sqrt(n / r)), n=n)
                op = SrhtOperator(n_pad=n, signs=signs, plan=plan, side="left")
                total += float(np.sum(srht_apply(op, x) ** 2))
                count += 1
        assert total / count == pytest.approx(float(np.sum(x * x)), abs=1e-12)


@pytest.mark.parametrize("side, n, k, r", [("left", 12000, 9, 300),
                                           ("right", 1024, 300, 32)])
def test_apply_peak_memory_is_bounded(side, n, k, r):
    """One srht_apply call allocates at most twice its (n_pad, k) padded buffer."""
    op = make_srht(n, r, 3, side=side)
    M = make_rng(11).standard_normal((n, k) if side == "left" else (k, n))
    srht_apply(op, M)  # the first call in a process also pays one-time lazy imports
    tracemalloc.start()
    try:
        srht_apply(op, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * op.n_pad * k * 8


@pytest.mark.parametrize("side, n, k, r", [("left", 12000, 9, 300),
                                           ("right", 1024, 300, 32),
                                           ("left", 131072, 17, 1024)])
def test_apply_peak_memory_is_the_buffer_and_a_chunk(side, n, k, r):
    """A second srht_apply call peaks at its (n_pad/2, k) half buffer, three
    one-block temporaries (the fill's two, the kernel's butterfly or leaf
    one) and the r x k output's temporaries: no (n_pad, k) buffer is made,
    and no temporary of half a buffer."""
    op = make_srht(n, r, 3, side=side)
    M = make_rng(11).standard_normal((n, k) if side == "left" else (k, n))
    srht_apply(op, M)
    tracemalloc.start()
    try:
        srht_apply(op, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= op.n_pad // 2 * k * 8 + 3 * 8 * _BLOCK + 2.25 * op.r * k * 8


def test_transforms_leave_caller_arrays_unchanged():
    rng = make_rng(12)
    x = rng.standard_normal(64)
    plan = draw_plan(uniform_probs(64), 64, 1)
    op = make_srht(64, 8, 2)
    M = rng.standard_normal((64, 3))
    U, _ = np.linalg.qr(rng.standard_normal((64, 3)))
    U = np.ascontiguousarray(U)
    saved = [a.copy() for a in (x, M, U)]
    fwht(x)
    subsampled_fwht(x, plan)
    srht_apply(op, M)
    srht_apply(op, x)
    coherence_check(U, op)
    for a, b in zip((x, M, U), saved):
        assert a.tobytes() == b.tobytes()


def test_coherence_identity_embedded_rows():
    n, d = 16, 3
    U = np.zeros((n, d))
    U[np.arange(d), np.arange(d)] = 1.0
    op = make_srht(n, 2, 31)
    max_row, threshold = coherence_check(U, op)
    assert max_row == pytest.approx(d / n, abs=1e-14)
    assert threshold == pytest.approx(2 * d * math.log(40 * n * d) / n,
                                      rel=1e-14)


def test_coherence_square_orthogonal():
    Q, _ = np.linalg.qr(make_rng(10).standard_normal((8, 8)))
    max_row, _ = coherence_check(Q, make_srht(8, 2, 0))
    assert max_row == pytest.approx(1.0, abs=1e-12)


def test_coherence_validation():
    op = make_srht(8, 2, 0)
    with pytest.raises(ValueError):
        coherence_check(np.ones((8, 2)), op)
    with pytest.raises(ValueError):
        coherence_check(np.eye(4, 2), op)
    with pytest.raises(ValueError, match="got ndim=1"):
        coherence_check(np.ones(8), op)


def test_coherence_random_orthonormal_rate():
    """Sign randomization flattens a random 1024x4 basis in >= 95/100 seeds."""
    U, _ = np.linalg.qr(make_rng(0).standard_normal((1024, 4)))
    hits = 0
    for seed in range(100):
        max_row, threshold = coherence_check(U, make_srht(1024, 8, seed))
        hits += max_row <= threshold
    assert hits >= 95
