"""Randomized Hadamard transform and its subsampled fast application.

The operator is S^T H D (left side, hitting columns) or D H S (right side,
hitting rows): a random +-1 diagonal D, the normalized Hadamard matrix
H = (1/sqrt(n)) Htilde, and uniform row sampling S with rescale sqrt(n/r).
Non-power-of-two inputs are zero-padded up to n_pad internally; callers never
see the padded dimension except through the operator itself.

One application path: srht_apply is the only function that pads, applies
the signs, runs the kernel, samples, rescales and checks the output for
NaN/Inf.  The other transforms are operators it applies: subsampled_fwht is
all +1 signs over the caller's plan, fwht adds the in-order plan at scale 1,
and coherence_check rotates with op's signs and that full plan.

Only r of the n transformed entries are ever needed, so the transform
works top down on the sampled index set: Htilde_n x = [Htilde_{n/2}(x1+x2);
Htilde_{n/2}(x1-x2)], and each half is combined and entered only if it
contains requested indices, at n/2 adds per computed half-combination.
The full transform is the case where every index is requested.
srht_apply combines the top node's halves while it fills them from the
caller's blocks (_fill), one half at a time in one (n/2)-row buffer; one
kernel, _rows_node, finishes each half in place.

The walk stops at leaves of at most L rows, with L the largest power of two
at most n log2(u+1) / u for u distinct requested rows.  A node of size <= L
holding q requested rows, but not all of its rows, is finished by one BLAS
product: its q rows of Htilde_size, built from two small Sylvester tables
by a Kronecker product, times the node's rows of the buffer.  The counter
charges it the q (size - 1) adds of those +-1 sums per column.  A leaf is
taken only while its sign rows fit in one block (`linalg._BLOCK` entries); a
node with more is walked on.

The bound: each level above L costs at most n adds, since its nodes are
disjoint, so those levels cost at most n log2(n/L).  Below, a node of size
s with q requested rows costs at most q s, by induction: a leaf q (s - 1),
a full block s log2 s, a split at most s + q s / 2.  So the nodes of size L
cost at most u L <= n log2(u+1).  As n/L < 2u / log2(u+1), the total is at
most n (1 + log2 u - log2 log2(u+1) + log2(u+1)) <= 2 n log2(u+1)
<= 2 n log2(r+1) for r draws, since 2u / (u+1) <= log2(u+1).  The leaves
spend more of that budget than walking them down to single rows would
(adds_per_budget about 0.75 against 0.52 on a 131072 x 17 buffer with
r = 1024), but as a few hundred BLAS products instead of thousands of
Python-level nodes.

Butterflies, leaves and the fill go through temporaries of at most one
block each, so srht_apply's one large allocation is its half-sized buffer
(the whole padded buffer only when the transform is a single leaf product:
one requested row and n_pad <= _BLOCK), and its outputs are bit-identical
to a zero-padded buffer walked with one whole-half pass per butterfly.

Reproducibility contract: one Philox stream per operator seed, sign draws
consumed first, index draws second.  Sign i is +1 when the i-th of the n_pad
deviates u lies below 0.5, else -1.  Index t is floor(u_t n_pad) for the t-th
of the r deviates that follow.  That is the inverse-CDF draw of
sampling.draw_plan from uniform_probs(n_pad): n_pad is a power of two, so
each p_i = 1/n_pad and each cumulative sum (i+1)/n_pad is exact, and
searchsorted(cum, u, side="right") counts the (i+1)/n_pad <= u, which is
floor(u n_pad), with u n_pad itself exact.  No table is built.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .linalg import _BLOCK, as_matrix
from .sampling import SamplingPlan, make_rng

__all__ = [
    "SketchRankError",
    "OpCounter",
    "SrhtOperator",
    "fwht",
    "subsampled_fwht",
    "make_srht",
    "srht_apply",
    "coherence_check",
]

ORTHO_TOL = 1e-8  # max |U^T U - I| that coherence_check accepts


class SketchRankError(ValueError):
    """A realized sketch's rank is too low for the solve; a larger one may do."""


@dataclass
class OpCounter:
    """Accumulates additions/subtractions performed by a transform call."""

    adds_subs: int = 0

    def add(self, k: int) -> None:
        if k < 0:
            raise ValueError("op counts only increase")
        self.adds_subs += int(k)


@dataclass(frozen=True)
class SrhtOperator:
    """Subsampled randomized Hadamard transform S^T H D (or D H S).

    side="left" applies S^T H D to the columns of a matrix with at most n_pad
    rows; side="right" applies D H S to the rows of a matrix with at most
    n_pad columns.  srht_apply multiplies output row t (column t on the
    right) by plan.scales[t], whatever the plan; make_srht's plan is uniform
    over n_pad, so each of its scales is sqrt(n_pad / r).
    """

    n_pad: int
    signs: np.ndarray
    plan: SamplingPlan
    side: str

    def __post_init__(self):
        if not _is_pow2(self.n_pad):
            raise ValueError("n_pad must be a power of two")
        s = np.ascontiguousarray(self.signs, dtype=np.float64)
        object.__setattr__(self, "signs", s)
        if s.shape != (self.n_pad,) or not np.all((s == 1.0) | (s == -1.0)):
            raise ValueError("signs must be a +-1 vector of length n_pad")
        if self.plan.n != self.n_pad:
            raise ValueError("plan must be drawn over n_pad")
        if self.side not in ("left", "right"):
            raise ValueError(f"unknown side {self.side!r}")

    @property
    def r(self) -> int:
        return self.plan.indices.size


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n - 1).bit_length()


def _refuse_default_width(name: str, count: int, n: int, override: str) -> None:
    """Raise, before anything is allocated, when a theoretical width reaches n_pad."""
    n_pad = next_pow2(n)
    if count >= n_pad:
        raise ValueError(f"theoretical sketch width {name} = {count} is at least "
                         f"n_pad = {n_pad}; pass {override} to choose one")


def _butterfly(top: np.ndarray, bot: np.ndarray, want_top: bool, want_bot: bool) -> None:
    """In place: top <- top + bot if want_top, bot <- top - bot if want_bot.

    top and bot are equal-shape views: row ranges (rows, k) or level views
    (groups, half, k).  Only when both halves are wanted is a temporary
    needed, and it holds at most _BLOCK elements: a larger pair is split
    along its leading axis into pieces of at most _BLOCK elements, and a
    leading entry larger than that (a group, or a row wider than a block)
    is split the same way in turn.  A pair that fits takes one pass.  Every
    element gets the same subtraction and addition of the same operands
    either way, so the results are bit-identical to one whole-array pass.
    """
    if not want_top:
        np.subtract(top, bot, out=bot)
    elif not want_bot:
        top += bot
    elif top.size > _BLOCK:
        step = _BLOCK // (top.size // len(top))  # leading entries per piece
        pieces = zip(top, bot) if step == 0 else (
            (top[i:i + step], bot[i:i + step]) for i in range(0, len(top), step))
        for t, b in pieces:
            _butterfly(t, b, True, True)
    else:
        diff = top - bot
        top += bot
        bot[...] = diff


@cache
def _sylvester(bits: int) -> np.ndarray:
    """Htilde_{2**bits} by Sylvester's doubling [[H, H], [H, -H]], which gives
    the closed form (-1)^popcount(i & j).  Built once per size, on first use:
    a leaf has at most _BLOCK = 128**2 rows, so bits <= 7 (one block).
    Read-only, since every caller shares it."""
    h = np.ones((1, 1))
    if bits:
        g = _sylvester(bits - 1)
        h = np.block([[g, g], [g, -g]])
    h.flags.writeable = False
    return h


def _leaf_signs(loc: np.ndarray, size: int) -> np.ndarray:
    """Rows loc of Htilde_size as a (len(loc), size) array.

    Htilde_size = Htilde_hi (x) Htilde_lo with hi * lo = size, so row i is
    the outer product of row i >> log2(lo) of Htilde_hi and row i & (lo - 1)
    of Htilde_lo.
    """
    bits = size.bit_length() - 1
    lo_bits = (bits + 1) // 2
    lo, hi = 1 << lo_bits, size >> lo_bits
    h = np.empty((loc.size, size))
    # einsum, not a broadcast multiply: that allocates two 64 KiB iterator buffers.
    np.einsum("ij,ik->ijk", _sylvester(bits - lo_bits).take(loc >> lo_bits, axis=0),
              _sylvester(lo_bits).take(loc & (lo - 1), axis=0), out=h.reshape(loc.size, hi, lo))
    return h


def _rows_node(y: np.ndarray, offset: int, size: int, rows: memoryview, lo: int, hi: int,
               leaf: int) -> int:
    """Rows rows[lo:hi] of Htilde_size @ y[offset:offset+size], in place; adds per column.

    y is a C-contiguous buffer, so a row slice of it is a view and reshapes
    without a copy.  The tree walk is integer work: rows is a memoryview of
    the sorted, distinct requested rows (no copy), and bisect finds where
    the halves split.  Rows not requested are left holding partial sums.
    Top down: the halves are combined and a half is entered only when it
    holds requested rows, at size/2 adds per combined half.  A block whose
    rows are all requested is finished level by level, largest stride first,
    which is the same order of stages.  A node of at most leaf rows, q of
    them requested, is finished by one product with its q sign rows, at
    q (size - 1) adds, while those rows hold at most _BLOCK entries.  A
    module-level function, not a closure, so one call leaves no reference
    cycle holding y.
    """
    q = hi - lo
    if q == size:
        blk = y[offset:offset + size]
        for s in range(1, size.bit_length()):  # strides size/2, size/4, ..., 1
            lvl = blk.reshape(1 << (s - 1), 2, size >> s, y.shape[1])
            _butterfly(lvl[:, 0], lvl[:, 1], True, True)
        return size * (size.bit_length() - 1)
    if size <= leaf and q * size <= _BLOCK:
        want = np.asarray(rows[lo:hi])
        y[want] = _leaf_signs(want & (size - 1), size) @ y[offset:offset + size]
        return q * (size - 1)
    half = size >> 1
    mid = offset + half
    split = bisect_left(rows, mid, lo, hi)
    want_top, want_bot = split > lo, split < hi
    _butterfly(y[offset:mid], y[mid:offset + size], want_top, want_bot)
    adds = half * (want_top + want_bot)
    if want_top:
        adds += _rows_node(y, offset, half, rows, lo, split, leaf)
    if want_bot:
        adds += _rows_node(y, mid, half, rows, split, hi, leaf)
    return adds


def _full_plan(n: int) -> SamplingPlan:
    """Every index of [0, n) once, in order, at scale 1."""
    return SamplingPlan(indices=np.arange(n), scales=np.ones(n), n=n)


def fwht(x, counter: OpCounter | None = None) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform H_n x.

    x must have power-of-two length.  The counter gains exactly n log2(n)
    additions/subtractions; the final 1/sqrt(n) normalization multiplies are
    not counted.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or not _is_pow2(x.size):
        raise ValueError("fwht requires a 1-d vector of power-of-two length")
    return subsampled_fwht(x, _full_plan(x.size), counter)


def subsampled_fwht(x, plan: SamplingPlan, counter: OpCounter | None = None) -> np.ndarray:
    """The plan's r sampled entries of H_n x, each rescaled by sqrt(n/r).

    Output entry t equals fwht(x)[plan.indices[t]] * plan.scales[t].
    Duplicate draws are computed once and emitted once per draw; the counter
    stays at or below 2 n log2(r+1) either way.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (plan.n,):
        raise ValueError(f"expected shape ({plan.n},) from plan.n, got {x.shape}")
    op = SrhtOperator(n_pad=plan.n, signs=np.ones(plan.n), plan=plan, side="left")
    return srht_apply(op, x, counter)


def make_srht(n: int, r: int, seed: int, side: str = "left") -> SrhtOperator:
    """Draw a fresh SRHT operator for logical dimension n with r samples.

    n_pad is the smallest power of two >= n.  The draws follow the module's
    reproducibility contract: n_pad signs, then r indices floor(u n_pad).
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    n_pad = next_pow2(n)
    rng = make_rng(seed)
    signs = rng.random(n_pad)
    # In place, np.where(u < 0.5, 1.0, -1.0) bit for bit: the largest double below
    # 0.5, less u, is >= +0.0 exactly when u < 0.5, and copysign reads that sign.
    np.subtract(np.nextafter(0.5, 0.0), signs, out=signs)
    np.copysign(1.0, signs, out=signs)
    idx = (rng.random(r) * n_pad).astype(np.int64)
    plan = SamplingPlan(indices=idx, scales=np.full(r, math.sqrt(n_pad / r)), n=n_pad)
    return SrhtOperator(n_pad=n_pad, signs=signs, plan=plan, side=side)


def _pairs(X: np.ndarray, half: int, pair: int) -> np.ndarray:
    """Rows i and half + i of X, for i < pair, as one (2, pair, ...) view."""
    if pair == half:
        return X[:2 * half].reshape((2, half) + X.shape[1:])
    return as_strided(X, (2, pair) + X.shape[1:], (half * X.strides[0],) + X.strides,
                      writeable=False)


def _fill(y: np.ndarray, blocks: list, signs: np.ndarray, sign: float) -> None:
    """y <- x1 + sign * x2: sign 1 (top), -1 (bottom) or 0 (x1 alone).

    x = D [M; 0] is cut after len(y) rows into x1 and x2, so y becomes the
    top or the bottom half of the transform's first butterfly, or all of x
    when there is no x2.  blocks are (B, col) pairs, B an (n, w) matrix or
    an (n,) column of M that starts at column col, and signs are D's first
    n entries.  Row i of y pairs with data while its partner, row half + i,
    is a row of M, pairs with padding below that, and is padding past n.

    The bits are those of one butterfly over a padded buffer filled by whole
    blocks: einsum for a matrix (its zero-initialised sum turns -0.0 into
    +0.0), np.multiply for a column (which keeps it).  A matrix piece is one
    einsum of the signs (s1, sign s2), or s1 alone for unpaired rows, with
    views of rows i and half + i: +-1 products are exact, 0 + s1 x1 is
    einsum's lone product, and adding sign s2 x2 rounds as the butterfly
    does.  A column adds or subtracts its partner's product from a
    temporary, since einsum would turn (-0.0) + (-0.0) into +0.0; an
    unpaired top row gets x1 + 0.0, which turns -0.0 into +0.0.

    Column tiles run outermost, then the two row ranges, then row pieces.
    A lone column-major block, such as the right side's A^T, goes by tiles
    of isqrt(_BLOCK) columns and _BLOCK entries, filled in its own layout
    in one array and copied into y.  At one BLAS thread on a 2-vCPU VM,
    both halves from a 2048 x 1024 A took 6.7-8.9 ms by 128 x 128 tiles of
    A in six runs, 2-20% more by 128 x 64, 64 x 128, 32 x 256, 16 x 512 or
    256 x 64, and 6-8% less by 64 x 256 (0.5 ms of a 360 ms low-rank
    trial).  Anything else goes into y by pieces of _BLOCK // 2 rows, whose
    temporaries are at most one block; in srht_apply at 131072 x 17, 2048 to
    8192 rows ran alike, and 963 (one block of y) or 16384 2-5% slower.
    """
    half, k = y.shape
    pair, own = max(len(signs) - half, 0), min(len(signs), half)
    y[own:] = 0.0
    B = blocks[0][0]
    tiled = len(blocks) == 1 and B.ndim == 2 and B.flags.f_contiguous and not B.flags.c_contiguous
    width = min(math.isqrt(_BLOCK), k) if tiled else max(k, 1)  # columns per tile
    step = _BLOCK // width if tiled else _BLOCK // 2  # rows per piece
    tile = np.empty((min(step, own), width) if tiled else 0, order="F")
    neg, partner = np.empty((2, min(step, pair))), np.empty(min(step, pair))
    negate = sign < 0 and any(C.ndim == 2 for C, _ in blocks)  # (s1, -s2) for einsum
    rows = [signs] + [C for C, _ in blocks]  # paired with their partners, then unpaired
    ranges = [(0, [_pairs(X, half, pair) for X in rows]),
              (pair, [X[None, pair:own] for X in rows])]
    for j in range(0, k, width):
        j1 = min(j + width, k)
        for lo, (sign_rows, *views) in ranges:
            for i in range(0, sign_rows.shape[1], step):
                i1 = min(i + step, sign_rows.shape[1])
                x = tile[:i1 - i, :j1 - j] if tiled else y[lo + i:lo + i1]
                S = T = sign_rows[:, i:i1]  # (s1, s2), or (s1,) unpaired
                if negate and len(S) == 2:  # einsum's T is (s1, -s2); a column subtracts
                    T = neg[:, :i1 - i]
                    T[0] = S[0]
                    np.negative(S[1], out=T[1])
                for (_, col), V in zip(blocks, views):
                    if V.ndim == 3:
                        V = V[:, i:i1, j:j1] if tiled else V[:, i:i1]
                        np.einsum("ti,tij->ij", T, V, out=x[:, col:col + V.shape[2]])
                        continue
                    out = x[:, col]  # a column: np.multiply keeps -0.0
                    np.multiply(S[0], V[0, i:i1], out=out)
                    if len(S) == 2:  # x1 + x2 or x1 - x2
                        (np.subtract if sign < 0 else np.add)(
                            out, np.multiply(S[1], V[1, i:i1], out=partner[:i1 - i]), out=out)
                    elif sign > 0:  # x1 + padding turns -0.0 into +0.0
                        np.add(out, 0.0, out=out)
                if tiled:
                    y[lo + i:lo + i1, j:j1] = x


def srht_apply(op: SrhtOperator, M, counter: OpCounter | None = None) -> np.ndarray:
    """Apply the operator: S^T H D [M; 0] (left) or [M, 0] D H S (right).

    Zero-padding up to n_pad happens internally.  A 1-d input is treated as a
    single column (left) or single row (right) and returned 1-d with length r;
    both give the same values.  On the left, M may also be a tuple of column
    blocks of equal height, each a matrix or a 1-d column: the result is
    that of np.column_stack(M), with no stacked copy made, since each half
    of the transform's buffer is filled from the blocks in place.  NaN/Inf
    in M raise ValueError, checked on the r-row output: H has no zero entry,
    so one non-finite entry (or overflow) spoils its whole column (row).
    """
    if isinstance(M, tuple):
        if op.side != "left":
            raise ValueError("column blocks are taken on side='left' only")
        blocks = [np.asarray(B, dtype=np.float64) for B in M]
        vector = False
    else:
        A = np.atleast_1d(np.asarray(M, dtype=np.float64))
        # The vectors the operator mixes are columns; a 1-d A is one column.
        blocks = [A.T if op.side == "right" else A]
        vector = A.ndim == 1
    if not blocks or any(B.ndim not in (1, 2) or len(B) != len(blocks[0]) for B in blocks):
        raise ValueError("expected a vector or matrix, or column blocks of equal "
                         f"height, got shapes {[B.shape for B in blocks]}")
    n, n_pad = len(blocks[0]), op.n_pad
    if n > n_pad:
        raise ValueError(f"expected at most n_pad={n_pad} rows (left) or "
                         f"columns (right), got {n}")
    widths = [1 if B.ndim == 1 else B.shape[1] for B in blocks]
    k, idx, drawn = sum(widths), np.unique(op.plan.indices), op.plan.indices
    leaf = 1 << (int(n_pad * math.log2(idx.size + 1) / idx.size).bit_length() - 1)
    # One half-sized buffer for each half in turn, unless the top node is one
    # leaf product (one requested row, n_pad <= _BLOCK): that takes the whole
    # padded buffer.
    size = n_pad if n_pad <= leaf and idx.size * n_pad <= _BLOCK else n_pad >> 1
    y = np.empty((size, k))
    blocks = list(zip(blocks, np.cumsum([0] + widths).tolist()))
    out = np.empty((op.r, k))
    adds = 0
    for base, sign in ((0, 1.0), (size, -1.0)) if size < n_pad else ((0, 0.0),):
        lo, hi = np.searchsorted(idx, (base, base + size)).tolist()
        if lo == hi:
            continue
        _fill(y, blocks, op.signs[:n], sign)
        adds += (size if sign else 0) + _rows_node(
            y, 0, size, memoryview(idx[lo:hi] - base), 0, hi - lo, leaf)
        here = np.flatnonzero((drawn >= base) & (drawn < base + size))
        out[here] = y[drawn[here] - base]
    if counter is not None:
        counter.add(adds * k)
    out /= math.sqrt(n_pad)
    out *= op.plan.scales[:, None]
    out = as_matrix(out.T if op.side == "right" else out)
    return out.reshape(-1) if vector else out


def coherence_check(U, op: SrhtOperator) -> tuple[float, float]:
    """Largest row norm^2 of H D U against the uniformization threshold.

    U must have orthonormal columns and exactly n_pad rows.  Returns
    (max_i ||(HDU)_{i*}||^2, 2 d ln(40 n d) / n) with n = n_pad; after the
    randomized rotation the first should fall below the second for most sign
    draws.
    """
    U = np.ascontiguousarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={U.ndim}")
    n, d = U.shape
    if n != op.n_pad:
        raise ValueError(f"U has {n} rows, operator expects {op.n_pad}")
    rotate = SrhtOperator(n_pad=n, signs=op.signs, plan=_full_plan(n), side="left")
    hdu = srht_apply(rotate, U)  # the one NaN/Inf check, before the Gram matrix
    gram_err = np.max(np.abs(U.T @ U - np.eye(d)))
    if gram_err > ORTHO_TOL:
        raise ValueError(f"coherence_check: columns not orthonormal "
                         f"(|U^T U - I| = {gram_err:.3e})")
    max_row = float(np.max(np.sum(hdu * hdu, axis=1)))
    threshold = 2.0 * d * math.log(40.0 * n * d) / n
    return max_row, threshold
