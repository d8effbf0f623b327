"""Linear codes over prime fields: encoding, weights, and exact oracles.

Matrices are numpy arrays: a code holds its generator as one read-only
(k, n) int64 array and row-reduces it once, at construction; unencode and
the dual basis read that reduction. Words go in as any sequence of ints,
and tuples appear only in what encode, unencode and the decoders return.
The exhaustive scans (distance, balanced profile, nearest codeword,
bounded-distance error patterns) are budget-guarded: anything that would
enumerate more than ORACLE_BUDGET codewords or patterns raises
OracleBudgetExceeded instead of silently running forever. A codeword scan
is checked from q and k alone and states its count as a power, q^k. The
codeword scans share one enumeration: blocks of codewords in lexicographic
message order, each a table of low-digit codewords plus one higher-digit
codeword, reduced with numpy.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .algebra import PrimeField, reduce_mod

Word = tuple[int, ...]

DEFAULT_ORACLE_BUDGET = 1 << 24

# Error patterns per batch in bounded_distance_decode.
PATTERN_CHUNK = 1024

# Symbols per codeword block of the exhaustive codeword scans (_codeword_blocks).
SCAN_BLOCK = 1 << 18


class OracleBudgetExceeded(RuntimeError):
    """An exhaustive scan would exceed the configured enumeration budget."""


def oracle_budget() -> int:
    raw = os.environ.get("ORACLE_BUDGET")
    if raw is None:
        return DEFAULT_ORACLE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"ORACLE_BUDGET must be an int, got {raw!r}") from exc
    if value < 1:
        raise ValueError("ORACLE_BUDGET must be positive")
    return value


def _require_budget(q: int, k: int, what: str) -> None:
    """Raise OracleBudgetExceeded if a scan of q^k codewords exceeds the budget.

    The product stops growing once it passes the budget, so a huge k costs
    no more than a small one, and the message states the count as a power.
    """
    budget = oracle_budget()
    count = 1
    for _ in range(k):
        count *= q
        if count > budget:
            raise OracleBudgetExceeded(
                f"{what} needs {q}^{k} codeword evaluations, budget is {budget}"
            )


@dataclass(frozen=True)
class Decoded:
    """Successful decoder outcome: the codeword found and its message."""

    codeword: Word
    message: Word


class _Fail:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAIL"

    def __bool__(self) -> bool:
        return False


FAIL = _Fail()

DecodeOutcome = Union[Decoded, _Fail]

Decoder = Callable[[Sequence[int]], DecodeOutcome]


def _rref(mat: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduce mat mod q. Returns (rref, pivot_columns), rref as int64."""
    rows, cols = mat.shape
    # Every intermediate lies in (-(q-1)^2, q^2), so int8 holds them all for
    # q <= 11, and the row updates, which dominate, move 8x fewer bytes.
    m = reduce_mod(np.asarray(mat, dtype=np.int64), q)
    m = m.astype(np.int8 if q <= 11 else np.int64)
    piv: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        pr = r + int(below[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), q - 2, q)
        m[r] = m[r] * inv % q
        col = m[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            m[nz] = reduce_mod(m[nz] - np.outer(col[nz], m[r]), q)
        piv.append(c)
        r += 1
    return m.astype(np.int64), piv


class GeneratorMatrixCode:
    """A linear code given by the columns of its generator matrix.

    Column i is the codeword of the i-th unit message, so the code is the
    set of F_q-linear combinations of the columns. Column i is held as row i
    of the read-only (k, n) int64 array `columns`. Columns must be linearly
    independent; a dependent set raises ValueError at construction.
    """

    def __init__(self, q: int, columns: Sequence[Sequence[int]], n: int | None = None):
        self.field = PrimeField(q)
        self.q = q
        mat = np.asarray(columns, dtype=np.int64)
        if mat.ndim == 1 and not mat.size:
            if n is None:
                raise ValueError("a dimension-zero code needs an explicit length n")
            mat = mat.reshape(0, max(n, 0))
        if mat.ndim != 2:
            raise ValueError("generator columns must share one length")
        if n is not None and n != mat.shape[1]:
            raise ValueError(f"stated length {n} != column length {mat.shape[1]}")
        self.k, self.n = mat.shape
        if self.n < 1:
            raise ValueError("block length must be positive")
        self.columns = reduce_mod(mat, q)
        self.columns.flags.writeable = False
        # reducing [M | I] leaves rref(M), with M's pivots, on the left and
        # T with T @ M == rref(M) in the identity's place
        rref, piv = _rref(np.hstack([self.columns, np.eye(self.k, dtype=np.int64)]), q)
        if piv and piv[-1] >= self.n:
            raise ValueError("generator columns are linearly dependent")
        self._rref = rref
        self._pivots = np.array(piv, dtype=np.intp)
        self._dual: GeneratorMatrixCode | None = None

    def encode(self, message: Sequence[int]) -> Word:
        if len(message) != self.k:
            raise ValueError(f"message must have length {self.k}")
        m = np.asarray(message, dtype=np.int64) % self.q
        return tuple((m @ self.columns % self.q).tolist())

    def unencode(self, codeword: Sequence[int]) -> Word:
        """The unique message encoding to the given codeword.

        Assumes membership; garbage in, garbage out for non-codewords.
        """
        if len(codeword) != self.n:
            raise ValueError(f"word must have length {self.n}")
        c = np.asarray(codeword, dtype=np.int64)[self._pivots]
        return tuple((c @ self._rref[:, self.n :] % self.q).tolist())

    def __repr__(self) -> str:
        return f"GeneratorMatrixCode(q={self.q}, n={self.n}, k={self.k})"


def capability(radius: Fraction | int) -> int:
    """Largest error count strictly below radius, ceil(radius) - 1, in integers."""
    r = Fraction(radius)
    return (r.numerator - 1) // r.denominator


def hamming_weight(w: Sequence[int]) -> int:
    return sum(1 for v in w if v)


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(1 for a, b in zip(u, v) if a != b)


def balanced_weight(w: Sequence[int]) -> int:
    """min over symbols alpha of #{i : w_i != alpha}.

    Equals the length minus the highest symbol multiplicity, so it never
    needs the field size: symbols absent from w cannot attain the min.
    """
    if not len(w):
        return 0
    counts: dict[int, int] = {}
    for v in w:
        counts[v] = counts.get(v, 0) + 1
    return len(w) - max(counts.values())


def split_balanced_weight(c: Sequence[int], t: int, k: int) -> int:
    """Hamming weight of the first length-k block plus balanced weights of
    the remaining t-1 blocks."""
    if len(c) != t * k:
        raise ValueError(f"word length {len(c)} != {t}*{k}")
    total = hamming_weight(c[:k])
    for i in range(1, t):
        total += balanced_weight(c[i * k : (i + 1) * k])
    return total


def iter_codewords(
    code: GeneratorMatrixCode,
) -> Iterator[tuple[Word, Word]]:
    """Yield (message, codeword) over all q^k messages. Budget-guarded."""
    _require_budget(code.q, code.k, "codeword enumeration")
    for digits in itertools.product(range(code.q), repeat=code.k):
        yield digits, code.encode(digits)


def _codeword_blocks(code: GeneratorMatrixCode) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first message index s, (B, n) codewords) over all q^k messages.

    Row r is the codeword of message s + r, in lexicographic order: a table of
    low-digit codewords (at most SCAN_BLOCK // n rows, at least one) plus the
    codeword of message s, reduced as min(x, x - q) in the narrowest unsigned
    dtype holding 2(q - 1), where x - q wraps above x for x < q. Blocks are
    column-major, so row counts add whole columns, and share one buffer.
    """
    q, k, n = code.q, code.k, code.n
    gen = code.columns
    rows = max(1, SCAN_BLOCK // n)
    dtype = np.min_scalar_type(2 * (q - 1))
    table = np.zeros((1, n), dtype=dtype)
    span = 1  # messages per value of the digits above the table
    for col in gen[::-1]:  # least significant digit first
        reps = min(q, rows // span)
        if reps < 2:
            break
        steps = (np.arange(reps)[:, None] * col % q).astype(dtype)
        table = (steps[:, None] + table).reshape(-1, n)
        np.minimum(table, table - q, out=table)
        span *= q
        if reps < q:
            break
    table = np.asfortranarray(table)
    out, wrapped = np.empty_like(table), np.empty_like(table)
    size = len(table)
    for base in range(0, q**k, span):
        for start in range(base, base + span, size):
            m = min(size, base + span - start)
            head = np.array(np.unravel_index(start, (q,) * k), dtype=np.int64) @ gen % q
            block = np.add(table[:m], head.astype(dtype), out=out[:m])
            np.minimum(block, np.subtract(block, q, out=wrapped[:m]), out=block)
            yield start, block


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a (B, m) bool array, summed in a narrow dtype."""
    counts = mask.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(mask.shape[1]))
    return counts.astype(np.intp)


def _balanced_weights(part: np.ndarray, q: int) -> np.ndarray:
    """balanced_weight of every row of a (B, m) array of symbols.

    A row's most frequent symbol is both a field element and one of its own
    entries, so rows are counted against the shorter list: min(q - 1, m) passes.
    """
    m = part.shape[1]
    if q - 1 <= m:
        counts = [_row_counts(part == symbol) for symbol in range(1, q)]
        counts.append(m - sum(counts))  # the zeros
    else:
        counts = [_row_counts(part == part[:, j, None]) for j in range(m)]
    return m - np.maximum.reduce(counts)


def _min_nonzero(code: GeneratorMatrixCode, weigh: Callable) -> int | float:
    """Minimum of weigh's per-row weights over the nonzero codewords; inf if none."""
    best: int | float = math.inf
    for start, block in _codeword_blocks(code):
        weights = weigh(block)[1 if start == 0 else 0 :]
        if weights.size:
            best = min(best, int(weights.min()))
    return best


def brute_force_distance(code: GeneratorMatrixCode) -> int | float:
    """Exact minimum distance by full enumeration; inf for dimension zero."""
    if code.k == 0:
        return math.inf
    _require_budget(code.q, code.k, "distance scan")
    return _min_nonzero(code, lambda block: _row_counts(block != 0))


def brute_force_balanced_profile(code: GeneratorMatrixCode, t: int) -> int | float:
    """Exact minimum of split_balanced_weight over nonzero codewords.

    The block count t must divide the length. Dimension zero returns inf.
    """
    if code.n % t:
        raise ValueError(f"block count {t} does not divide length {code.n}")
    if code.k == 0:
        return math.inf
    _require_budget(code.q, code.k, "balanced profile scan")

    def weigh(block: np.ndarray) -> np.ndarray:
        first, *rest = np.hsplit(block, t)
        return _row_counts(first != 0) + sum(_balanced_weights(p, code.q) for p in rest)

    return _min_nonzero(code, weigh)


def nearest_codeword(
    code: GeneratorMatrixCode, w: Sequence[int]
) -> tuple[Word, int]:
    """Closest codeword to w by full scan, as (codeword, distance).

    Distance ties go to the lexicographically smallest message, which the
    scan meets first, so the result is reproducible; the message is
    recoverable via unencode.
    """
    if len(w) != code.n:
        raise ValueError(f"word must have length {code.n}")
    _require_budget(code.q, code.k, "nearest codeword scan")
    w_arr = np.asarray(w, dtype=np.int64) % code.q
    best_dist, best_index = code.n + 1, 0
    for start, block in _codeword_blocks(code):
        dist = _row_counts(block != w_arr.astype(block.dtype))
        i = int(dist.argmin())
        if dist[i] < best_dist:
            best_dist, best_index = int(dist[i]), start + i
    return code.encode(np.unravel_index(best_index, (code.q,) * code.k)), best_dist


def dual_basis(code: GeneratorMatrixCode) -> GeneratorMatrixCode:
    """A basis of the dual code, as a GeneratorMatrixCode of dimension n-k.

    Read off the reduction made at construction: each non-pivot column f of
    rref(M) gives the kernel vector with 1 at f and -rref[:, f] at the
    pivots. Cached per code.
    """
    if code._dual is None:
        free = np.setdiff1d(np.arange(code.n), code._pivots)
        basis = np.zeros((len(free), code.n), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, code._pivots] = reduce_mod(-code._rref[:, free].T, code.q)
        code._dual = GeneratorMatrixCode(code.q, basis, n=code.n)
    return code._dual


def is_codeword(code: GeneratorMatrixCode, w: Sequence[int]) -> bool:
    """Membership via orthogonality against the cached dual basis."""
    if len(w) != code.n:
        raise ValueError(f"word must have length {code.n}")
    h = dual_basis(code).columns
    syn = h @ (np.asarray(w, dtype=np.int64) % code.q) % code.q
    return not syn.any()


def bounded_distance_decode(
    code: GeneratorMatrixCode, w: Sequence[int], radius: Fraction | int
) -> DecodeOutcome:
    """Find a codeword strictly within radius of w by error-pattern search.

    Patterns are scanned in increasing weight, so the first hit is a nearest
    in-radius codeword; when 2*radius <= distance it is the unique one.
    An exact oracle, not a decoder: the sum over weights wt < radius of
    (n choose wt)*(q-1)^wt patterns is budget-guarded, and each weight level
    is streamed in chunks of PATTERN_CHUNK patterns, whose syndromes are
    the syndrome of w minus the matching columns of the parity check.
    """
    max_wt = capability(radius)
    if max_wt < 0:
        return FAIL
    if len(w) != code.n:
        raise ValueError(f"word must have length {code.n}")
    q = code.q
    budget = oracle_budget()
    count = 0
    for wt in range(max_wt + 1):
        count += math.comb(code.n, wt) * (q - 1) ** wt
        if count > budget:
            raise OracleBudgetExceeded(
                f"bounded-distance pattern scan to weight {max_wt} exceeds "
                f"the budget, {budget}"
            )
    h = dual_basis(code).columns
    w_arr = np.asarray(w, dtype=np.int64) % q
    syn_w = h @ w_arr % q
    for wt in range(max_wt + 1):
        patterns = itertools.product(
            itertools.combinations(range(code.n), wt),
            itertools.product(range(1, q), repeat=wt),
        )
        while chunk := list(itertools.islice(patterns, PATTERN_CHUNK)):
            shape = (len(chunk), wt)
            pos = np.array([p for p, _ in chunk], dtype=np.intp).reshape(shape)
            delta = np.array([e for _, e in chunk], dtype=np.int64).reshape(shape)
            # syndrome of w - e: H w minus delta-weighted columns of H
            syn = (syn_w - np.einsum("pw,pwr->pr", delta, h.T[pos])) % q
            hits = np.flatnonzero(~syn.any(axis=1))
            if hits.size:
                c = w_arr.copy()
                c[pos[hits[0]]] = (c[pos[hits[0]]] - delta[hits[0]]) % q
                c = tuple(int(v) for v in c)
                return Decoded(c, code.unencode(c))
    return FAIL
