"""Double-circulant codes from Sidon sets, plus the majority-vote decoder.

The generator stacks the identity over a circulant whose first column is the
indicator vector of a Sidon set. Distinct pairwise differences cap the
support overlap of any two circulant columns at 2, and that overlap bound b
is exactly what drives the majority decoder's radius d/(2b).

The decoder keeps no table with the code: the vote of support element s
for coordinate i is entry i + s of y laid twice end to end, so every vote
set is a slice or a shift. q=2 words, one or a batch, run on one Python int:
row r is lane r, 2k bits wide, and bit i of a lane is symbol i of its word
(algebra.gf2_bits and pack_bits). A*x is algebra.gf2_circulant, the XOR of
rotations that every q=2 circulant product uses, and the d votes per
coordinate are summed in a bit-sliced counter of d.bit_length() planes.
Binary votes elect 1 against the threshold d//2 + 1 (ceil(d/2) under the
self-test tie hook), and q > 2 votes go through column_majority, which
never loops over the q field values. Whatever q and k are, the q > 2 votes
take about PATTERN_CHUNK^2 int64 entries at a time, and q=2 ones a few ints
of 2k bits per row.

This module also holds the circulant matrix type and the
identity-over-circulants core that all three families (Sidon, cyclic and
Wozencraft) are built on; their products run on algebra.circulant_product.
Each first column lives only in its CirculantMatrix: encode passes the
circulant's cached terms to algebra.cyclic_mul, one call per block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    PrimeField,
    circulant_product,
    cyclic_mul,
    gf2_bits,
    gf2_circulant,
    lane_mask,
    pack_bits,
    reduce_mod,
    unpack_bits,
)
from .code_core import (
    FAIL,
    PATTERN_CHUNK,
    Decoded,
    DecodeOutcome,
    GeneratorMatrixCode,
    Word,
)
from .sidon import SidonSet

# Self-test mutation hook: when set to a non-empty value, majority ties
# resolve to the largest field element instead of the smallest, which the
# self-test suite must detect as a failure.
TIE_HOOK_ENV = "DCCODES_MAJORITY_TIE_HIGH"


@dataclass(frozen=True)
class CirculantMatrix:
    """k x k circulant held as its first column only.

    Column j is the cyclic downward shift of column 0 by j positions; the
    matrix action is polynomial multiplication mod x^k - 1 and the full
    matrix is never materialized.
    """

    k: int
    first_column: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.first_column) != self.k:
            raise ValueError("first column length must equal k")

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.first_column) if v)

    def column(self, j: int) -> tuple[int, ...]:
        a = self.first_column
        k = self.k
        return tuple(a[(i - j) % k] for i in range(k))

    @cached_property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """(row, entry) of every nonzero first-column entry."""
        return tuple((s, self.first_column[s]) for s in self.support)

    def act(self, x, q: int) -> np.ndarray:
        """A*x over F_q for a length-k vector, or for every row of an (N, k) array.

        Returns an int64 array shaped like x, reduced mod q; see
        circulant_product.
        """
        x = np.asarray(x, dtype=np.int64)
        if x.shape[-1] != self.k:
            raise ValueError(f"operand must have length {self.k}")
        return circulant_product(self.terms, x, q)


@dataclass(frozen=True)
class DesignProfile:
    """d: minimum column weight; b: maximum pairwise support overlap."""

    d: int
    b: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.b < 0:
            raise ValueError("profile entries must be non-negative")


def design_profile(a: CirculantMatrix) -> DesignProfile:
    """Profile of a circulant: column weight and max pairwise support overlap.

    By circulant symmetry the overlap of columns 0 and j is the number of
    ordered support pairs at difference j mod k, so one pass over pairwise
    differences of the first column's support covers all column pairs.
    """
    supp = a.support
    d = len(supp)
    counts: dict[int, int] = {}
    for s in supp:
        for s2 in supp:
            if s == s2:
                continue
            j = (s - s2) % a.k
            counts[j] = counts.get(j, 0) + 1
    b = max(counts.values(), default=0)
    return DesignProfile(d, b)


class IdentityOverCirculants:
    """Linear code generated by a k x k identity over t-1 k x k circulants.

    Every family in the package has this shape; it fixes the codeword layout
    (m, A_1*m, ..., A_(t-1)*m) and the generator built from it, with the
    first columns normalised mod q.
    """

    def __init__(self, q: int, k: int, first_columns: Sequence[Sequence[int]]):
        if not first_columns:
            raise ValueError("need at least one circulant block (t >= 2)")
        self.q = q
        self.field = PrimeField(q)
        self.k = k
        self.first_columns = tuple(
            tuple(int(v) % q for v in col) for col in first_columns
        )
        self.circulants = tuple(CirculantMatrix(k, col) for col in self.first_columns)
        self.t = len(self.first_columns) + 1

    @property
    def n(self) -> int:
        return self.t * self.k

    def encode(self, m: Sequence[int]) -> Word:
        """Codeword (m, A_1*m, ..., A_(t-1)*m).

        Each block is one cyclic_mul of the message by its circulant's
        cached terms. At q=2 the message is reduced to bits once and every
        block is a product of packed ints, so no int64 array is made.
        """
        if len(m) != self.k:
            raise ValueError(f"message must have length {self.k}")
        if self.q == 2:
            msg = gf2_bits(m)
            out = tuple(msg.tobytes())
        else:
            msg = reduce_mod(np.asarray(m, dtype=np.int64), self.q)
            out = tuple(msg.tolist())
        for a in self.circulants:
            out += cyclic_mul(a.terms, msg, self.k, self.q)
        return out

    @cached_property
    def code(self) -> GeneratorMatrixCode:
        """Generator whose column j is the codeword of the j-th unit message."""
        eye = np.eye(self.k, dtype=np.int64)
        blocks = [eye] + [a.act(eye, self.q) for a in self.circulants]
        return GeneratorMatrixCode(self.q, np.hstack(blocks))


class SidonDCCode(IdentityOverCirculants):
    """Double-circulant code with a Sidon-set circulant block."""

    def __init__(self, q: int, k: int, sidon: SidonSet):
        if len(sidon) < 2:
            raise ValueError("Sidon set must have at least 2 elements")
        if sidon.elements[-1] >= k or sidon.elements[0] < 0:
            raise ValueError(f"Sidon elements must lie in [0, {k})")
        members = set(sidon.elements)
        super().__init__(q, k, [[int(i in members) for i in range(k)]])
        self.sidon = sidon
        self.circulant = self.circulants[0]
        self.profile = design_profile(self.circulant)
        if self.profile.b > 2:
            raise AssertionError(
                "a Sidon indicator circulant cannot have support overlap > 2"
            )

    @property
    def decode_radius(self) -> Fraction:
        return Fraction(self.profile.d, 2 * self.profile.b)

    @property
    def distance_bound(self) -> Fraction:
        return Fraction(self.profile.d, self.profile.b) + 1

    @property
    def balanced_bound(self) -> Fraction:
        return min(
            Fraction(self.profile.d, self.profile.b) + 1,
            Fraction(self.k, self.profile.d),
        )

    def __repr__(self) -> str:
        return (
            f"SidonDCCode(q={self.q}, k={self.k}, "
            f"d={self.profile.d}, b={self.profile.b})"
        )


def build_sidon_dc(q: int, k: int, s: SidonSet | Sequence[int]) -> SidonDCCode:
    """Double-circulant code for a Sidon set living in [0, k).

    A bare element sequence is wrapped (and thereby verified) first.
    """
    if not isinstance(s, SidonSet):
        s = SidonSet(tuple(sorted(s)), k)
    return SidonDCCode(q, k, s)


def dc_encode(code: SidonDCCode, m: Sequence[int]) -> Word:
    """Codeword (m, A*m) where A is the Sidon circulant."""
    return code.encode(m)


def _tie_high() -> bool:
    """Whether the self-test mutation hook is set; read on every call."""
    return bool(os.environ.get(TIE_HOOK_ENV))


def column_majority(votes, q: int) -> np.ndarray:
    """Most frequent value in each column of votes, entries in [0, q).

    Votes reduce over the first axis: a 1-D votes is one column, and a
    (d, ...) array gives a (...) answer. Ties resolve to the smallest field
    element (largest under the self-test mutation hook). The decoder's
    correctness proof guarantees a strict majority inside the decoding radius,
    so the tie rule only matters beyond it, where the final distance check
    catches wrong guesses anyway.
    """
    votes = np.asarray(votes, dtype=np.int64)
    # Each slot's key, count*q - value, orders by how many slots agree with
    # it and then by the smaller value (count*q + value and the larger value
    # under the hook), so the largest key names the winner; no loop runs over
    # the q values. Eight slots at a time compare as a bool array the size of
    # the int64 votes.
    tie_high = _tie_high()
    best = None
    for j in range(0, len(votes), 8):
        v = votes[j : j + 8]
        count = (v[:, None] == votes).sum(axis=1) * q
        key = (count + v if tie_high else count - v).max(axis=0)
        best = key if best is None else np.maximum(best, key)
    return best % q if tie_high else -best % q


def _bit_decode(
    code: SidonDCCode, bits: np.ndarray
) -> tuple[np.ndarray, bool | np.ndarray]:
    """majority_decode of a q=2 word of 2k bits (gf2_bits), or of every row
    of an array of them, on one Python int: row r is lane r, 2k bits wide,
    w0 in its low half and w1 in its high half. Returns uint8 codewords
    shaped like bits, and a bool for one word or a bool array per row.

    Both products A*x are algebra.gf2_circulant over every lane at once. The
    vote of support element s for coordinate i is y rotated down by s. The d
    votes are added into d.bit_length() bit planes (a bit-sliced counter,
    Biham 1997), compared with the threshold most significant plane first.
    """
    k, d = code.k, code.profile.d
    if bits.shape[-1:] != (2 * k,):
        raise ValueError(f"word must have length {2 * k}")
    terms = code.circulant.terms
    mask = lane_mask(k, bits.size // (2 * k))
    word = pack_bits(bits)
    w0, w1 = word & mask, word >> k & mask
    y = gf2_circulant(terms, w0, k, mask) ^ w1
    twice = y | y << k
    planes = [0] * d.bit_length()
    for s in code.circulant.support:
        carry = twice >> s & mask  # the mask keeps every plane k bits per lane
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
    # z = [count >= t], most significant plane first: level keeps the columns
    # that hold every 1 bit of t read so far, and such a column with a 1
    # where t has a 0 is above t
    # the fewest ones that elect 1: d//2 + 1, or ceil(d/2) under the tie hook
    t = (d + 1) // 2 if _tie_high() else d // 2 + 1
    above, level = 0, mask
    for j in reversed(range(len(planes))):
        if t >> j & 1:
            level &= planes[j]
        else:
            above |= level & planes[j]
    z = above | level
    c0 = w0 ^ z
    c1 = gf2_circulant(terms, c0, k, mask)
    c = unpack_bits(c0 | c1 << k, bits.size).reshape(bits.shape)
    if bits.ndim == 1:
        dist = z.bit_count() + (c1 ^ w1).bit_count()
    else:
        dist = np.count_nonzero(c != bits, axis=-1)
    return c, 2 * code.profile.b * dist < d


def majority_decode(code: SidonDCCode, w) -> tuple[np.ndarray, np.ndarray]:
    """Majority-vote decoding of a word, or of every row of an (N, 2k) array.

    With w = (w0, w1), the vector y = A*w0 - w1 equals A*e0 - e1 for error
    blocks e0, e1, so each coordinate of e0 shows up as the majority value of
    y over the matching column support whenever the total error weight is
    below d/(2b). Returns the codewords, an int64 array shaped like w, and
    whether each lies strictly within that radius of its word.

    q=2 words, one or a batch, are decoded on one Python int (_bit_decode).
    For q > 2 the vote of support element s for coordinate i is y[i + s] of
    y laid twice end to end, and column_majority takes the stacked slices
    PATTERN_CHUNK // d rows and PATTERN_CHUNK columns at a time, so that
    (d, rows, columns) stack holds about PATTERN_CHUNK^2 entries whatever k
    is. No vote table is kept with the code.
    """
    k, q, d = code.k, code.q, code.profile.d
    if q == 2:
        c, ok = _bit_decode(code, gf2_bits(w))
        return c.astype(np.int64), np.bool_(ok)
    w = reduce_mod(np.asarray(w, dtype=np.int64), q)
    if w.shape[-1] != 2 * k:
        raise ValueError(f"word must have length {2 * k}")
    rows = max(1, PATTERN_CHUNK // d)
    if w.ndim == 2 and len(w) > rows:
        chunks = (w[i : i + rows] for i in range(0, len(w), rows))
        parts = [majority_decode(code, chunk) for chunk in chunks]
        return tuple(np.concatenate(p) for p in zip(*parts))
    w0, w1 = w[..., :k], w[..., k:]
    y = reduce_mod(code.circulant.act(w0, q) - w1, q)
    twice = np.concatenate([y, y], axis=-1)
    supp = code.circulant.support
    parts = []
    for c in range(0, k, PATTERN_CHUNK):
        end = min(c + PATTERN_CHUNK, k)
        votes = np.array([twice[..., s + c : s + end] for s in supp])
        parts.append(column_majority(votes, q))
    z = np.concatenate(parts, axis=-1)
    c0 = reduce_mod(w0 - z, q)
    c = np.concatenate([c0, code.circulant.act(c0, q)], axis=-1)
    # strict rational comparison: dist < d / (2b)
    return c, 2 * code.profile.b * (c != w).sum(axis=-1) < d


def design_decode(code: SidonDCCode, w: Sequence[int]) -> DecodeOutcome:
    """majority_decode of one word, as a Decoded codeword or FAIL."""
    if code.q == 2:
        c, ok = _bit_decode(code, gf2_bits(w))
    else:
        c, ok = majority_decode(code, w)
    if c.ndim != 1:
        raise ValueError(f"word must have length {2 * code.k}")
    if not ok:
        return FAIL
    c = tuple(c.tobytes() if code.q == 2 else c.tolist())
    return Decoded(c, c[: code.k])
