"""Binary Reed-Muller codes, majority-logic decoding, and punctured variants.

RM(r, m) consists of the evaluation vectors of multilinear polynomials of
degree at most r in m variables over F_2. Point i of the evaluation domain
is the assignment with variable x_j set to bit j of i, and a monomial is
held as the bitmask of its variable set, so "monomial T evaluates to 1 at
point i" is just T & i == T; RMCode.evaluations tabulates that rule once
and every encoder here reads the table.

Majority-logic decoding reads one vote table per degree layer,
RMCode.layers: layers[l][a, j, c] is point a of coset c of the j-th degree-l
monomial's variable subcube. A vote is the XOR-fold of a coset's points, so
a whole layer votes with one gather and one fold over axis 0, for one word
or a batch (reed_majority).

Removing the zero point and ordering the remaining points along powers of a
multiplicative generator of GF(2^m) turns RM(r, m) into a cyclic code. That
punctured view, its shortened cyclic code, and decoders for both are what
the double-circulant construction downstream consumes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .algebra import build_gf2m
from .code_core import (
    FAIL,
    PATTERN_CHUNK,
    Decoded,
    DecodeOutcome,
    GeneratorMatrixCode,
    Word,
)
from .cyclic import CyclicCode, generator_from_spanning_set


class RMCode:
    """RM(r, m): monomials are variable-set bitmasks, sorted by degree then
    by bitmask value, which fixes the message coordinate order."""

    def __init__(self, r: int, m: int):
        if not 0 <= r <= m:
            raise ValueError("need 0 <= r <= m")
        if m < 1 or m > 16:
            raise ValueError("m must be in 1..16")
        self.r = r
        self.m = m
        self.n = 1 << m
        self.monomials = tuple(
            sorted(
                (t for t in range(1 << m) if t.bit_count() <= r),
                key=lambda t: (t.bit_count(), t),
            )
        )
        self.k = len(self.monomials)

    @cached_property
    def evaluations(self) -> np.ndarray:
        """k x n 0/1 table whose row j is monomial j's evaluation vector.

        The only place the rule "T is 1 at point i iff T & i == T" is applied.
        Operands are uint16 (m <= 16) and the bool result is viewed as uint8,
        so the only k x n temporaries are one byte or two per entry.
        """
        t = np.array(self.monomials, dtype=np.uint16)[:, None]
        return ((t & np.arange(self.n, dtype=np.uint16)) == t).view(np.uint8)

    @cached_property
    def layers(self) -> tuple[np.ndarray, ...]:
        """Vote table per degree l = 0..r, shaped (2^l, C(m, l), 2^(m-l)).

        Entry [a, j, c] is the point whose bits inside the j-th degree-l
        monomial's variable set spell a and whose bits outside it spell c, so
        column [:, j, c] is coset c of the monomial's subcube and row a = 2^l - 1
        holds the one point of each coset where the monomial evaluates to 1.
        Monomials j run in message order within the layer.
        """
        m, stop = self.m, 0
        tables = []
        for ell in range(self.r + 1):
            start, stop = stop, stop + comb(m, ell)
            masks = np.array(self.monomials[start:stop])
            inside = (masks[:, None] >> np.arange(m)) & 1
            a = _spread(inside, ell)[:, :, None]
            c = _spread(1 - inside, m - ell).T
            tables.append(np.bitwise_or(a, c, order="C"))
        return tuple(tables)

    @cached_property
    def generator_code(self) -> GeneratorMatrixCode:
        return GeneratorMatrixCode(2, self.evaluations)

    def __repr__(self) -> str:
        return f"RMCode(r={self.r}, m={self.m})"


def _spread(variables: np.ndarray, width: int) -> np.ndarray:
    """(2^width, rows) points: entry [a, j] puts the bits of a, lowest first,
    on the `width` variables flagged in row j of the 0/1 array `variables`."""
    positions = np.nonzero(variables)[1].reshape(len(variables), width)
    a_bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
    return a_bits @ (1 << positions).T


@lru_cache(maxsize=None)
def rm_code(r: int, m: int) -> RMCode:
    return RMCode(r, m)


def rm_encode(code: RMCode, coeffs: Sequence[int]) -> Word:
    """Evaluation vector of the polynomial with the given monomial
    coefficients, in the code's monomial order."""
    if len(coeffs) != code.k:
        raise ValueError(f"need {code.k} coefficients")
    return tuple(((np.asarray(coeffs) & 1) @ code.evaluations % 2).tolist())


def reed_majority(code: RMCode, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Majority-logic decoding of a word, or of every row of an (N, n) array.

    Highest degree layer first: the coefficient of a degree-l monomial T
    equals the sum of the codeword over any coset of T's variable subcube,
    so each of the 2^(m-l) cosets in code.layers[l] casts one vote, the
    XOR-fold of its points; below half distance the correct value always
    has a strict majority. Ties vote 0. After each layer the decoded part is
    subtracted. Returns the codewords (uint8, shaped like words), the
    messages, and whether the final residual stays strictly under weight
    2^(m-r-1), i.e. the word was within the guaranteed radius. Rows are
    decoded PATTERN_CHUNK // k at a time, to bound the gathered votes.
    """
    received = (np.asarray(words, dtype=np.int64) & 1).astype(np.uint8)
    if received.shape[-1] != code.n:
        raise ValueError(f"word must have length {code.n}")
    rows = max(1, PATTERN_CHUNK // code.k)
    if received.ndim == 2 and len(received) > rows:
        chunks = (received[i : i + rows] for i in range(0, len(received), rows))
        parts = [reed_majority(code, chunk) for chunk in chunks]
        return tuple(np.concatenate(p) for p in zip(*parts))
    working = received.copy()
    msg = np.zeros(received.shape[:-1] + (code.k,), dtype=np.uint8)
    stop = code.k
    for table in reversed(code.layers):
        start = stop - table.shape[1]
        votes = np.bitwise_xor.reduce(np.take(working, table, axis=-1), axis=-3)
        layer = (2 * votes.sum(axis=-1) > table.shape[2]).astype(np.uint8)
        msg[..., start:stop] = layer
        # subtract the layer: XOR-fold its monomials' evaluation rows
        terms = layer[..., :, None] & code.evaluations[start:stop]
        working ^= np.bitwise_xor.reduce(terms, axis=-2)
        stop = start
    # accept only strictly within half distance: residual < 2^(m-r)/2
    ok = 2 * working.sum(axis=-1) < 1 << (code.m - code.r)
    return received ^ working, msg, ok


def reed_decode(code: RMCode, w: Sequence[int]) -> DecodeOutcome:
    """Majority-logic decoding of one word on the per-degree vote tables
    (RMCode.layers): reed_majority of w, as a Decoded codeword or FAIL."""
    c, msg, ok = reed_majority(code, w)
    if ok:
        return Decoded(tuple(c.tolist()), tuple(msg.tolist()))
    return FAIL


@lru_cache(maxsize=None)
def punctured_ordering(m: int) -> tuple[int, ...]:
    """Evaluation points minus the zero point, ordered as generator powers.

    Point indices double as GF(2^m) elements under the coefficient bitmap,
    so the i-th entry is simply the i-th power of the field generator.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    gf = build_gf2m(m)
    pts = []
    x = 1
    for _ in range((1 << m) - 1):
        pts.append(x)
        x = gf.mul(x, gf.generator)
    if len(set(pts)) != (1 << m) - 1 or x != 1:
        raise AssertionError("generator powers failed to cover the domain")
    return tuple(pts)


class PuncturedRMCode:
    """RM(r, m) with the zero point removed, in generator-power point order."""

    def __init__(self, full: RMCode):
        self.r = full.r
        self.m = full.m
        self.n = full.n - 1
        self.ordering = np.array(punctured_ordering(full.m))
        self.full = full

    @cached_property
    def shortened(self) -> CyclicCode:
        """The cyclic code of punctured codewords that vanish at the zero point,
        i.e. the dual of punctured RM(m-r-1, m), spanned by the nonconstant
        monomials' rows. A span not closed under shift raises in
        generator_from_spanning_set, and a rank drop raises here.
        """
        code = generator_from_spanning_set(
            2, self.n, self.full.evaluations[1:, self.ordering]
        )
        if code.k != self.full.k - 1:
            raise ValueError(f"shortening RM*({self.r}, {self.m}) drops its rank")
        return code

    def puncture(self, full_word: Sequence[int]) -> Word:
        return tuple(np.asarray(full_word)[self.ordering].tolist())

    def __repr__(self) -> str:
        return f"PuncturedRMCode(r={self.r}, m={self.m})"


@lru_cache(maxsize=None)
def build_punctured_rm(r: int, m: int) -> PuncturedRMCode:
    """Punctured RM(r, m); requires 1 <= r < m <= 12."""
    if not 1 <= r < m:
        raise ValueError("need 1 <= r < m")
    if m > 12:
        raise ValueError("m must be at most 12")
    return PuncturedRMCode(rm_code(r, m))


def _decode_lifts(
    pcode: PuncturedRMCode,
    w: Sequence[int],
    zero_values: tuple[int, ...],
    radius: Fraction | int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lift w to full length once per zero-point value, decode the lifts
    with one reed_majority call, and puncture the answers.

    Returns the punctured codewords, the messages, and whether each lift
    decoded to a codeword strictly within radius of w.
    """
    if len(w) != pcode.n:
        raise ValueError(f"word must have length {pcode.n}")
    w = np.asarray(w, dtype=np.int64)
    lifts = np.empty((len(zero_values), pcode.full.n), dtype=np.uint8)
    lifts[:, 0] = zero_values
    lifts[:, pcode.ordering] = w & 1
    cw, msg, ok = reed_majority(pcode.full, lifts)
    pcw = cw[:, pcode.ordering]
    # dist < radius in integers: comparing an array with a Fraction is per entry
    ok &= (pcw != w).sum(axis=1) * radius.denominator < radius.numerator
    return pcw, msg, ok


def _decoded(pcw: np.ndarray, msg: np.ndarray) -> Decoded:
    return Decoded(tuple(pcw.tolist()), tuple(msg.tolist()))


def punctured_rm_decode(
    pcode: PuncturedRMCode, w: Sequence[int], radius: Fraction | int
) -> DecodeOutcome:
    """Decode the punctured code by trying both values at the missing point.

    Both lifts go through the full-length majority decoder as one 2-row
    batch; results whose punctured codeword lies strictly within radius of w
    are collected, and the answer must be unique to count.
    """
    pcw, msg, ok = _decode_lifts(pcode, w, (0, 1), radius)
    pcw, msg = pcw[ok], msg[ok]
    if len(pcw) and (pcw == pcw[0]).all():
        return _decoded(pcw[0], msg[0])
    return FAIL


def shortened_dual_rm_decode(
    pcode: PuncturedRMCode, w: Sequence[int], radius: Fraction | int
) -> DecodeOutcome:
    """Decode the punctured RM(r', m) codewords that vanish at the zero point.

    The missing coordinate is known to be 0, so there is a single lift; the
    decoded polynomial must actually vanish at zero, i.e. have zero constant
    coefficient (message[0], the coefficient of the empty monomial), and the
    punctured result must lie strictly within radius.
    """
    pcw, msg, ok = _decode_lifts(pcode, w, (0,), radius)
    if ok[0] and msg[0, 0] == 0:
        return _decoded(pcw[0], msg[0])
    return FAIL
