"""Binary Reed-Muller codes, majority-logic decoding, and punctured variants.

RM(r, m) consists of the evaluation vectors of multilinear polynomials of
degree at most r in m variables over F_2. Point i of the evaluation domain
is the assignment with variable x_j set to bit j of i, and a monomial is
held as the bitmask of its variable set, so "monomial T evaluates to 1 at
point i" is just T & i == T; RMCode.evaluations tabulates that rule once
and every encoder and decoder here reads the table.

Removing the zero point and ordering the remaining points along powers of a
multiplicative generator of GF(2^m) turns RM(r, m) into a cyclic code. That
punctured view, and a decoder for it, is what the double-circulant
construction downstream consumes.
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
        """
        t = np.array(self.monomials)[:, None]
        return ((t & np.arange(self.n)) == t).astype(np.uint8)

    @cached_property
    def cosets(self) -> np.ndarray:
        """k x n point indices: row j lists the 2^(m-l) cosets of degree-l
        monomial j's variable subcube, 2^l consecutive points each.

        A coset is the points that agree outside the monomial's variables,
        so sorting the points by those bits groups each coset together.
        """
        outside = (self.n - 1) ^ np.array(self.monomials)[:, None]
        return np.argsort(np.arange(self.n) & outside, axis=1)

    @cached_property
    def generator_code(self) -> GeneratorMatrixCode:
        return GeneratorMatrixCode(2, self.evaluations)

    def __repr__(self) -> str:
        return f"RMCode(r={self.r}, m={self.m})"


@lru_cache(maxsize=None)
def rm_code(r: int, m: int) -> RMCode:
    return RMCode(r, m)


def rm_encode(code: RMCode, coeffs: Sequence[int]) -> Word:
    """Evaluation vector of the polynomial with the given monomial
    coefficients, in the code's monomial order."""
    if len(coeffs) != code.k:
        raise ValueError(f"need {code.k} coefficients")
    return tuple(((np.asarray(coeffs) & 1) @ code.evaluations % 2).tolist())


def reed_decode(code: RMCode, w: Sequence[int]) -> DecodeOutcome:
    """Majority-logic decoding, highest degree layer first.

    The coefficient of a degree-l monomial T equals the sum of the codeword
    over any coset of T's variable subcube, so each of the 2^(m-l) cosets
    casts one vote; below half distance the correct value always has a
    strict majority. Ties vote 0. After each layer the decoded part is
    subtracted. Returns Fail when the final residual reaches weight
    2^(m-r-1), i.e. the word was not within the guaranteed radius.
    """
    if len(w) != code.n:
        raise ValueError(f"word must have length {code.n}")
    received = np.asarray(w, dtype=np.int64) & 1
    working = received.copy()
    msg = np.zeros(code.k, dtype=np.int64)
    stop = code.k
    for ell in range(code.r, -1, -1):
        start = stop - comb(code.m, ell)
        cosets = code.cosets[start:stop].reshape(stop - start, -1, 1 << ell)
        votes = working[cosets].sum(axis=2) & 1
        msg[start:stop] = 2 * votes.sum(axis=1) > votes.shape[1]
        working ^= msg[start:stop] @ code.evaluations[start:stop] & 1
        stop = start
    # accept only strictly within half distance: residual < 2^(m-r)/2
    if 2 * working.sum() >= 1 << (code.m - code.r):
        return FAIL
    return Decoded(tuple((received ^ working).tolist()), tuple(msg.tolist()))


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

    def __init__(self, full: RMCode, cyclic: CyclicCode):
        self.r = full.r
        self.m = full.m
        self.n = full.n - 1
        self.ordering = np.array(punctured_ordering(full.m))
        self.full = full
        self.cyclic = cyclic

    def puncture(self, full_word: Sequence[int]) -> Word:
        return tuple(np.asarray(full_word)[self.ordering].tolist())

    def __repr__(self) -> str:
        return f"PuncturedRMCode(r={self.r}, m={self.m})"


@lru_cache(maxsize=None)
def build_punctured_rm(r: int, m: int) -> PuncturedRMCode:
    """Punctured RM(r, m); requires 1 <= r < m <= 12.

    Both failure modes that would falsify the cyclic-structure claim are
    fatal: a shift-closure failure raises in generator_from_spanning_set,
    and a rank drop under puncturing raises here.
    """
    if not 1 <= r < m:
        raise ValueError("need 1 <= r < m")
    if m > 12:
        raise ValueError("m must be at most 12")
    full = rm_code(r, m)
    pcols = full.evaluations[:, punctured_ordering(m)]
    cyc = generator_from_spanning_set(2, (1 << m) - 1, pcols)
    if cyc.k != full.k:
        raise ValueError(f"puncturing RM({r}, {m}) drops its rank")
    return PuncturedRMCode(full, cyc)


def _decode_lift(
    pcode: PuncturedRMCode, w: Sequence[int], zero_value: int, radius: Fraction | int
) -> DecodeOutcome:
    """Lift w to full length with zero_value at the zero point, decode it
    with reed_decode, and puncture the answer; it counts only strictly
    within radius of w."""
    if len(w) != pcode.n:
        raise ValueError(f"word must have length {pcode.n}")
    w = np.asarray(w, dtype=np.int64)
    full_w = np.full(pcode.full.n, zero_value, dtype=np.int64)
    full_w[pcode.ordering] = w & 1
    out = reed_decode(pcode.full, full_w)
    if out is FAIL:
        return FAIL
    pcw = np.asarray(out.codeword)[pcode.ordering]
    if int((pcw != w).sum()) < radius:
        return Decoded(tuple(pcw.tolist()), out.message)
    return FAIL


def punctured_rm_decode(
    pcode: PuncturedRMCode, w: Sequence[int], radius: Fraction | int
) -> DecodeOutcome:
    """Decode the punctured code by trying both values at the missing point.

    Each lift is decoded with the full-length majority decoder; results whose
    punctured codeword lies strictly within radius of w are collected, and
    the answer must be unique to count.
    """
    hits: dict[Word, Decoded] = {}
    for zero_value in (0, 1):
        out = _decode_lift(pcode, w, zero_value, radius)
        if out is not FAIL:
            hits[out.codeword] = out
    return next(iter(hits.values())) if len(hits) == 1 else FAIL


def shortened_dual_rm_decode(
    pcode: PuncturedRMCode, w: Sequence[int], radius: Fraction | int
) -> DecodeOutcome:
    """Decode the punctured RM(r', m) codewords that vanish at the zero point.

    The missing coordinate is known to be 0, so there is a single lift; the
    decoded polynomial must actually vanish at zero, i.e. have zero constant
    coefficient (message[0], the coefficient of the empty monomial), and the
    punctured result must lie strictly within radius.
    """
    out = _decode_lift(pcode, w, 0, radius)
    if out is FAIL or out.message[0] != 0:
        return FAIL
    return out
