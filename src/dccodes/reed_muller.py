"""Binary Reed-Muller codes, majority-logic decoding, and punctured variants.

RM(r, m) consists of the evaluation vectors of multilinear polynomials of
degree at most r in m variables over F_2. Point i of the evaluation domain
is the assignment with variable x_j set to bit j of i, and a monomial is
held as the bitmask of its variable set, so "monomial T evaluates to 1 at
point i" is just T & i == T; RMCode.evaluations tabulates that rule once
and every encoder here reads the table.

Majority-logic decoding holds a word as one Python int, bit i for point
i. Folding along variable j, g ^ g >> 2^j, puts at every point whose bit j
is 0 the XOR of it and its neighbour along x_j; after the folds along every
variable of a monomial S, each point whose S-bits are all 0 holds the
XOR-fold of its coset of S's variable subcube, which is that coset's vote.
A popcount under the mask of those points counts the votes. The fold for S
extends the fold for S minus its top variable, so the monomials of a degree
layer share their prefix folds; RMCode.schedule lays these steps out once
per code (reed_majority).

Removing the zero point and ordering the remaining points along powers of a
multiplicative generator of GF(2^m) turns RM(r, m) into a cyclic code. That
punctured view, its shortened cyclic code, and decoders for both are what
the double-circulant construction downstream consumes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .algebra import build_gf2m, gf2_bits, pack_bits, unpack_bits
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
        Operands are uint16 (m <= 16) and the bool result is viewed as uint8,
        so the only k x n temporaries are one byte or two per entry.
        """
        t = np.array(self.monomials, dtype=np.uint16)[:, None]
        return ((t & np.arange(self.n, dtype=np.uint16)) == t).view(np.uint8)

    @cached_property
    def schedule(self) -> tuple[tuple, ...]:
        """Fold schedule per degree layer, highest degree first.

        Each layer is (steps, votes, t). The folds of a word start as [word]
        and step (src, shift) appends fold src folded once more, along the
        variable j with shift = 2^j. Vote (i, src, shift, zeros, evaluation)
        folds fold src along the top variable of the i-th monomial S and
        counts the ones at the points whose S-bits are all 0 (the int
        zeros); a count above t, half the 2^(m-l) cosets, sets coefficient
        i, and XOR-ing the evaluation int of S subtracts it. The empty
        monomial folds by shift = n, which leaves the word as it is. Every
        mask is an AND of single-variable masks, so the set-up makes no pass
        over the points.
        """
        m, n = self.m, self.n
        full = (1 << n) - 1
        # the points where x_j = 1: runs of 2^j zeros and 2^j ones, repeated
        ones = []
        for j in range(m):
            run = 1 << j
            ones.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
        # monomial -> (points where its variables are all 0, all 1)
        masks = {0: (full, full)}
        for s in self.monomials[1:]:
            j = s.bit_length() - 1
            zeros, evaluation = masks[s ^ (1 << j)]
            masks[s] = (zeros & ~ones[j], evaluation & ones[j])
        layers = []
        stop = self.k
        for ell in range(self.r, -1, -1):
            start = stop - comb(m, ell)
            index, steps, votes = {0: 0}, [], []
            for i in range(start, stop):
                s = self.monomials[i]
                j = s.bit_length() - 1
                prefix = s ^ (1 << j) if s else 0
                chain = []
                while prefix not in index:
                    top = prefix.bit_length() - 1
                    chain.append((prefix, top))
                    prefix ^= 1 << top
                src = index[prefix]
                for prefix, top in reversed(chain):
                    steps.append((src, 1 << top))
                    src = index[prefix] = len(steps)
                votes.append((i, src, 1 << j if s else n, *masks[s]))
            layers.append((tuple(steps), tuple(votes), (1 << (m - ell)) >> 1))
            stop = start
        return tuple(layers)

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
    coefficients, in the code's monomial order: the XOR of the table rows
    of the odd coefficients, reduced in place, so the table is not copied."""
    if len(coeffs) != code.k:
        raise ValueError(f"need {code.k} coefficients")
    odd = gf2_bits(coeffs).view(bool)[:, None]
    return tuple(
        np.bitwise_xor.reduce(code.evaluations, axis=0, where=odd, initial=0).tolist()
    )


def _majority(code: RMCode, v: int) -> tuple[int, bytearray]:
    """Majority-logic decoding of the word packed into v: the residual left
    after every layer is subtracted, and the message as k 0/1 bytes."""
    msg = bytearray(code.k)
    for steps, votes, t in code.schedule:
        folds = [v]
        for src, shift in steps:
            g = folds[src]
            folds.append(g ^ g >> shift)
        for i, src, shift, zeros, evaluation in votes:
            g = folds[src]
            if ((g ^ g >> shift) & zeros).bit_count() > t:
                msg[i] = 1
                v ^= evaluation
    return v, msg


def reed_majority(code: RMCode, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Majority-logic decoding of a word, or of every row of an (N, n) array.

    Highest degree layer first: the coefficient of a degree-l monomial T
    equals the sum of the codeword over any coset of T's variable subcube,
    so each of the 2^(m-l) cosets casts one vote, the XOR-fold of its
    points (code.schedule); below half distance the correct value always
    has a strict majority. Ties vote 0. After each layer the decoded part is
    subtracted. Returns the codewords (uint8, shaped like words), the
    messages, and whether the final residual stays strictly under weight
    2^(m-r-1), i.e. the word was within the guaranteed radius. Rows are
    decoded one at a time, each packed into one int.
    """
    received = gf2_bits(words)
    if received.shape[-1] != code.n:
        raise ValueError(f"word must have length {code.n}")
    size = (code.n + 7) // 8
    packed = np.packbits(received.reshape(-1, code.n), axis=1, bitorder="little")
    packed = packed.tobytes()
    codewords, messages, ok = bytearray(), bytearray(), []
    for start in range(0, len(packed), size):
        v = int.from_bytes(packed[start : start + size], "little")
        residual, msg = _majority(code, v)
        codewords += (v ^ residual).to_bytes(size, "little")
        messages += msg
        # accept only strictly within half distance: residual < 2^(m-r)/2
        ok.append(2 * residual.bit_count() < 1 << (code.m - code.r))
    lead = received.shape[:-1]
    cw = np.frombuffer(codewords, dtype=np.uint8).reshape(-1, size)
    cw = np.unpackbits(cw, axis=1, count=code.n, bitorder="little")
    msgs = np.frombuffer(messages, dtype=np.uint8).reshape(lead + (code.k,))
    # [()] makes the accept mask of one word a scalar
    return cw.reshape(received.shape), msgs, np.array(ok).reshape(lead)[()]


def reed_decode(code: RMCode, w: Sequence[int]) -> DecodeOutcome:
    """Majority-logic decoding of one word (reed_majority), as a Decoded
    codeword or FAIL."""
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
) -> Iterator[tuple[int, bytearray]]:
    """Decode the lifts of w, one per zero-point value, and yield each
    answer accepted, in the order of zero_values and only as asked for.

    w is scattered into point order (pcode.ordering) and packed into one int
    once; a lift sets bit 0, the zero point, and goes through _majority as
    it is. The residual decides acceptance: its weight must stay under half
    of 2^(m-r), the Reed radius, and its weight off bit 0, the distance of
    the punctured answer to w, strictly under radius, compared in integers.
    An answer is the full-length codeword as an int and the message bytes.
    """
    if len(w) != pcode.n:
        raise ValueError(f"word must have length {pcode.n}")
    full = pcode.full
    lift = np.zeros(full.n, dtype=np.uint8)
    lift[pcode.ordering] = gf2_bits(w)
    v = pack_bits(lift)
    for z in zero_values:
        residual, msg = _majority(full, v | z)
        if (
            2 * residual.bit_count() < 1 << (full.m - full.r)
            and (residual >> 1).bit_count() * radius.denominator < radius.numerator
        ):
            yield v ^ z ^ residual, msg


def _decoded(pcode: PuncturedRMCode, c: int, msg: bytearray) -> Decoded:
    """The Decoded of a full-length codeword int, punctured, and its message."""
    pcw = unpack_bits(c, pcode.full.n)[pcode.ordering]
    return Decoded(tuple(pcw.tobytes()), tuple(msg))


def punctured_rm_decode(
    pcode: PuncturedRMCode, w: Sequence[int], radius: Fraction | int
) -> DecodeOutcome:
    """Decode the punctured code by trying the values at the missing point.

    The lift with 0 goes first, and the lift with 1 is decoded only if the
    lift with 0 is not accepted. That loses no answer and lets through no
    ambiguous one, at any radius: an accepted lift lies within 2^(m-r-1) - 1
    of its codeword (the Reed radius), and the two lifts differ in one
    point, so the codewords of two accepted lifts would lie within
    2^(m-r) - 1 of each other, under the distance 2^(m-r) of RM(r, m). They
    are one codeword with one message, and the first lift accepted gives it.
    """
    for c, msg in _decode_lifts(pcode, w, (0, 1), radius):
        return _decoded(pcode, c, msg)
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
    for c, msg in _decode_lifts(pcode, w, (0,), radius):
        if msg[0] == 0:
            return _decoded(pcode, c, msg)
    return FAIL
