"""Wozencraft-style codes from circulant codes, via the all-ones quotient.

For prime k with q a primitive root mod k, the ring F_q[x]/p_k(x) with
p_k = 1 + x + ... + x^(k-1) is a field H of size q^(k-1). A t-block
circulant code with first columns a_1, ..., a_{t-1} maps to the code
{ (m, alpha_1*m, ..., alpha_{t-1}*m) : m in H } with alpha_i = a_i mod p_k;
for t = 2 that is a Wozencraft code. Codewords of the source circulant code
project onto codewords of the target by folding out the top coefficient of
each block, and that projection cannot decrease balanced weight, which is
how the circulant code's balanced parameter becomes the target's distance.

Decoding reverses the projection: every possible folded-out top coefficient
is tried, each lifted word is decoded in the circulant code, and the first
fold that lands on a member strictly within half the balanced parameter is
the answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .algebra import Polynomial, QuotientFieldContext, quotient_mul, reduce_mod_pk
from .code_core import (
    FAIL,
    Decoded,
    Decoder,
    DecodeOutcome,
    GeneratorMatrixCode,
    Word,
    bounded_distance_decode,
    hamming_distance,
)
from .design_dc import (
    IdentityOverCirculants,
    SidonDCCode,
    build_sidon_dc,
    design_decode,
)
from .sidon import SidonSet, sidon_for_length


class TCirculantCode(IdentityOverCirculants):
    """Identity block over t-1 circulant blocks, with a decoder attached.

    balanced_d is a certified lower bound on hamming weight of the identity
    block plus balanced weights of the circulant blocks, over nonzero
    codewords. The attached decoder must recover any codeword from strictly
    fewer than balanced_d/2 errors.
    """

    def __init__(
        self,
        q: int,
        k: int,
        first_columns: Sequence[Sequence[int]],
        balanced_d: Fraction,
        decoder: Decoder,
    ):
        super().__init__(q, k, first_columns)
        self.balanced_d = Fraction(balanced_d)
        self.decoder = decoder

    def __repr__(self) -> str:
        return (
            f"TCirculantCode(q={self.q}, k={self.k}, t={self.t}, "
            f"balanced_d={self.balanced_d})"
        )


def tcirculant_from_sidon_dc(sdc: SidonDCCode) -> TCirculantCode:
    """Package a Sidon double-circulant code for the quotient transform.

    The balanced parameter is the certified min(d/b + 1, k/d). The attached
    decoder must handle balanced_d/2 errors: the majority decoder's radius
    d/(2b) sometimes falls short of that at small k, in which case an exact
    bounded-distance search over low-weight error patterns is attached
    instead.
    """
    target = sdc.balanced_bound / 2

    if sdc.decode_radius >= target:

        def decoder(w: Sequence[int]) -> DecodeOutcome:
            return design_decode(sdc, w)

    else:

        def decoder(w: Sequence[int]) -> DecodeOutcome:
            return bounded_distance_decode(sdc.code, w, target)

    return TCirculantCode(
        sdc.q,
        sdc.k,
        (sdc.circulant.first_column,),
        sdc.balanced_bound,
        decoder,
    )


class WeldonCode:
    """The code { (m, alpha_1*m, ..., alpha_{t-1}*m) : m in H } over F_q.

    Elements of H are length-(k-1) coefficient tuples; the block length is
    t*(k-1) and the dimension is k-1.
    """

    def __init__(
        self,
        ctx: QuotientFieldContext,
        t: int,
        alphas: Sequence[Sequence[int]],
    ):
        if t != len(alphas) + 1:
            raise ValueError("need exactly t-1 multipliers")
        self.ctx = ctx
        self.t = t
        self.alphas = tuple(tuple(int(v) % ctx.q for v in a) for a in alphas)
        if any(len(a) != ctx.k - 1 for a in self.alphas):
            raise ValueError(f"multipliers must have length {ctx.k - 1}")

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def k(self) -> int:
        return self.ctx.k

    @property
    def n(self) -> int:
        return self.t * (self.ctx.k - 1)

    @property
    def dimension(self) -> int:
        return self.ctx.k - 1

    @cached_property
    def code(self) -> GeneratorMatrixCode:
        units = []
        for j in range(self.dimension):
            unit = tuple(int(i == j) for i in range(self.dimension))
            units.append(weldon_encode(self, unit))
        return GeneratorMatrixCode(self.q, units)

    def __repr__(self) -> str:
        return f"WeldonCode(q={self.q}, k={self.k}, t={self.t})"


def transform_circulant_to_weldon(d: TCirculantCode) -> WeldonCode:
    """Map circulant first columns to their images in H = F_q[x]/p_k.

    A column may reduce to zero (e.g. the all-ones column, a multiple of
    p_k); the resulting block is degenerate but the code stays well formed,
    its weight carried by block 0 alone.
    """
    ctx = QuotientFieldContext(d.q, d.k)
    alphas = tuple(
        reduce_mod_pk(Polynomial(col, ctx.field), ctx) for col in d.first_columns
    )
    return WeldonCode(ctx, d.t, alphas)


def weldon_encode(w: WeldonCode, m: Sequence[int]) -> Word:
    if len(m) != w.dimension:
        raise ValueError(f"message must have length {w.dimension}")
    msg = tuple(int(v) % w.q for v in m)
    out = list(msg)
    for alpha in w.alphas:
        out.extend(quotient_mul(alpha, msg, w.ctx))
    return tuple(out)


def lift_word(c: Sequence[int], beta: int, q: int) -> Word:
    """Append a zero and add beta to every position."""
    beta %= q
    return tuple((int(v) + beta) % q for v in c) + (beta,)


def fold_word(c: Sequence[int], q: int) -> Word:
    """Drop the last entry and subtract it from the rest; inverse of lift."""
    if not len(c):
        raise ValueError("cannot fold an empty word")
    last = int(c[-1])
    return tuple((int(v) - last) % q for v in c[:-1])


def weldon_membership(w: WeldonCode, c: Sequence[int]) -> bool:
    """Whether block 0, read as m in H, reproduces every other block."""
    blk = w.dimension
    if len(c) != w.t * blk:
        raise ValueError(f"word must have length {w.t * blk}")
    m = tuple(int(v) % w.q for v in c[:blk])
    for i, alpha in enumerate(w.alphas, start=1):
        if tuple(int(v) % w.q for v in c[i * blk : (i + 1) * blk]) != quotient_mul(
            alpha, m, w.ctx
        ):
            return False
    return True


def weldon_decode(
    w: WeldonCode,
    d: TCirculantCode,
    word: Sequence[int],
    trace: Optional[list] = None,
) -> DecodeOutcome:
    """Decode by undoing the fold: guess the folded-out top coefficients.

    For each tuple (beta_1, ..., beta_{t-1}), lift block 0 with 0 and block i
    with beta_i, decode the lift in the circulant code, fold the result back
    down, and accept the first fold that is a member strictly within
    balanced_d/2 of the input. When trace is a list, every beta attempt is
    appended as (betas, success).
    """
    if (w.q, w.k, w.t) != (d.q, d.k, d.t):
        raise ValueError("Weldon code and circulant code parameters differ")
    expected = tuple(
        reduce_mod_pk(Polynomial(col, w.ctx.field), w.ctx)
        for col in d.first_columns
    )
    if expected != w.alphas:
        raise ValueError("Weldon code is not the transform of this circulant code")
    blk = w.dimension
    if len(word) != w.t * blk:
        raise ValueError(f"word must have length {w.t * blk}")
    q = w.q
    blocks = [tuple(word[i * blk : (i + 1) * blk]) for i in range(w.t)]
    radius = d.balanced_d / 2
    for betas in itertools.product(range(q), repeat=w.t - 1):
        lifted = list(lift_word(blocks[0], 0, q))
        for beta, block in zip(betas, blocks[1:]):
            lifted.extend(lift_word(block, beta, q))
        out = d.decoder(tuple(lifted))
        if out is not FAIL:
            c_blocks = [out.codeword[i * w.k : (i + 1) * w.k] for i in range(w.t)]
            candidate = tuple(c_blocks[0][:-1])
            for cb in c_blocks[1:]:
                candidate += fold_word(cb, q)
            if (
                weldon_membership(w, candidate)
                and Fraction(hamming_distance(candidate, word)) < radius
            ):
                if trace is not None:
                    trace.append((betas, True))
                return Decoded(candidate, candidate[:blk])
        if trace is not None:
            trace.append((betas, False))
    return FAIL


def build_wozencraft(
    q: int,
    k: int,
    sidon_elements: Optional[Sequence[int]] = None,
) -> tuple[WeldonCode, TCirculantCode]:
    """End-to-end convenience: Sidon set -> circulant code -> quotient code.

    When no Sidon set is given, the largest quadratic-construction set
    fitting in [0, k) is used (which requires k >= 8).
    """
    if sidon_elements is None:
        s: SidonSet = sidon_for_length(k)
    else:
        s = SidonSet(tuple(sorted(int(v) for v in sidon_elements)), k)
    sdc = build_sidon_dc(q, k, s)
    d = tcirculant_from_sidon_dc(sdc)
    return transform_circulant_to_weldon(d), d
