"""Wozencraft-style codes from circulant codes, via the all-ones quotient.

For prime k with q a primitive root mod k, the ring F_q[x]/p_k(x) with
p_k = 1 + x + ... + x^(k-1) is a field H of size q^(k-1). A t-block
circulant code with first columns a_1, ..., a_{t-1} maps to the code
{ (m, alpha_1*m, ..., alpha_{t-1}*m) : m in H } with alpha_i = a_i mod p_k;
for t = 2 that is a Wozencraft code. Codewords of the source circulant code
project onto codewords of the target by folding out the top coefficient of
each block, and that projection cannot decrease balanced weight, which is
how the circulant code's balanced parameter becomes the target's distance.

The target code is a view of its source, not a second code. Reduction mod
p_k is a ring map and p_k divides x^k - 1, so alpha_i*m = fold(A_i*(m, 0)),
where A_i is the source's own k x k circulant with first column a_i: a_i and
the lift of its fold agree mod p_k, and the fold reduces mod p_k. Encoding,
membership and the generator are one CirculantMatrix.act per source block,
followed by a fold, with no quotient-ring product.

Decoding reverses the projection: every possible folded-out top coefficient
is tried, each lifted word is decoded in the circulant code, and the first
fold that lands on a member strictly within half the balanced parameter is
the answer. The circulant decoder is always polynomial time: the majority
decoder, or the majority decoder after one trial symbol change when its
radius falls one error short of half the balanced parameter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    QuotientFieldContext,
    quotient_mul,  # unused here; the benchmark's tracer hooks this name
    reduce_mod_pk,  # unused here; the benchmark's tracer hooks this name
)
from .code_core import (
    FAIL,
    Decoded,
    Decoder,
    DecodeOutcome,
    GeneratorMatrixCode,
    Word,
    bounded_distance_decode,  # unused here; the benchmark's tracer hooks this name
    capability,
)
from .design_dc import (
    IdentityOverCirculants,
    SidonDCCode,
    build_sidon_dc,
    design_decode,
    majority_decode,
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

    @cached_property
    def alphas(self) -> tuple[tuple[int, ...], ...]:
        """The first columns reduced mod p_k (a fold): the Weldon multipliers."""
        return tuple(fold_word(col, self.q) for col in self.first_columns)

    def __repr__(self) -> str:
        return (
            f"TCirculantCode(q={self.q}, k={self.k}, t={self.t}, "
            f"balanced_d={self.balanced_d})"
        )


# Trial symbols per flip_one_decode batch: FLIP_BATCH // n words of length n.
FLIP_BATCH = 1 << 18


def flip_one_decode(
    sdc: SidonDCCode, w: Sequence[int], radius: Fraction
) -> DecodeOutcome:
    """Majority decoding, retried after each single-symbol change of w.

    Runs design_decode on w and, if that misses, majority_decode on the
    n*(q-1) words that differ from w in one symbol, FLIP_BATCH // n of them
    per batch; the first codeword strictly within radius of w is the answer,
    in the order of positions and then of the added symbol (a Chase-style
    trial-pattern decoder, Chase 1972), so no batch after the first hit runs.

    Exact for fewer than radius errors whenever radius <= balanced_d/2,
    and so radius <= d/(2b) + 1/2 since balanced_d <= d/b + 1. Sketch: let
    w = c + e with e = wt(e) < radius. Then e <= ceil(radius) - 1 <=
    ceil(d/(2b)), so either e < d/(2b) and the majority decoder returns c
    from w itself, or e - 1 < d/(2b) and the change that undoes one error
    leaves a word it decodes to c, which is within radius of w. Nothing else
    gets accepted first: every nonzero codeword has weight at least its
    balanced weight, which is at least balanced_d >= 2*radius, so c is the
    only codeword strictly within radius of w.
    """
    q = sdc.q
    word = np.asarray(w, dtype=np.int64) % q

    def within(c: np.ndarray) -> np.ndarray:
        dist = np.count_nonzero(c != word, axis=-1)
        return dist * radius.denominator < radius.numerator

    out = design_decode(sdc, word)
    if out is not FAIL and within(np.array(out.codeword)):
        return out
    # trial r adds r % (q-1) + 1 at position r // (q-1): the serial order
    n = len(word)
    trials = n * (q - 1)
    step = max(1, FLIP_BATCH // n)
    for start in range(0, trials, step):
        r = np.arange(start, min(start + step, trials))
        batch = np.tile(word, (len(r), 1))
        batch[np.arange(len(r)), r // (q - 1)] += r % (q - 1) + 1
        c, ok = majority_decode(sdc, batch)
        hits = np.flatnonzero(ok & within(c))
        if hits.size:
            c = tuple(c[hits[0]].tolist())
            return Decoded(c, c[: sdc.k])
    return FAIL


def tcirculant_from_sidon_dc(sdc: SidonDCCode) -> TCirculantCode:
    """Package a Sidon double-circulant code for the quotient transform.

    The balanced parameter is the certified min(d/b + 1, k/d), and the
    attached decoder must correct every error count strictly below
    balanced_d/2. Capabilities are compared as integers (capability): when
    the majority decoder's radius d/(2b) reaches that many errors (always
    for b=1 and odd d), design_decode is attached. Otherwise its capability
    is exactly one short, since balanced_d/2 <= d/(2b) + 1/2, and
    flip_one_decode closes the gap. Both run in polynomial time.
    """
    target = sdc.balanced_bound / 2

    if capability(sdc.decode_radius) >= capability(target):

        def decoder(w: Sequence[int]) -> DecodeOutcome:
            return design_decode(sdc, w)

    else:

        def decoder(w: Sequence[int]) -> DecodeOutcome:
            return flip_one_decode(sdc, w, target)

    return TCirculantCode(
        sdc.q,
        sdc.k,
        (sdc.circulant.first_column,),
        sdc.balanced_bound,
        decoder,
    )


class WeldonCode:
    """The code { (m, alpha_1*m, ..., alpha_{t-1}*m) : m in H } over F_q.

    A view of its source circulant code: alpha_i is the fold of the source's
    i-th first column, and block i of a codeword is the fold of A_i*(m, 0)
    with A_i the source's i-th circulant. Elements of H are length-(k-1)
    coefficient tuples; the block length is t*(k-1) and the dimension is k-1.
    A column may fold to zero (e.g. the all-ones column, a multiple of p_k);
    that block is degenerate but the code stays well formed, its weight
    carried by block 0 alone. Building the view rejects a k for which H is
    not a field.
    """

    def __init__(self, source: TCirculantCode):
        self.source = source
        self.ctx = QuotientFieldContext(source.q, source.k)
        self.alphas = source.alphas

    @property
    def q(self) -> int:
        return self.source.q

    @property
    def k(self) -> int:
        return self.source.k

    @property
    def t(self) -> int:
        return self.source.t

    @property
    def n(self) -> int:
        return self.t * (self.k - 1)

    @property
    def dimension(self) -> int:
        return self.k - 1

    def fold_encode(self, m: np.ndarray) -> np.ndarray:
        """(m, fold(A_1*(m, 0)), ..., fold(A_(t-1)*(m, 0))) as an int64 array.

        m is a message, or an (N, k-1) array of them, with entries in [0, q).
        """
        lifted = lift_word(m, 0, self.q)
        blocks = [
            fold_word(a.act(lifted, self.q), self.q) for a in self.source.circulants
        ]
        return np.concatenate([m, *blocks], axis=-1)

    @cached_property
    def code(self) -> GeneratorMatrixCode:
        """Generator whose column j is the codeword of the j-th unit message."""
        eye = np.eye(self.dimension, dtype=np.int64)
        return GeneratorMatrixCode(self.q, self.fold_encode(eye))

    def __repr__(self) -> str:
        return f"WeldonCode(q={self.q}, k={self.k}, t={self.t})"


def weldon_encode(w: WeldonCode, m: Sequence[int]) -> Word:
    if len(m) != w.dimension:
        raise ValueError(f"message must have length {w.dimension}")
    msg = np.asarray(m, dtype=np.int64) % w.q
    return tuple(w.fold_encode(msg).tolist())


def lift_word(c, beta, q: int):
    """Append a zero and add beta to every position.

    c is a word (returns a tuple) or an array of rows (returns an array, and
    beta may hold one value per row as a column).
    """
    arr = np.asarray(c, dtype=np.int64)
    pad = np.zeros(arr.shape[:-1] + (1,), dtype=np.int64)
    out = (np.concatenate([arr, pad], axis=-1) + beta) % q
    return out if isinstance(c, np.ndarray) else tuple(out.tolist())


def fold_word(c, q: int):
    """Drop the last entry and subtract it from the rest; inverse of lift.

    Like lift_word, it takes a word or an array of rows.
    """
    arr = np.asarray(c, dtype=np.int64)
    if not arr.shape[-1]:
        raise ValueError("cannot fold an empty word")
    out = (arr[..., :-1] - arr[..., -1:]) % q
    return out if isinstance(c, np.ndarray) else tuple(out.tolist())


def weldon_membership(w: WeldonCode, c: Sequence[int]) -> bool:
    """Whether block 0, read as m in H, reproduces every other block."""
    if len(c) != w.n:
        raise ValueError(f"word must have length {w.n}")
    arr = np.asarray(c, dtype=np.int64) % w.q
    return bool(np.array_equal(w.fold_encode(arr[: w.dimension]), arr))


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
    balanced_d/2 of the input. The circulant decoder gets int64 arrays;
    tuples are made only for the Decoded returned. When trace is a list,
    every beta attempt is appended as (betas, success).
    """
    if (w.q, w.k, w.t) != (d.q, d.k, d.t):
        raise ValueError("Weldon code and circulant code parameters differ")
    if d.alphas != w.alphas:
        raise ValueError("Weldon code is not the transform of this circulant code")
    blk = w.dimension
    if len(word) != w.t * blk:
        raise ValueError(f"word must have length {w.t * blk}")
    q = w.q
    arr = np.asarray(word, dtype=np.int64)
    blocks = arr.reshape(w.t, blk)
    radius = d.balanced_d / 2
    for betas in itertools.product(range(q), repeat=w.t - 1):
        lifted = lift_word(blocks, np.array((0,) + betas)[:, None], q)
        out = d.decoder(lifted.ravel())
        if out is not FAIL:
            c_blocks = np.asarray(out.codeword, dtype=np.int64).reshape(w.t, w.k)
            # block 0 is truncated, not folded: its lift appended a 0
            folded = [c_blocks[0, :-1], fold_word(c_blocks[1:], q).ravel()]
            candidate = np.concatenate(folded)
            dist = np.count_nonzero(candidate != arr)
            if (
                weldon_membership(w, candidate)
                and dist * radius.denominator < radius.numerator
            ):
                if trace is not None:
                    trace.append((betas, True))
                c = tuple(candidate.tolist())
                return Decoded(c, c[:blk])
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
    return WeldonCode(d), d
