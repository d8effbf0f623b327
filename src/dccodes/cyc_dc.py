"""Binary double-circulant codes built from a cyclic code's generator.

The circulant block's first column is the coefficient vector of the cyclic
code's generator g, so the second codeword block is g(x)*m(x) mod x^k - 1:
always a member of the base cyclic code. Decoding composes a decoder for the
base code with one for its dual: the second block pins down m up to a
multiple of the check polynomial, and the reversed first-block residue is a
dual codeword that the dual decoder recovers. Dividing the second block by g
is one product with the check polynomial h (CyclicCode.quotient), on the same
circulant kernel as encoding.

The shipped instantiation takes the base code to be the dual of a punctured
Reed-Muller code, read off the shortened rows of the other punctured code,
and CyclicDCCode holds majority-logic stage decoders for both sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    gf2_bits,
    gf2_circulant,
    pack_bits,
    poly_divmod,  # unused here; the benchmark's tracer hooks this name
    unpack_bits,
)
from .code_core import (
    FAIL,
    Decoded,
    DecodeOutcome,
    Word,
    _balanced_weights,
    _min_nonzero,
    _require_budget,
)
from .cyclic import CyclicCode
from .design_dc import IdentityOverCirculants
from .reed_muller import (
    build_punctured_rm,
    punctured_rm_decode,
    shortened_dual_rm_decode,
)

# A stage decoder receives a word (any int sequence; cyc_dc_decode passes
# 0/1 arrays) and a strict rational radius and returns Decoded or FAIL. The
# radius is the caller's promise about the error weight.
CyclicDecoder = Callable[[Sequence[int], Fraction], DecodeOutcome]


class CyclicDCCode(IdentityOverCirculants):
    """Identity-over-circulant code whose circulant column is g's coefficients.

    The base code must be binary, as cyc_dc_decode works on packed bits. d
    and d_perp are certified distance parameters of the base code and its
    dual, which decoder and dual_decoder decode; the composed decoder
    corrects strictly below min(d, d_perp)/2 errors and its final check uses
    exactly that radius.
    """

    def __init__(
        self,
        base: CyclicCode,
        d: int,
        d_perp: int,
        decoder: Optional[CyclicDecoder],
        dual_decoder: Optional[CyclicDecoder],
    ):
        if base.q != 2:
            raise ValueError("the base cyclic code must be binary")
        if decoder is None or dual_decoder is None:
            raise ValueError("need both a base decoder and a dual decoder")
        if d < 1 or d_perp < 1:
            raise ValueError("distance parameters must be positive")
        super().__init__(base.q, base.n, [np.pad(base.g, (0, base.n - len(base.g)))])
        self.base = base
        self.d = d
        self.d_perp = d_perp
        self.decoder = decoder
        self.dual_decoder = dual_decoder
        # the stage radii, made once so that no decode builds a Fraction
        self.stage_radii = (Fraction(d, 2), Fraction(d_perp, 2))
        self.circulant = self.circulants[0]
        self.a = self.circulant.first_column

    @property
    def d_prime(self) -> int:
        return min(self.d, self.d_perp)

    @property
    def decode_radius(self) -> Fraction:
        return Fraction(self.d_prime, 2)

    def __repr__(self) -> str:
        return (
            f"CyclicDCCode(q={self.q}, k={self.k}, d={self.d}, "
            f"d_perp={self.d_perp})"
        )


def cyc_dc_encode(code: CyclicDCCode, m: Sequence[int]) -> Word:
    """Codeword (m, g*m mod x^k - 1)."""
    return code.encode(m)


def cyc_dc_decode(code: CyclicDCCode, w: Sequence[int]) -> DecodeOutcome:
    """Two-stage decoding of the identity-over-circulant code.

    Stage 1 decodes the second block inside the base cyclic code and divides
    by g through the check polynomial h (CyclicCode.quotient); a stage-1
    answer outside the base code is a Fail. Stage 2 subtracts the quotient
    from the first block, reverses it, and decodes in the dual code. The two
    stages pin down the message, and a final strict distance check against
    min(d, d_perp)/2 guards the re-encoded output. The word is read into
    bits once, both stage decoders get 0/1 arrays, and the re-encode and the
    distance check run on packed ints; tuples are made only for the Decoded
    returned.
    """
    k = code.k
    if len(w) != 2 * k:
        raise ValueError(f"word must have length {2 * k}")
    bits = gf2_bits(w)
    w0, w1 = bits[:k], bits[k:]

    radius1, radius0 = code.stage_radii
    out1 = code.decoder(w1, radius1)
    if out1 is FAIL:
        return FAIL
    r = code.base.quotient(out1.codeword)
    if r is None:
        return FAIL
    r = r.astype(np.uint8)

    out0 = code.dual_decoder((w0 ^ r)[::-1], radius0)
    if out0 is FAIL:
        return FAIL

    msg = pack_bits(gf2_bits(out0.codeword[::-1]) ^ r)
    cw = msg | gf2_circulant(code.circulant.terms, msg, k) << k
    if 2 * (cw ^ pack_bits(bits)).bit_count() < code.d_prime:
        c = tuple(unpack_bits(cw, 2 * k).tobytes())
        return Decoded(c, c[:k])
    return FAIL


def d_balanced_check(base: CyclicCode, d: int) -> bool:
    """Every nonzero codeword of the base code has balanced weight >= d.

    Exhaustive over the base code's q^k codewords, budget-guarded.
    """
    code = base.generator_code
    _require_budget(code.q, code.k, "d-balanced check")
    return _min_nonzero(code, lambda block: _balanced_weights(block, code.q)) >= d


def build_rm_dual_dc(m: int, r: int | None = None) -> CyclicDCCode:
    """The shipped instantiation: base code = dual of punctured RM(r, m).

    Defaults to r = m // 2. The dual of the punctured RM(r, m) code is the
    set of punctured RM(m-r-1, m) codewords vanishing at the omitted zero
    point (PuncturedRMCode.shortened), so both the code and its dual have
    majority-logic decoders: d = 2^(r+1) - 1 and d_perp = 2^(m-r) - 1 are
    the certified parameters.
    """
    if r is None:
        r = m // 2
    if not 1 <= r < m - 1:
        raise ValueError("need 1 <= r <= m-2 so both sides decode")
    prm = build_punctured_rm(r, m)
    dual_prm = build_punctured_rm(m - r - 1, m)

    def dec(word: Sequence[int], radius: Fraction) -> DecodeOutcome:
        return shortened_dual_rm_decode(dual_prm, word, radius)

    def dec_perp(word: Sequence[int], radius: Fraction) -> DecodeOutcome:
        return punctured_rm_decode(prm, word, radius)

    d = (1 << (r + 1)) - 1
    d_perp = (1 << (m - r)) - 1
    return CyclicDCCode(dual_prm.shortened, d, d_perp, dec, dec_perp)
