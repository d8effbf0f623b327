"""Table-based majority-logic decoding of Reed-Muller codes, as a reference.

This is reed_majority as dccodes ran it before the decoder moved onto folds
of packed ints: one vote table per degree layer, every vote gathered
through it and XOR-folded with numpy. The tests compare dccodes'
reed_majority with it, and its stage decoders with punctured_rm_decode and
shortened_dual_rm_decode here: the rule that decodes both lifts of a
punctured word, with 0 and with 1 at the zero point, and accepts an answer
only if every accepted lift gives it. The tables hold points as uint16
(m <= 16), so the m = 12 references stay a quarter of the intp size.
"""

from functools import lru_cache
from math import comb

import numpy as np

from dccodes.code_core import FAIL, PATTERN_CHUNK, Decoded


def _spread(variables, width):
    """(2^width, rows) points: entry [a, j] puts the bits of a, lowest first,
    on the `width` variables flagged in row j of the 0/1 array `variables`."""
    positions = np.nonzero(variables)[1].reshape(len(variables), width)
    a_bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
    return a_bits @ (1 << positions).T


@lru_cache(maxsize=1)
def layers(code):
    """Vote table per degree l = 0..r, shaped (2^l, C(m, l), 2^(m-l)).

    Entry [a, j, c] is the point whose bits inside the j-th degree-l
    monomial's variable set spell a and whose bits outside it spell c, so
    column [:, j, c] is coset c of the monomial's subcube and row a = 2^l - 1
    holds the one point of each coset where the monomial evaluates to 1.
    Monomials j run in message order within the layer.
    """
    m, stop = code.m, 0
    tables = []
    for ell in range(code.r + 1):
        start, stop = stop, stop + comb(m, ell)
        masks = np.array(code.monomials[start:stop])
        inside = (masks[:, None] >> np.arange(m)) & 1
        a = _spread(inside, ell).astype(np.uint16)[:, :, None]
        c = _spread(1 - inside, m - ell).astype(np.uint16).T
        tables.append(np.bitwise_or(a, c, order="C"))
    return tuple(tables)


def reed_majority(code, words):
    """Codewords, messages and accept mask of every word, as dccodes'
    reed_majority returns them, decoded PATTERN_CHUNK // k rows at a time."""
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
    for table in reversed(layers(code)):
        start = stop - table.shape[1]
        votes = np.bitwise_xor.reduce(np.take(working, table, axis=-1), axis=-3)
        layer = (2 * votes.sum(axis=-1) > table.shape[2]).astype(np.uint8)
        msg[..., start:stop] = layer
        # subtract the layer: XOR-fold its monomials' evaluation rows
        terms = layer[..., :, None] & code.evaluations[start:stop]
        working ^= np.bitwise_xor.reduce(terms, axis=-2)
        stop = start
    ok = 2 * working.sum(axis=-1) < 1 << (code.m - code.r)
    return received ^ working, msg, ok


def _decode_lifts(pcode, w, zero_values, radius):
    """Punctured codewords, messages and accept mask of the lifts of w, one
    per zero-point value: within the Reed radius, and strictly within radius
    of w once punctured."""
    bits = (np.asarray(w, dtype=np.int64) & 1).astype(np.uint8)
    if len(bits) != pcode.n:
        raise ValueError(f"word must have length {pcode.n}")
    lifts = np.empty((len(zero_values), pcode.full.n), dtype=np.uint8)
    lifts[:, 0] = zero_values
    lifts[:, pcode.ordering] = bits
    cw, msg, ok = reed_majority(pcode.full, lifts)
    pcw = cw[:, pcode.ordering]
    ok &= (pcw ^ bits).sum(axis=1) * radius.denominator < radius.numerator
    return pcw, msg, ok


def punctured_rm_decode(pcode, w, radius):
    """Both lifts decoded; an answer counts only if every accepted lift
    gives it."""
    pcw, msg, ok = _decode_lifts(pcode, w, (0, 1), radius)
    pcw, msg = pcw[ok], msg[ok]
    if len(pcw) and (pcw == pcw[0]).all():
        return Decoded(tuple(pcw[0].tolist()), tuple(msg[0].tolist()))
    return FAIL


def shortened_dual_rm_decode(pcode, w, radius):
    """The lift with 0, accepted only with a zero constant coefficient."""
    pcw, msg, ok = _decode_lifts(pcode, w, (0,), radius)
    if ok[0] and msg[0, 0] == 0:
        return Decoded(tuple(pcw[0].tolist()), tuple(msg[0].tolist()))
    return FAIL
