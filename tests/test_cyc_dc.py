import hashlib
import math
import random
from fractions import Fraction

import pytest

import polyref as ref
from dccodes.algebra import _terms, cyclic_mul, poly_divmod, poly_mul
from dccodes.code_core import (
    FAIL,
    Decoded,
    balanced_weight,
    bounded_distance_decode,
    hamming_distance,
    hamming_weight,
    is_codeword,
    iter_codewords,
    nearest_codeword,
)
from dccodes import code_core, cyc_dc
from dccodes.cyc_dc import (
    CyclicDCCode,
    build_rm_dual_dc,
    cyc_dc_decode,
    cyc_dc_encode,
    d_balanced_check,
)
from dccodes.cyclic import (
    CyclicCode,
    dual_code,
    enumerate_cyclic_codes,
    generator_from_spanning_set,
)
from dccodes.reed_muller import punctured_ordering, rm_code

RM_DC = build_rm_dual_dc(4)


def _toy_code(d=3, d_perp=2):
    """Repetition-code base with brute-force decoders on both sides."""
    rep = CyclicCode(2, 3, (1, 1, 1))
    par = dual_code(rep)

    def dec(w, radius):
        return bounded_distance_decode(rep.generator_code, w, radius)

    def dec_perp(w, radius):
        return bounded_distance_decode(par.generator_code, w, radius)

    return CyclicDCCode(rep, d, d_perp, dec, dec_perp)


def test_build_rm_dual_dc_parameters():
    assert RM_DC.k == 15 and RM_DC.n == 30
    assert RM_DC.d == 7 and RM_DC.d_perp == 3 and RM_DC.d_prime == 3
    assert RM_DC.decode_radius == Fraction(3, 2)
    assert len(RM_DC.base.g) - 1 == 11
    assert RM_DC.a == ref.padded(tuple(RM_DC.base.g.tolist()), 15)
    with pytest.raises(ValueError):
        build_rm_dual_dc(4, 3)  # dual side would have no decoding handle
    with pytest.raises(ValueError):
        build_rm_dual_dc(2)


def test_build_cyclic_dc_toy_base():
    code = _toy_code()
    assert code.k == 3 and code.n == 6
    assert code.a == (1, 1, 1)
    assert code.circulant.column(0) == (1, 1, 1)
    assert code.d_prime == 2

    with pytest.raises(ValueError):
        CyclicDCCode(code.base, 3, 2, None, None)
    with pytest.raises(ValueError, match="must be binary"):
        CyclicDCCode(CyclicCode(3, 4, (1, 1)), 2, 2, code.decoder, code.dual_decoder)
    with pytest.raises(ValueError):
        CyclicDCCode(code.base, 3, 2, code.decoder, None)
    with pytest.raises(ValueError):
        _toy_code(d=0)


def test_base_is_dual_of_punctured_rm():
    # the build reads the base off the shortened RM(m-r-1, m) rows; the
    # reference takes the duality route: row-reduce punctured RM(r, m), dualize
    cases = [(m, r) for m in range(3, 9) for r in range(1, m - 1)] + [(9, 4)]
    for m, r in cases:
        full = rm_code(r, m)
        n = full.n - 1
        rows = full.evaluations[:, punctured_ordering(m)]
        base = build_rm_dual_dc(m, r).base
        assert base == dual_code(generator_from_spanning_set(2, n, rows)), (m, r)
        assert base.k == n - full.k, (m, r)


def test_cyc_dc_encode_examples():
    assert cyc_dc_encode(RM_DC, (0,) * 15) == (0,) * 30

    # h * g = x^k - 1, so the circulant kills h's coefficient vector
    h_vec = ref.padded(tuple(RM_DC.base.h.tolist()), 15)
    assert cyc_dc_encode(RM_DC, h_vec) == h_vec + (0,) * 15

    unit = (1,) + (0,) * 14
    assert cyc_dc_encode(RM_DC, unit) == unit + RM_DC.a

    with pytest.raises(ValueError):
        cyc_dc_encode(RM_DC, (0,) * 14)


def test_decode_round_trip_toy():
    code = _toy_code()
    for idx in range(8):
        m = tuple((idx >> i) & 1 for i in range(3))
        out = cyc_dc_decode(code, cyc_dc_encode(code, m))
        assert isinstance(out, Decoded) and out.message == m


def test_final_check_is_strict_toy():
    # d' = 2, so only a word at distance 0 is strictly inside the radius: one
    # error away from a codeword, the stage decoders still answer, and only
    # the final check turns that answer into a Fail
    code = _toy_code()
    for idx in range(8):
        cw = cyc_dc_encode(code, tuple((idx >> i) & 1 for i in range(3)))
        for pos in range(6):
            w = list(cw)
            w[pos] ^= 1
            assert cyc_dc_decode(code, w) is FAIL


def test_decode_single_errors_n15():
    rng = random.Random(541)
    for _ in range(10):
        m = tuple(rng.randrange(2) for _ in range(15))
        cw = cyc_dc_encode(RM_DC, m)
        out = cyc_dc_decode(RM_DC, cw)
        assert isinstance(out, Decoded) and out.message == m
        for pos in range(30):
            w = list(cw)
            w[pos] ^= 1
            out = cyc_dc_decode(RM_DC, tuple(w))
            assert isinstance(out, Decoded)
            assert out.message == m and out.codeword == cw


def test_decode_agrees_with_nearest_codeword():
    # this decoder accepts exactly the words within distance 1 of the code,
    # so a full-scan oracle fixes the expected outcome of every trial
    rng = random.Random(547)
    for _ in range(20):
        w = tuple(rng.randrange(2) for _ in range(30))
        cw, dist = nearest_codeword(RM_DC.code, w)
        out = cyc_dc_decode(RM_DC, w)
        if dist <= 1:
            assert isinstance(out, Decoded) and out.codeword == cw
        else:
            assert out is FAIL


def test_decode_never_exceeds_radius():
    rng = random.Random(557)
    for trial in range(1000):
        if trial % 10 == 0:
            m = tuple(rng.randrange(2) for _ in range(15))
            w = list(cyc_dc_encode(RM_DC, m))
            w[rng.randrange(30)] ^= 1
            w = tuple(w)
        else:
            w = tuple(rng.randrange(2) for _ in range(30))
        out = cyc_dc_decode(RM_DC, w)
        if out is not FAIL:
            assert Fraction(hamming_distance(out.codeword, w)) < RM_DC.decode_radius


# sha256 of cyc_dc_decode's outcomes on seeded words over rm-dc m=4..8 and
# every r it allows, with 0 to d'+2 errors, taken while stage 1 still
# divided by g with poly_divmod and re-encoded with the schoolbook product
PINNED_DECODE_OUTCOMES = (
    "dacf1f7e85d2ae219bcc97054011d20f9b59ed0e52a16ae20f4617fd590afd31"
)


def test_cyc_dc_decode_outcomes_pinned():
    h = hashlib.sha256()
    fails = 0
    for m in range(4, 9):
        for r in range(1, m - 1):
            code = build_rm_dual_dc(m, r)
            rng = random.Random(f"cycdc{m}{r}")
            for errors in range(code.d_prime + 3):
                for _ in range(4):
                    msg = [rng.randrange(2) for _ in range(code.k)]
                    w = list(cyc_dc_encode(code, msg))
                    for pos in rng.sample(range(code.n), errors):
                        w[pos] ^= 1
                    out = cyc_dc_decode(code, w)
                    fails += out is FAIL
                    h.update(b"F" if out is FAIL else bytes(out.codeword + out.message))
    assert 0 < fails < 736
    assert h.hexdigest() == PINNED_DECODE_OUTCOMES


def test_stage_one_answer_outside_base_code_fails(monkeypatch):
    # a stage-1 decoder that answers with a word just outside the base code
    real = cyc_dc.shortened_dual_rm_decode

    def off_code(pcode, word, radius):
        out = real(pcode, word, radius)
        if out is FAIL:
            return out
        return Decoded((1 - out.codeword[0],) + out.codeword[1:], out.message)

    code = build_rm_dual_dc(5)
    rng = random.Random(569)
    msgs = [tuple(rng.randrange(2) for _ in range(code.k)) for _ in range(10)]
    assert all(cyc_dc_decode(code, cyc_dc_encode(code, m)).message == m for m in msgs)
    monkeypatch.setattr(cyc_dc, "shortened_dual_rm_decode", off_code)
    for m in msgs:
        assert cyc_dc_decode(code, cyc_dc_encode(code, m)) is FAIL


def test_faulty_stage_two_is_caught_by_the_final_check(monkeypatch):
    # a stage-2 decoder that flips one bit of its answer: the message it
    # implies is wrong, so only the final re-encode and radius check stand
    # between that answer and the caller
    real = cyc_dc.punctured_rm_decode

    def flipped(pcode, word, radius):
        out = real(pcode, word, radius)
        if out is FAIL:
            return out
        return Decoded((1 - out.codeword[0],) + out.codeword[1:], out.message)

    code = build_rm_dual_dc(5)
    t = (code.d_prime - 1) // 2
    rng = random.Random(571)
    words = []
    for weight in [*range(t + 1), t + 1, t + 3] * 4:
        w = list(cyc_dc_encode(code, [rng.randrange(2) for _ in range(code.k)]))
        for pos in rng.sample(range(2 * code.k), weight):
            w[pos] ^= 1
        words.append(tuple(w))
    monkeypatch.setattr(cyc_dc, "punctured_rm_decode", flipped)
    outcomes = [cyc_dc_decode(code, w) for w in words]
    assert FAIL in outcomes
    for w, out in zip(words, outcomes):
        if out is not FAIL:
            assert out.codeword == cyc_dc_encode(code, out.message)
            assert 2 * hamming_distance(out.codeword, w) < code.d_prime


@pytest.mark.parametrize(
    "bases",
    [[RM_DC.base], [build_rm_dual_dc(8).base], enumerate_cyclic_codes(3, 8)],
    ids=["rm-dc-m4", "rm-dc-m8", "q3-n8-all"],
)
def test_h_quotient_matches_poly_divmod(bases):
    rng = random.Random(5 * len(bases))
    for base in bases:
        q, g = base.q, tuple(base.g.tolist())
        for _ in range(20):
            r = ref.canon([rng.randrange(q) for _ in range(base.k)], q)
            c = ref.padded(ref.mul(r, g, q), base.n)
            assert base.quotient(c).tolist() == list(ref.padded(r, base.n))
            noisy = list(c)
            noisy[rng.randrange(base.n)] += rng.randrange(1, q)
            quot, rem = poly_divmod(noisy, base.g, q)
            assert (tuple(quot.tolist()), tuple(rem.tolist())) == ref.div(noisy, g, q)
            got = base.quotient(noisy)
            if not len(rem):
                assert got.tolist() == list(ref.padded(tuple(quot.tolist()), base.n))
            else:
                assert got is None


def _message_case_split(base, d_perp, messages):
    """Every message lands in one of two camps: multiples of h are heavy,
    everything else maps into the base code minus the zero word."""
    for m in messages:
        if not any(m):
            continue
        am = cyclic_mul(_terms(base.g), m, base.n, base.q)
        _, rem = poly_divmod(m, base.h, base.q)
        if not len(rem):
            assert hamming_weight(m) >= d_perp
        else:
            assert any(am)
            assert is_codeword(base.generator_code, am)


def test_case_split_exhaustive_small():
    parity = CyclicCode(2, 3, (1, 1))
    _message_case_split(
        parity, 3, [tuple((i >> j) & 1 for j in range(3)) for i in range(8)]
    )
    hamming = CyclicCode(2, 7, (1, 1, 0, 1))
    _message_case_split(
        hamming, 4, [tuple((i >> j) & 1 for j in range(7)) for i in range(128)]
    )


def test_case_split_sampled_n15():
    rng = random.Random(563)
    msgs = [tuple(rng.randrange(2) for _ in range(15)) for _ in range(300)]
    # force some h-multiples into the sample
    h = RM_DC.base.h
    for _ in range(20):
        f = [rng.randrange(2) for _ in range(4)]
        msgs.append(ref.padded(tuple(poly_mul(h, f, 2).tolist()), 15))
    _message_case_split(RM_DC.base, 3, msgs)


def test_d_balanced_check():
    rep = CyclicCode(2, 3, (1, 1, 1))
    assert not d_balanced_check(rep, 1)  # (1,1,1) has balanced weight 0

    zero = CyclicCode(2, 3, (-1, 0, 0, 1))
    assert zero.k == 0
    assert d_balanced_check(zero, 100)  # vacuous: no nonzero codewords

    assert d_balanced_check(RM_DC.base, 7)


@pytest.mark.parametrize("scan_block", [None, 20], ids=["default", "rows2-6"])
def test_d_balanced_check_matches_naive(scan_block, monkeypatch):
    # 20 symbols hold 2 to 6 codewords at these lengths, so scans split
    if scan_block is not None:
        monkeypatch.setattr(code_core, "SCAN_BLOCK", scan_block)
    for q, n in ((2, 7), (3, 4), (5, 4), (7, 3)):
        for base in enumerate_cyclic_codes(q, n):
            pairs = iter_codewords(base.generator_code)
            naive = min((balanced_weight(cw) for m, cw in pairs if any(m)), default=math.inf)
            for d in (0, n + 1) if naive == math.inf else (naive, naive + 1):
                assert d_balanced_check(base, d) == (naive >= d), (q, n, base.g, d)
