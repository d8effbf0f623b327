import hashlib
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import rmref
from maxrss import run_script
from dccodes import reed_muller
from dccodes.code_core import (
    FAIL,
    Decoded,
    GeneratorMatrixCode,
    brute_force_distance,
    hamming_weight,
    iter_codewords,
    nearest_codeword,
)
from dccodes.cyc_dc import build_rm_dual_dc, cyc_dc_decode, cyc_dc_encode
from dccodes.cyclic import generator_from_spanning_set
from dccodes.reed_muller import (
    build_punctured_rm,
    punctured_ordering,
    punctured_rm_decode,
    reed_decode,
    reed_majority,
    rm_code,
    rm_encode,
    shortened_dual_rm_decode,
)


def test_rm_encode_examples():
    const = rm_code(0, 2)
    assert rm_encode(const, (1,)) == (1, 1, 1, 1)
    line = rm_code(1, 2)
    assert line.monomials == (0, 1, 2)
    assert rm_encode(line, (0, 1, 0)) == (0, 1, 0, 1)
    quad = rm_code(2, 2)
    assert rm_encode(quad, (0, 0, 0, 1)) == (0, 0, 0, 1)
    assert rm_encode(quad, (1, 1, 0, 0)) == (1, 0, 1, 0)


def test_rm_encode_matches_the_generator_product():
    # only a coefficient's parity counts, negative and past 255 too
    rng = random.Random(43)
    for r, m in [(0, 3), (1, 4), (2, 5), (3, 6), (6, 6), (2, 8)]:
        code = rm_code(r, m)
        for _ in range(5):
            coeffs = [rng.randrange(-300, 300) for _ in range(code.k)]
            assert rm_encode(code, coeffs) == code.generator_code.encode(coeffs)


def test_rm_encode_makes_no_copy_of_the_table():
    # an int64 product would copy RM(6, 12)'s 2510 x 4096 table: +59 MB
    out = run_script(
        """
import json, random, resource
from dccodes.reed_muller import rm_code, rm_encode
code = rm_code(6, 12)
code.evaluations
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rm_encode(code, [random.Random(6).randrange(2) for _ in range(code.k)])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"grew": after - before}))
""",
        timeout=60,
    )
    assert out["grew"] < 5 * 1024, out  # KiB on Linux


def test_rm_parameters():
    assert rm_code(1, 3).k == 4
    assert rm_code(2, 4).k == 11
    assert rm_code(1, 4).n == 16
    with pytest.raises(ValueError):
        rm_code(3, 2)
    with pytest.raises(ValueError):
        rm_code(0, 0)


@pytest.mark.parametrize(
    "r,m,d",
    [(1, 3, 4), (1, 4, 8), (2, 4, 4), (1, 5, 16), (2, 5, 8)],
)
def test_rm_exact_distance(r, m, d):
    assert brute_force_distance(rm_code(r, m).generator_code) == d


@pytest.mark.parametrize("r,m", [(1, 3), (1, 4), (2, 4)])
def test_rm_duality(r, m):
    left = np.array(rm_code(r, m).generator_code.columns)
    right = np.array(rm_code(m - r - 1, m).generator_code.columns)
    assert not ((left @ right.T) % 2).any()


def test_reed_decode_exhaustive_rm13():
    # the decoder accepts exactly the words within distance 1 of a codeword
    # and returns that (unique) nearest codeword
    code = rm_code(1, 3)
    for idx in range(256):
        w = tuple((idx >> i) & 1 for i in range(8))
        cw, dist = nearest_codeword(code.generator_code, w)
        out = reed_decode(code, w)
        if dist <= 1:
            assert isinstance(out, Decoded)
            assert out.codeword == cw
            assert rm_encode(code, out.message) == cw
        else:
            assert out is FAIL


def test_reed_decode_clean_codewords():
    # every clean codeword decodes to itself: exhaustive where the code is
    # small, sampled for the two big m=4 codes
    rng = random.Random(431)
    for m in range(1, 5):
        for r in range(m + 1):
            code = rm_code(r, m)
            if code.k <= 11:
                messages = [msg for msg, _ in iter_codewords(code.generator_code)]
            else:
                messages = [
                    tuple(rng.randrange(2) for _ in range(code.k))
                    for _ in range(300)
                ]
            for msg in messages:
                cw = rm_encode(code, msg)
                out = reed_decode(code, cw)
                assert isinstance(out, Decoded)
                assert out.codeword == cw and out.message == msg


def test_reed_decode_corrects_weight_three_rm25():
    code = rm_code(2, 5)
    rng = random.Random(433)
    for _ in range(30):
        msg = tuple(rng.randrange(2) for _ in range(code.k))
        cw = rm_encode(code, msg)
        w = list(cw)
        for pos in rng.sample(range(32), 3):
            w[pos] ^= 1
        out = reed_decode(code, tuple(w))
        assert isinstance(out, Decoded) and out.codeword == cw


# sha256 of reed_decode's outcomes on 100 seeded words, taken before the
# decoder moved onto the evaluation table; word i carries i * 1.5d / 100
# errors, so the weights run from 0 to three times the radius
PINNED_OUTCOMES = {
    (4, 8): "8c000803efd1a211d7ef367ee4300dabcaf021c9a645ddc064eec1c2ee48cbde",
    (3, 8): "26041f6bb33f46550d0103694740e1f04baa5c5b385c2afc4ca55010b59f205b",
}


@pytest.mark.parametrize("r,m", sorted(PINNED_OUTCOMES))
def test_reed_decode_outcomes_pinned(r, m):
    code = rm_code(r, m)
    rng = random.Random(f"rm{r}{m}")
    top = 3 << (m - r - 1)
    h = hashlib.sha256()
    for i in range(100):
        msg = [rng.randrange(2) for _ in range(code.k)]
        w = list(rm_encode(code, msg))
        for pos in rng.sample(range(code.n), i * top // 100):
            w[pos] ^= 1
        out = reed_decode(code, w)
        h.update(b"F" if out is FAIL else bytes(out.codeword + out.message))
    assert h.hexdigest() == PINNED_OUTCOMES[(r, m)]


@pytest.mark.parametrize("r", [1, 2])
def test_reed_decode_matches_nearest_codeword_rm5(r):
    # inside the radius the answer is the nearest codeword; beyond it, FAIL
    # or a codeword strictly within the radius
    code = rm_code(r, 5)
    d = 1 << (5 - r)
    rng = random.Random(449 + r)
    for _ in range(40):
        w = list(rm_encode(code, [rng.randrange(2) for _ in range(code.k)]))
        for pos in rng.sample(range(32), rng.randrange(d + 1)):
            w[pos] ^= 1
        cw, dist = nearest_codeword(code.generator_code, w)
        out = reed_decode(code, w)
        if 2 * dist < d:
            assert isinstance(out, Decoded) and out.codeword == cw
            assert rm_encode(code, out.message) == cw
        elif out is not FAIL:
            assert 2 * sum(a != b for a, b in zip(out.codeword, w)) < d


ALL_RM_UP_TO_8 = [(r, m) for m in range(1, 9) for r in range(m + 1)]


@pytest.mark.parametrize("r,m", ALL_RM_UP_TO_8)
def test_layer_tables(r, m):
    # the reference decoder's vote tables, which the differential tests in
    # test_rm_reference trust
    code = rm_code(r, m)
    tables = rmref.layers(code)
    assert len(tables) == r + 1
    start = 0
    for ell, table in enumerate(tables):
        count = comb(m, ell)
        assert table.shape == (1 << ell, count, 1 << (m - ell))
        for j in range(count):
            # the cosets of each monomial's subcube partition the points
            assert sorted(table[:, j].ravel().tolist()) == list(range(code.n))
        # each coset holds exactly one point where its monomial is 1
        own = code.evaluations[start : start + count]
        rows = own[np.arange(count)[:, None, None], table.transpose(1, 0, 2)]
        assert (np.bitwise_xor.reduce(rows, axis=1) == 1).all()
        start += count
    assert start == code.k


@pytest.mark.parametrize("r,m", ALL_RM_UP_TO_8)
def test_reed_majority_batch_matches_reed_decode(r, m):
    # weights run from 0 to two past the radius 2^(m-r-1), row by row
    code = rm_code(r, m)
    rng = random.Random(f"batch{r}{m}")
    words = []
    for errors in range(min(code.n, (1 << (m - r)) // 2 + 2) + 1):
        w = list(rm_encode(code, [rng.randrange(2) for _ in range(code.k)]))
        for pos in rng.sample(range(code.n), errors):
            w[pos] ^= 1
        words.append(w)
    words = np.array(words)
    whole = reed_majority(code, words)
    for size in (1, 3, 7):
        starts = range(0, len(words), size)
        parts = [reed_majority(code, words[i : i + size]) for i in starts]
        for got, want in zip(whole, zip(*parts)):
            assert (got == np.concatenate(want)).all()
    cws, msgs, ok = whole
    assert cws.shape == words.shape and msgs.shape == (len(words), code.k)
    for w, cw, msg, accepted in zip(words, cws, msgs, ok):
        out = reed_decode(code, w)
        if accepted:
            assert out == Decoded(tuple(cw.tolist()), tuple(msg.tolist()))
        else:
            assert out is FAIL
    # clean words decode, and some beyond the radius fail unless every word
    # is a codeword
    assert ok[0] and (r == m or not ok.all())


def test_reed_decode_rejects_wrong_length():
    with pytest.raises(ValueError):
        reed_decode(rm_code(1, 3), (0,) * 7)


def test_punctured_ordering():
    assert sorted(punctured_ordering(2)) == [1, 2, 3]
    order7 = punctured_ordering(3)
    assert order7[0] == 1
    assert sorted(order7) == list(range(1, 8))
    assert len(set(punctured_ordering(4))) == 15
    with pytest.raises(ValueError):
        punctured_ordering(1)


def _punctured_cyclic(pcode):
    rows = pcode.full.evaluations[:, pcode.ordering]
    return generator_from_spanning_set(2, pcode.n, rows)


def test_build_punctured_rm_parameters():
    hamming = build_punctured_rm(1, 3)
    cyclic = _punctured_cyclic(hamming)
    assert hamming.n == 7 and cyclic.k == 4
    assert len(cyclic.g) - 1 == 3
    assert hamming.shortened.k == 3 and len(hamming.shortened.g) - 1 == 4

    big = build_punctured_rm(2, 4)
    cyclic = _punctured_cyclic(big)
    assert big.n == 15 and cyclic.k == 11
    assert len(cyclic.g) - 1 == 4
    assert big.shortened.k == 10 and len(big.shortened.g) - 1 == 5

    with pytest.raises(ValueError):
        build_punctured_rm(0, 3)
    with pytest.raises(ValueError):
        build_punctured_rm(3, 3)


def test_punctured_cyclic_codewords_agree():
    pcode = build_punctured_rm(1, 3)
    code = GeneratorMatrixCode(2, pcode.full.evaluations[:, pcode.ordering])
    as_matrix = {cw for _, cw in iter_codewords(code)}
    as_cyclic = {cw for _, cw in iter_codewords(_punctured_cyclic(pcode).generator_code)}
    assert as_matrix == as_cyclic

    vanishing = {cw for msg, cw in iter_codewords(code) if msg[0] == 0}
    as_shortened = {cw for _, cw in iter_codewords(pcode.shortened.generator_code)}
    assert as_shortened == vanishing


def test_punctured_rm_decode_round_trip():
    pcode = build_punctured_rm(2, 4)
    rng = random.Random(439)
    for _ in range(50):
        msg = tuple(rng.randrange(2) for _ in range(11))
        cw = pcode.puncture(rm_encode(pcode.full, msg))
        out = punctured_rm_decode(pcode, cw, Fraction(3, 2))
        assert isinstance(out, Decoded) and out.codeword == cw
        for pos in range(15):
            w = list(cw)
            w[pos] ^= 1
            out = punctured_rm_decode(pcode, tuple(w), Fraction(3, 2))
            assert isinstance(out, Decoded) and out.codeword == cw

    # an int radius is as strict as a Fraction one
    one_off = (1 - cw[0],) + cw[1:]
    assert punctured_rm_decode(pcode, one_off, 1) is FAIL
    assert punctured_rm_decode(pcode, one_off, 2).codeword == cw

    zero = punctured_rm_decode(pcode, (0,) * 15, Fraction(1, 2))
    assert isinstance(zero, Decoded)
    assert zero.codeword == (0,) * 15 and hamming_weight(zero.message) == 0

    with pytest.raises(ValueError):
        punctured_rm_decode(pcode, (0,) * 14, Fraction(3, 2))


def test_shortened_dual_rm_decode():
    full = rm_code(1, 4)
    pcode = build_punctured_rm(1, 4)
    # x1 vanishes at the zero point, so its punctured word is decodable
    x1 = rm_encode(full, (0, 1, 0, 0, 0))
    assert x1[0] == 0
    cw = pcode.puncture(x1)
    out = shortened_dual_rm_decode(pcode, cw, Fraction(7, 2))
    assert isinstance(out, Decoded) and out.codeword == cw

    rng = random.Random(443)
    for _ in range(50):
        msg = (0,) + tuple(rng.randrange(2) for _ in range(4))
        word = pcode.puncture(rm_encode(full, msg))
        w = list(word)
        for pos in rng.sample(range(15), 2):
            w[pos] ^= 1
        out = shortened_dual_rm_decode(pcode, tuple(w), Fraction(7, 2))
        assert isinstance(out, Decoded) and out.codeword == word

    # constant coefficient 1 never vanishes at zero: must be rejected
    bad = pcode.puncture(rm_encode(full, (1, 1, 0, 0, 0)))
    assert shortened_dual_rm_decode(pcode, bad, Fraction(7, 2)) is FAIL


def test_punctured_rm_decode_decodes_the_lift_with_one_only_if_needed(monkeypatch):
    calls = []
    real = reed_muller._majority
    monkeypatch.setattr(
        reed_muller, "_majority", lambda code, v: calls.append(v) or real(code, v)
    )
    pcode = build_punctured_rm(2, 5)
    full = rm_encode(pcode.full, [1] * pcode.full.k)
    cw = pcode.puncture(full)
    # 1 at the zero point: the lift with 0 is one error off, at punctured
    # distance 0, and accepted
    assert full[0] == 1
    for radius in (Fraction(7, 2), Fraction(1, 2)):
        calls.clear()
        assert punctured_rm_decode(pcode, cw, radius).codeword == cw
        assert len(calls) == 1
    assert shortened_dual_rm_decode(pcode, cw, Fraction(7, 2)) is FAIL
    assert len(calls) == 2
    # three more errors put the lift with 0 four off, at the Reed radius
    w = list(cw)
    for pos in (0, 9, 20):
        w[pos] ^= 1
    calls.clear()
    assert punctured_rm_decode(pcode, w, Fraction(7, 2)).codeword == cw
    assert len(calls) == 2
    # an rm-dc decode runs one lift per stage
    code = build_rm_dual_dc(5)
    msg = tuple(random.Random(353).randrange(2) for _ in range(code.k))
    calls.clear()
    assert cyc_dc_decode(code, cyc_dc_encode(code, msg)).message == msg
    assert len(calls) == 2


# sha256 of both stage decoders' outcomes on seeded words, taken before the
# decoders moved onto reed_majority: three words per error weight 0..radius+2
# for punctured RM(r, m), m = 4..8 and every r, at radius (2^(m-r) - 1)/2
PINNED_STAGE_OUTCOMES = "ac6f2208316d82363c71247ec69e9ffb43e7ff7fffec32894093040c8b7ec3f3"


def test_stage_decoder_outcomes_pinned():
    h = hashlib.sha256()
    fails = [0, 0]
    for m in range(4, 9):
        for r in range(1, m):
            pcode = build_punctured_rm(r, m)
            radius = Fraction((1 << (m - r)) - 1, 2)
            rng = random.Random(f"stage{m}{r}")
            for errors in range(int(radius) + 3):
                for _ in range(3):
                    msg = [rng.randrange(2) for _ in range(pcode.full.k)]
                    w = list(pcode.puncture(rm_encode(pcode.full, msg)))
                    for pos in rng.sample(range(pcode.n), errors):
                        w[pos] ^= 1
                    decoders = (punctured_rm_decode, shortened_dual_rm_decode)
                    for i, dec in enumerate(decoders):
                        out = dec(pcode, w, radius)
                        fails[i] += out is FAIL
                        h.update(b"F" if out is FAIL else bytes(out.codeword + out.message))
    assert fails == [89, 501]
    assert h.hexdigest() == PINNED_STAGE_OUTCOMES
