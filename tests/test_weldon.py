import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dccodes.algebra import QuotientFieldContext, quotient_mul
from dccodes.code_core import (
    FAIL,
    Decoded,
    balanced_weight,
    bounded_distance_decode,
    brute_force_distance,
    hamming_distance,
    hamming_weight,
    iter_codewords,
    nearest_codeword,
)
from dccodes import weldon
from dccodes.design_dc import build_sidon_dc, dc_encode, design_decode, majority_decode
from dccodes.sidon import sidon_for_length
from dccodes.weldon import (
    TCirculantCode,
    WeldonCode,
    build_wozencraft,
    fold_word,
    lift_word,
    flip_one_decode,
    tcirculant_from_sidon_dc,
    weldon_decode,
    weldon_encode,
    weldon_membership,
)

W1, D1 = build_wozencraft(2, 3, (0, 1))
W19, D19 = build_wozencraft(2, 19, (1, 8, 14))

W1_WORDS = {(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)}


def test_validate_parameters():
    assert QuotientFieldContext(2, 3).k == 3
    assert QuotientFieldContext(2, 19).q == 2
    assert QuotientFieldContext(3, 5).k == 5
    with pytest.raises(ValueError):
        QuotientFieldContext(2, 7)  # 2 has order 3 mod 7
    with pytest.raises(ValueError):
        QuotientFieldContext(2, 9)  # not prime


def test_transform_examples():
    assert W1.alphas == ((1, 1),)
    assert W1.t == 2 and W1.dimension == 2 and W1.n == 4
    assert W19.dimension == 18 and W19.n == 36
    assert W19.source is D19
    assert D19.balanced_d == Fraction(5, 2)

    # an all-ones column reduces to zero: degenerate but legal
    ones = TCirculantCode(2, 3, [(1, 1, 1)], Fraction(3, 2), lambda w: FAIL)
    degenerate = WeldonCode(ones)
    assert degenerate.alphas == ((0, 0),)
    assert weldon_encode(degenerate, (1, 0)) == (1, 0, 0, 0)


def test_weldon_encode_examples():
    assert weldon_encode(W1, (0, 0)) == (0, 0, 0, 0)
    assert weldon_encode(W1, (1, 0)) == (1, 0, 1, 1)
    assert weldon_encode(W1, (0, 1)) == (0, 1, 1, 0)
    assert weldon_encode(W1, (1, 1)) == (1, 1, 0, 1)
    with pytest.raises(ValueError):
        weldon_encode(W1, (1, 0, 0))


def test_w1_codewords_and_distance():
    assert {cw for _, cw in iter_codewords(W1.code)} == W1_WORDS
    assert brute_force_distance(W1.code) == 2


def test_w19_exact_distance():
    assert brute_force_distance(W19.code) == 4


def test_lift_and_fold():
    assert lift_word((1, 0, 1), 1, 2) == (0, 1, 0, 1)
    assert lift_word((1, 0, 1), 0, 2) == (1, 0, 1, 0)
    assert fold_word((0, 1, 0, 1), 2) == (1, 0, 1)
    assert fold_word((2, 1, 0, 2), 3) == (0, 2, 1)
    with pytest.raises(ValueError):
        fold_word((), 2)

    rng = random.Random(641)
    for q in (2, 3, 5):
        for _ in range(200):
            c = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 12)))
            beta = rng.randrange(q)
            assert fold_word(lift_word(c, beta, q), q) == c
            assert lift_word(fold_word(c, q), c[-1], q) == c


def test_lift_and_fold_act_on_every_row():
    rng = np.random.default_rng(642)
    for q in (2, 3, 5):
        rows = rng.integers(0, q, size=(6, 9))
        betas = rng.integers(0, q, size=(6, 1))
        lifted = lift_word(rows, betas, q)
        assert isinstance(lifted, np.ndarray) and lifted.shape == (6, 10)
        for row, beta, got in zip(rows, betas[:, 0], lifted):
            assert tuple(got.tolist()) == lift_word(tuple(row.tolist()), int(beta), q)
        folded = fold_word(lifted, q)
        assert isinstance(folded, np.ndarray)
        assert np.array_equal(folded, rows)
        assert np.array_equal(lift_word(rows, 0, q)[:, :-1], rows)


def test_fold_never_decreases_balanced_weight():
    # hamming weight of the fold is at least the balanced weight of the block
    for q in (2, 3):
        for length in range(1, 7):
            for c in itertools.product(range(q), repeat=length):
                assert hamming_weight(fold_word(c, q)) >= balanced_weight(c)
    rng = random.Random(643)
    for _ in range(1000):
        q = rng.choice((2, 3, 5))
        c = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 40)))
        assert hamming_weight(fold_word(c, q)) >= balanced_weight(c)


def test_encode_matches_quotient_ring_product():
    # the fold of A_i*(m, 0) is the product alpha_i*m in H, computed here by
    # the reference arithmetic in algebra
    rng = random.Random(644)
    # (1, 8, 18) puts a 1 at the top of the column, so the source's column
    # and the lift of its fold differ
    for q, k, sidon in (
        (2, 19, (1, 8, 14)),
        (2, 19, (1, 8, 18)),
        (2, 59, None),
        (3, 7, (0, 1, 3)),
    ):
        w, _ = build_wozencraft(q, k, sidon)
        for _ in range(20):
            m = tuple(rng.randrange(q) for _ in range(w.dimension))
            expected = m + tuple(quotient_mul(w.alphas[0], m, w.ctx).tolist())
            assert weldon_encode(w, m) == expected

    # a first column with a nonzero top coefficient folds to a dense alpha;
    # t = 3 checks that every block gets its own multiplier
    for q, k in ((2, 11), (3, 7), (5, 7)):
        ctx = QuotientFieldContext(q, k)
        cols = [[rng.randrange(q) for _ in range(k - 1)] + [1] for _ in range(2)]
        d = TCirculantCode(q, k, cols, Fraction(1), lambda word: FAIL)
        w = WeldonCode(d)
        assert all(sum(a) for a in w.alphas)
        for _ in range(20):
            m = tuple(rng.randrange(q) for _ in range(k - 1))
            expected = m
            for alpha in w.alphas:
                expected += tuple(quotient_mul(alpha, m, ctx).tolist())
            assert weldon_encode(w, m) == expected
            assert weldon_membership(w, expected)
        assert tuple(map(tuple, w.code.columns.tolist())) == tuple(
            weldon_encode(w, tuple(int(i == j) for i in range(k - 1)))
            for j in range(k - 1)
        )


def test_wozencraft_paths_use_no_quotient_ring_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("quotient_mul called")

    monkeypatch.setattr("dccodes.weldon.quotient_mul", forbidden)
    monkeypatch.setattr("dccodes.algebra.quotient_mul", forbidden)
    rng = random.Random(645)
    for q, k, sidon in ((2, 19, (1, 8, 14)), (2, 59, None), (5, 7, (0, 1))):
        w, d = build_wozencraft(q, k, sidon)
        assert len(w.code.columns) == w.dimension
        m = tuple(rng.randrange(q) for _ in range(w.dimension))
        cw = weldon_encode(w, m)
        assert weldon_membership(w, cw)
        out = weldon_decode(w, d, _noisy(rng, q, cw, 1))
        assert isinstance(out, Decoded) and out.codeword == cw


def test_membership():
    for w in W1_WORDS:
        assert weldon_membership(W1, w)
        for pos in range(4):
            bad = list(w)
            bad[pos] ^= 1
            assert not weldon_membership(W1, tuple(bad))
    assert weldon_membership(W19, weldon_encode(W19, (0,) * 18))
    with pytest.raises(ValueError):
        weldon_membership(W1, (0, 0, 0))


def test_weldon_decode_w1_exhaustive():
    # radius is 3/4, so exactly the codewords themselves decode
    for bits in itertools.product((0, 1), repeat=4):
        out = weldon_decode(W1, D1, bits)
        if bits in W1_WORDS:
            assert isinstance(out, Decoded)
            assert out.codeword == bits and out.message == bits[:2]
        else:
            assert out is FAIL


def test_weldon_decode_w19_corrects_one_error():
    rng = random.Random(647)
    for _ in range(30):
        m = tuple(rng.randrange(2) for _ in range(18))
        cw = weldon_encode(W19, m)
        out = weldon_decode(W19, D19, cw)
        assert isinstance(out, Decoded) and out.codeword == cw
        w = list(cw)
        w[rng.randrange(36)] ^= 1
        out = weldon_decode(W19, D19, tuple(w))
        assert isinstance(out, Decoded)
        assert out.codeword == cw and out.message == m


def test_weldon_decode_outputs_are_members_within_radius():
    rng = random.Random(653)
    radius = D19.balanced_d / 2
    for _ in range(150):
        w = tuple(rng.randrange(2) for _ in range(36))
        out = weldon_decode(W19, D19, w)
        if out is not FAIL:
            assert weldon_membership(W19, out.codeword)
            assert Fraction(hamming_distance(out.codeword, w)) < radius


def test_codeword_correspondence():
    # folding the blocks of the circulant codeword of (m, 0) gives exactly
    # the quotient-code codeword of m
    def fold_dc(d, m):
        sdc = build_sidon_dc(d.q, d.k, [i for i, v in enumerate(d.first_columns[0]) if v])
        cw = dc_encode(sdc, tuple(m) + (0,))
        return tuple(cw[: d.k - 1]) + fold_word(cw[d.k :], d.q)

    for bits in itertools.product((0, 1), repeat=2):
        assert fold_dc(D1, bits) == weldon_encode(W1, bits)

    rng = random.Random(659)
    for _ in range(1000):
        m = tuple(rng.randrange(2) for _ in range(18))
        assert fold_dc(D19, m) == weldon_encode(W19, m)


def test_beta_trace_hits_top_coefficient():
    # the successful guess is the folded-out top coefficient of the
    # circulant block of the codeword of (m, 0)
    sdc = build_sidon_dc(2, 19, (1, 8, 14))
    rng = random.Random(661)
    for _ in range(20):
        m = tuple(rng.randrange(2) for _ in range(18))
        expected_beta = sdc.circulant.act(m + (0,), 2)[18]
        trace: list = []
        out = weldon_decode(W19, D19, weldon_encode(W19, m), trace=trace)
        assert isinstance(out, Decoded)
        successes = [betas for betas, ok in trace if ok]
        assert successes == [(expected_beta,)]
        assert trace[-1][1] is True  # decode returns on first success


def test_decoder_rejects_foreign_circulant():
    _, other = build_wozencraft(2, 19)  # default Sidon set differs
    assert other.first_columns != D19.first_columns
    with pytest.raises(ValueError):
        weldon_decode(W19, other, (0,) * 36)
    with pytest.raises(ValueError):
        weldon_decode(W1, D19, (0,) * 4)
    with pytest.raises(ValueError):
        weldon_decode(W1, D1, (0,) * 5)


def test_tcirculant_decoder_contract():
    # whichever decoder gets attached, it must recover codewords from
    # strictly fewer than balanced_d/2 errors
    rng = random.Random(673)
    for q, k, sidon in ((2, 8, (0, 1, 3)), (2, 19, (1, 8, 14))):
        d = tcirculant_from_sidon_dc(build_sidon_dc(q, k, sidon))
        max_wt = (d.balanced_d.numerator - 1) // (2 * d.balanced_d.denominator)
        for _ in range(10):
            msg = tuple(rng.randrange(q) for _ in range(k))
            cw = d.code.encode(msg)
            w = list(cw)
            for pos in rng.sample(range(2 * k), max_wt):
                w[pos] = (w[pos] + 1 + rng.randrange(q - 1)) % q
            out = d.decoder(tuple(w))
            assert isinstance(out, Decoded) and out.codeword == cw


def test_build_wozencraft_validation():
    with pytest.raises(ValueError):
        build_wozencraft(2, 7, (0, 1))  # 2 not primitive mod 7
    with pytest.raises(ValueError):
        build_wozencraft(2, 3)  # no room for a default Sidon set
    w, d = build_wozencraft(2, 11)
    assert w.k == 11 and d.t == 2
    assert w.alphas == WeldonCode(d).alphas


# (q, k, Sidon set or None for the default); in the gap instances the
# majority decoder corrects one error fewer than half the balanced parameter.
# (0, 1, 6) has a nonzero top coefficient, so its fold is not its column.
GAP_INSTANCES = (
    (2, 11, None),
    (2, 13, None),
    (2, 19, (1, 8, 14)),
    (3, 5, (0, 1)),
    (5, 7, (0, 1)),
    (3, 7, (0, 1, 6)),
)
NON_GAP_INSTANCES = ((2, 29, None), (3, 7, (0, 1, 3)))


def _capability(radius):
    return math.ceil(radius) - 1


def _exact_within(code, w, radius):
    """The codeword strictly within radius of w, or None, by exhaustive search.

    nearest_codeword scans every codeword; past 2^20 of them (k=29) the
    error-pattern oracle, which scans every pattern of weight below radius,
    stands in.
    """
    if code.q**code.k <= 1 << 20:
        cw, dist = nearest_codeword(code, w)
        return cw if dist < radius else None
    out = bounded_distance_decode(code, w, radius)
    return None if out is FAIL else out.codeword


def _noisy(rng, q, cw, errors):
    w = list(cw)
    for pos in rng.sample(range(len(cw)), errors):
        w[pos] = (w[pos] + rng.randrange(1, q)) % q
    return tuple(w)


@pytest.mark.parametrize("q,k,sidon", GAP_INSTANCES + NON_GAP_INSTANCES)
def test_decoders_match_exact_oracle(q, k, sidon):
    w, d = build_wozencraft(q, k, sidon)
    sdc = build_sidon_dc(q, k, [i for i, v in enumerate(d.first_columns[0]) if v])
    radius = d.balanced_d / 2
    cap = _capability(radius)
    gap = (q, k, sidon) in GAP_INSTANCES
    assert (_capability(sdc.decode_radius) < cap) == gap
    rng = random.Random(q * 1000 + k)
    for errors in range(cap + 3):
        for _ in range(3):
            m = tuple(rng.randrange(q) for _ in range(w.dimension))
            word = _noisy(rng, q, weldon_encode(w, m), errors)
            expected = _exact_within(w.code, word, radius)
            out = weldon_decode(w, d, word)
            if expected is None:
                assert out is FAIL
            else:
                assert isinstance(out, Decoded) and out.codeword == expected
                assert out.message == w.code.unencode(expected)

            m = tuple(rng.randrange(q) for _ in range(k))
            word = _noisy(rng, q, d.code.encode(m), errors)
            expected = _exact_within(d.code, word, radius)
            out = d.decoder(word)
            if expected is None:
                assert out is FAIL
            else:
                assert isinstance(out, Decoded) and out.codeword == expected
                assert out.message == d.code.unencode(expected)


def test_flip_one_decode_accepts_only_within_radius():
    sdc = build_sidon_dc(2, 29, sidon_for_length(29))
    rng = random.Random(683)
    for _ in range(10):
        cw = sdc.code.encode(tuple(rng.randrange(2) for _ in range(29)))
        word = _noisy(rng, 2, cw, 1)
        assert flip_one_decode(sdc, word, Fraction(2)).codeword == cw
        assert flip_one_decode(sdc, word, Fraction(1)) is FAIL


def _flip_one_one_batch(sdc, w, radius):
    """flip_one_decode as it was before batching: every trial row at once."""
    q = sdc.q
    word = np.asarray(w, dtype=np.int64) % q

    def within(c):
        dist = np.count_nonzero(c != word, axis=-1)
        return dist * radius.denominator < radius.numerator

    out = design_decode(sdc, word)
    if out is not FAIL and within(np.array(out.codeword)):
        return out
    n = len(word)
    trials = np.tile(word, (n * (q - 1), 1))
    pos = np.repeat(np.arange(n), q - 1)
    trials[np.arange(len(pos)), pos] += np.tile(np.arange(1, q), n)
    c, ok = majority_decode(sdc, trials)
    hits = np.flatnonzero(ok & within(c))
    if not hits.size:
        return FAIL
    c = tuple(c[hits[0]].tolist())
    return Decoded(c, c[: sdc.k])


@pytest.mark.parametrize("rows", [1, 5, None], ids=["1-row", "5-rows", "default"])
@pytest.mark.parametrize(
    "q,k,sidon", [inst for inst in GAP_INSTANCES if inst[0] in (2, 3, 5)]
)
def test_flip_one_batches_match_one_batch(monkeypatch, q, k, sidon, rows):
    # batches of `rows` trial words (the default fits every trial in one);
    # the first hit in serial order must win whatever the batch bounds
    w, d = build_wozencraft(q, k, sidon)
    sdc = build_sidon_dc(q, k, [i for i, v in enumerate(d.first_columns[0]) if v])
    if rows is not None:
        monkeypatch.setattr(weldon, "FLIP_BATCH", rows * sdc.n)
    radius = sdc.balanced_bound / 2
    rng = random.Random(f"flip-{q}-{k}")
    words = []
    for errors in range(_capability(radius) + 2):
        for _ in range(4):
            m = tuple(rng.randrange(q) for _ in range(k))
            words.append(_noisy(rng, q, dc_encode(sdc, m), errors))
    words += [tuple(rng.randrange(q) for _ in range(sdc.n)) for _ in range(8)]
    hits = 0
    for word in words:
        want = _flip_one_one_batch(sdc, word, radius)
        got = flip_one_decode(sdc, word, radius)
        assert got == want
        hits += want is not FAIL
    assert 0 < hits < len(words)


def test_wozencraft_decodes_at_capability_without_exhaustive_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exhaustive search called")

    monkeypatch.setattr("dccodes.weldon.bounded_distance_decode", forbidden)
    monkeypatch.setattr("dccodes.code_core.bounded_distance_decode", forbidden)
    rng = random.Random(677)
    # k=107 with 3 errors was a 2.8 GB weight level for the exhaustive search
    for k, errors in ((59, 2), (101, 2), (107, 3)):
        w, d = build_wozencraft(2, k)
        assert errors == _capability(d.balanced_d / 2)
        for _ in range(3):
            m = tuple(rng.randrange(2) for _ in range(w.dimension))
            cw = weldon_encode(w, m)
            out = weldon_decode(w, d, _noisy(rng, 2, cw, errors))
            assert isinstance(out, Decoded)
            assert out.codeword == cw and out.message == m


# (q, k, Sidon set or None for the default): gap and non-gap instances over
# q = 2, 3 and 5, for the parity digest below
PARITY_INSTANCES = (
    (2, 3, (0, 1)),
    (2, 11, None),
    (2, 19, (1, 8, 14)),
    (2, 29, None),
    (2, 59, None),
    (2, 101, None),
    (3, 5, (0, 1)),
    (5, 7, (0, 1)),
    (3, 7, (0, 1, 3)),
)

# sha256 of _parity_records() as computed by the quotient-ring implementation
# (one pure-Python quotient_mul per block) that the circulant fold replaced
PARITY_DIGEST = "4435187e43f35e5e44be35daa62e7b6b5a67ee4cbb903ea6bfd4db2419468b82"


def _parity_records():
    """Generator, encodings, memberships and decode outcomes with beta traces.

    Each instance contributes its generator columns, then words at every
    error weight from 0 to capability + 2 and uniformly random words; every
    word gets its membership, its decode outcome and the beta trace.
    """
    records = []
    for q, k, sidon in PARITY_INSTANCES:
        w, d = build_wozencraft(q, k, sidon)
        rng = random.Random(q * 10_000 + k)
        records.append(("code", q, k, tuple(map(tuple, w.code.columns.tolist()))))
        words = []
        for errors in range(_capability(d.balanced_d / 2) + 3):
            for _ in range(3):
                m = tuple(rng.randrange(q) for _ in range(w.dimension))
                cw = weldon_encode(w, m)
                records.append(("encode", m, cw))
                words.append(_noisy(rng, q, cw, errors))
        for _ in range(4):
            words.append(tuple(rng.randrange(q) for _ in range(w.n)))
        for word in words:
            trace: list = []
            out = weldon_decode(w, d, word, trace=trace)
            records.append(("decode", word, weldon_membership(w, word), out, trace))
    return records


def test_parity_digest_over_gap_and_non_gap_instances():
    digest = hashlib.sha256(repr(_parity_records()).encode()).hexdigest()
    assert digest == PARITY_DIGEST
