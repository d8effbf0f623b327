import itertools
import math
import random

import numpy as np
import pytest

import dccodes.code_core as code_core
from dccodes.code_core import (
    FAIL,
    Decoded,
    GeneratorMatrixCode,
    OracleBudgetExceeded,
    balanced_weight,
    bounded_distance_decode,
    brute_force_balanced_profile,
    brute_force_distance,
    capability,
    dual_basis,
    hamming_distance,
    hamming_weight,
    is_codeword,
    iter_codewords,
    nearest_codeword,
    split_balanced_weight,
)
from dccodes.cyc_dc import d_balanced_check
from dccodes.cyclic import CyclicCode
from dccodes.design_dc import build_sidon_dc
from fractions import Fraction

REP3 = GeneratorMatrixCode(2, [(1, 1, 1)])
REP5 = GeneratorMatrixCode(2, [(1, 1, 1, 1, 1)])
PARITY3 = GeneratorMatrixCode(2, [(1, 0, 1), (0, 1, 1)])
I3 = GeneratorMatrixCode(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _random_code(rng, q, n, k):
    while True:
        cols = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        try:
            return GeneratorMatrixCode(q, cols)
        except ValueError:
            continue


def test_generator_rejects_dependent_columns():
    with pytest.raises(ValueError):
        GeneratorMatrixCode(2, [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        GeneratorMatrixCode(3, [(1, 2, 0), (2, 1, 0), (0, 0, 0)])


def test_zero_dimensional_code_needs_explicit_length():
    with pytest.raises(ValueError):
        GeneratorMatrixCode(2, [])
    zero = GeneratorMatrixCode(2, [], n=4)
    assert zero.n == 4 and zero.k == 0
    assert brute_force_distance(zero) == float("inf")
    assert brute_force_balanced_profile(zero, 2) == float("inf")
    assert nearest_codeword(zero, (1, 0, 1, 1)) == ((0, 0, 0, 0), 3)
    blocks = [(start, b.tolist()) for start, b in code_core._codeword_blocks(zero)]
    assert blocks == [(0, [[0, 0, 0, 0]])]


def test_encode_examples():
    assert PARITY3.encode((0, 0)) == (0, 0, 0)
    assert PARITY3.encode((1, 0)) == (1, 0, 1)
    # systematic codes echo the message in the first k symbols
    assert PARITY3.encode((1, 1))[:2] == (1, 1)
    with pytest.raises(ValueError):
        PARITY3.encode((1, 0, 0))


def test_unencode_round_trip():
    rng = random.Random(7)
    for q in (2, 3, 5):
        code = _random_code(rng, q, 8, 4)
        for _ in range(50):
            m = tuple(rng.randrange(q) for _ in range(4))
            assert code.unencode(code.encode(m)) == m


def test_weight_and_distance_examples():
    assert hamming_weight((0, 0, 0)) == 0
    assert hamming_weight((1, 0, 2)) == 2
    assert hamming_distance((1, 0, 1), (1, 0, 1)) == 0
    assert hamming_distance((1, 0, 1), (0, 0, 1)) == 1
    with pytest.raises(ValueError):
        hamming_distance((1, 0), (1, 0, 1))


def test_balanced_weight_examples():
    assert balanced_weight((1, 1, 0, 1)) == 1
    assert balanced_weight((1, 1, 1, 1, 1)) == 0
    assert balanced_weight((0, 1, 2)) == 2


def test_split_balanced_weight_examples():
    assert split_balanced_weight((0,) * 6, 2, 3) == 0
    assert split_balanced_weight((1, 0, 0, 1, 1, 1), 2, 3) == 1
    assert split_balanced_weight((1, 1, 0, 1, 0, 1), 2, 3) == 3
    with pytest.raises(ValueError):
        split_balanced_weight((1, 0, 0), 2, 2)


def test_weight_dominates_balanced_weight_exhaustive():
    for q in (2, 3):
        for length in range(1, 11 if q == 2 else 8):
            for w in itertools.product(range(q), repeat=length):
                assert hamming_weight(w) >= balanced_weight(w)


def test_brute_force_distance_examples():
    assert brute_force_distance(REP3) == 3
    assert brute_force_distance(I3) == 1
    parity = GeneratorMatrixCode(2, [(1, 0, 1), (0, 1, 1)])
    assert brute_force_distance(parity) == 2


def test_brute_force_distance_vs_naive():
    rng = random.Random(13)
    for q in (2, 3, 5, 7):
        for _ in range(10):
            code = _random_code(rng, q, 7, 3)
            naive = min(
                hamming_weight(cw)
                for m, cw in iter_codewords(code)
                if any(m)
            )
            assert brute_force_distance(code) == naive


def _naive_nearest(code, w):
    """Nearest codeword by plain enumeration, ties to the smallest message."""
    pairs = iter_codewords(code)
    dist, _, cw = min((hamming_distance(cw, w), m, cw) for m, cw in pairs)
    return cw, dist


def _check_scans_against_naive(code, t, words):
    """Every block scan equals its iter_codewords reference on this code."""
    blocks = list(code_core._codeword_blocks(code))
    rows = max(1, code_core.SCAN_BLOCK // code.n)
    assert [start for start, _ in blocks] == list(
        itertools.accumulate([0] + [len(b) for _, b in blocks[:-1]])
    )
    assert all(1 <= len(b) <= rows for _, b in blocks)
    # the yielded array is reused, so each block is read before the next
    scanned = [tuple(r.tolist()) for _, b in code_core._codeword_blocks(code) for r in b]
    assert scanned == [cw for _, cw in iter_codewords(code)]
    nonzero = [cw for m, cw in iter_codewords(code) if any(m)]
    naive = min(map(hamming_weight, nonzero), default=math.inf)
    assert brute_force_distance(code) == naive
    assert brute_force_balanced_profile(code, t) == min(
        (split_balanced_weight(cw, t, code.n // t) for cw in nonzero), default=math.inf
    )
    for w in words:
        assert nearest_codeword(code, w) == _naive_nearest(code, w)


@pytest.mark.parametrize("scan_block", [None, 1, 40], ids=["default", "row", "rows3"])
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("q, k", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_codeword_scans_match_naive(q, k, t, scan_block, monkeypatch):
    # 40 symbols hold 3 codewords of length 12: a partial digit for q >= 5
    if scan_block is not None:
        monkeypatch.setattr(code_core, "SCAN_BLOCK", scan_block)
    rng = random.Random(1000 * q + 10 * k + t)
    for _ in range(2):
        code = _random_code(rng, q, 12, k)
        words = [tuple(rng.randrange(q) for _ in range(12)) for _ in range(10)]
        _check_scans_against_naive(code, t, words)


@pytest.mark.parametrize("q, dtype", [(127, np.uint8), (131, np.uint16)])
def test_codeword_scans_straddle_narrow_dtype(q, dtype, monkeypatch):
    # uint8 holds a sum of two symbols only while 2(q-1) <= 255; with 10 rows
    # a block, q > 10 splits the one digit into runs, so heads reach q-1
    monkeypatch.setattr(code_core, "SCAN_BLOCK", 40)
    rng = random.Random(q)
    code = GeneratorMatrixCode(q, [(1, q - 1, 2, q - 2)])
    assert {b.dtype for _, b in code_core._codeword_blocks(code)} == {np.dtype(dtype)}
    words = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(5)]
    _check_scans_against_naive(code, 2, words)


def test_nearest_codeword_ties_go_to_smallest_message(monkeypatch):
    rep = GeneratorMatrixCode(3, [(1, 1)])
    rng = random.Random(47)
    code = _random_code(rng, 3, 8, 3)
    pairs = list(iter_codewords(code))
    ties = []
    for (m1, c1), (m2, c2) in rng.sample(list(itertools.combinations(pairs, 2)), 40):
        # agree with c1 on half the positions where they differ, c2 on the rest
        diff = [i for i in range(8) if c1[i] != c2[i]]
        w = list(c1)
        for i in diff[: len(diff) // 2]:
            w[i] = c2[i]
        if len(diff) % 2:
            w[diff[-1]] = 3 - c1[diff[-1]] - c2[diff[-1]]
        ties.append(tuple(w))
    for scan_block in (code_core.SCAN_BLOCK, 8, 2):
        monkeypatch.setattr(code_core, "SCAN_BLOCK", scan_block)
        # (1, 2) is one symbol from both (1, 1) and (2, 2)
        assert nearest_codeword(rep, (1, 2)) == ((1, 1), 1)
        assert nearest_codeword(rep, (2, 1)) == ((1, 1), 1)
        assert nearest_codeword(rep, (0, 2)) == ((0, 0), 1)
        for w in ties:
            assert nearest_codeword(code, w) == _naive_nearest(code, w)


def test_brute_force_balanced_profile_examples():
    two_block_rep = GeneratorMatrixCode(2, [(1, 1)])
    assert brute_force_balanced_profile(two_block_rep, 2) == 1
    rng = random.Random(17)
    for q in (2, 3):
        code = _random_code(rng, q, 8, 3)
        naive = min(
            split_balanced_weight(cw, 2, 4)
            for m, cw in iter_codewords(code)
            if any(m)
        )
        assert brute_force_balanced_profile(code, 2) == naive
    with pytest.raises(ValueError):
        brute_force_balanced_profile(REP3, 2)  # 3 not divisible by 2


def test_nearest_codeword_examples():
    cw, dist = nearest_codeword(REP3, (1, 1, 1))
    assert cw == (1, 1, 1) and dist == 0
    cw, dist = nearest_codeword(REP3, (1, 0, 0))
    assert cw == (0, 0, 0) and dist == 1
    cw, dist = nearest_codeword(REP3, (1, 1, 0))
    assert cw == (1, 1, 1) and dist == 1


def test_nearest_codeword_recovers_within_half_distance():
    rng = random.Random(19)
    fixtures = [
        (REP5, 5),
        (PARITY3, 2),
        (_random_code(rng, 3, 9, 4), None),
    ]
    for code, known_d in fixtures:
        d = known_d if known_d is not None else brute_force_distance(code)
        for _ in range(500):
            m = tuple(rng.randrange(code.q) for _ in range(code.k))
            cw = code.encode(m)
            w = list(cw)
            max_wt = (d - 1) // 2
            for pos in rng.sample(range(code.n), max_wt):
                w[pos] = (w[pos] + rng.randrange(1, code.q)) % code.q
            best, dist = nearest_codeword(code, tuple(w))
            assert best == cw
            assert dist == hamming_distance(tuple(w), cw)


def test_distance_invariant_under_coordinate_permutation():
    rng = random.Random(29)
    for q in (2, 3):
        code = _random_code(rng, q, 8, 4)
        perm = list(range(8))
        rng.shuffle(perm)
        permuted = GeneratorMatrixCode(
            q, [tuple(col[p] for p in perm) for col in code.columns]
        )
        assert brute_force_distance(code) == brute_force_distance(permuted)


def test_dual_basis_examples():
    assert dual_basis(I3).k == 0
    rep_dual = dual_basis(REP3)
    assert rep_dual.k == 2
    parity_dual = dual_basis(PARITY3)
    assert parity_dual.k == 1
    # the dual of the parity code is the repetition code
    assert set(cw for _, cw in iter_codewords(parity_dual)) == {
        (0, 0, 0),
        (1, 1, 1),
    }


def _assert_dual(code):
    dual = dual_basis(code)
    assert dual.k == code.n - code.k
    assert not (dual.columns @ code.columns.T % code.q).any()
    return dual


def test_dual_of_dual_spans_original():
    rng = random.Random(31)
    for q in (2, 3, 5):
        for _ in range(8):
            n = rng.randrange(4, 13)
            k = rng.randrange(1, n)
            code = _random_code(rng, q, n, k)
            double = dual_basis(_assert_dual(code))
            assert double.k == code.k
            for col in code.columns:
                assert is_codeword(double, col)


@pytest.mark.parametrize("lead", ["zero", "dependent"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_dual_basis_with_pivots_past_the_leading_columns(q, lead):
    # two leading coordinates that are zero, or multiples of the third,
    # move the pivots of rref(M) off the first k columns
    rng = random.Random(33 + q)
    for _ in range(8):
        n = rng.randrange(5, 12)
        k = rng.randrange(2, n - 2)
        base = _random_code(rng, q, n - 2, k).columns
        first = base[:, :1] * (lead == "dependent")
        code = GeneratorMatrixCode(q, np.hstack([first, 2 * first % q, base]))
        assert code._pivots.tolist() != list(range(k))
        dual = _assert_dual(code)
        assert dual_basis(dual).k == k
        m = tuple(rng.randrange(q) for _ in range(k))
        assert code.unencode(code.encode(m)) == m


def test_dual_basis_reuses_the_construction_reduction(monkeypatch):
    shapes = []
    rref = code_core._rref

    def counted(mat, q):
        shapes.append(mat.shape)
        return rref(mat, q)

    monkeypatch.setattr(code_core, "_rref", counted)
    code = GeneratorMatrixCode(3, [(1, 2, 0, 1, 1), (0, 0, 1, 2, 1)])
    assert shapes == [(2, 7)]  # [M | I]
    dual_basis(code)
    dual_basis(code)
    # the dual's own [H | I] at its construction, and no second reduction of M
    assert shapes == [(2, 7), (3, 8)]


def test_is_codeword_examples():
    rng = random.Random(37)
    for _ in range(100):
        m = tuple(rng.randrange(2) for _ in range(2))
        assert is_codeword(PARITY3, PARITY3.encode(m))
    assert is_codeword(PARITY3, (0, 0, 0))
    # single flips fall outside any distance-2 code
    w = list(PARITY3.encode((1, 1)))
    w[2] ^= 1
    assert not is_codeword(PARITY3, tuple(w))


def test_iter_codewords_counts():
    assert sum(1 for _ in iter_codewords(PARITY3)) == 4
    assert sum(1 for _ in iter_codewords(REP3)) == 2


def test_oracle_budget_enforced(monkeypatch):
    monkeypatch.setenv("ORACLE_BUDGET", "10")
    code = GeneratorMatrixCode(2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(OracleBudgetExceeded):
        brute_force_distance(code)
    with pytest.raises(OracleBudgetExceeded):
        nearest_codeword(code, (0, 0, 0, 0))
    with pytest.raises(OracleBudgetExceeded):
        brute_force_balanced_profile(code, 2)
    # x^3 + x + 1 divides x^7 - 1: a cyclic code with 16 codewords
    base = CyclicCode(2, 7, (1, 1, 0, 1))
    with pytest.raises(OracleBudgetExceeded):
        d_balanced_check(base, 1)
    monkeypatch.setenv("ORACLE_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        brute_force_distance(code)


def test_budget_refusal_states_the_count_as_a_power(monkeypatch):
    # 2^20000 has more digits than Python turns into a str
    with pytest.raises(OracleBudgetExceeded, match=r"^distance scan needs 2\^20000 "):
        code_core._require_budget(2, 20000, "distance scan")
    monkeypatch.setenv("ORACLE_BUDGET", "81")
    code_core._require_budget(3, 4, "scan")  # exactly the budget
    code_core._require_budget(7, 0, "scan")
    with pytest.raises(OracleBudgetExceeded, match=r"needs 3\^5 .* budget is 81$"):
        code_core._require_budget(3, 5, "scan")


def test_capability_is_ceil_minus_one():
    # largest error count strictly below radius, including radii <= 0
    for num in range(-13, 14):
        for den in range(1, 7):
            r = Fraction(num, den)
            assert capability(r) == math.ceil(r) - 1
            assert capability(r) < r <= capability(r) + 1
    assert capability(3) == 2 and capability(0) == -1


def test_bounded_distance_decode_repetition():
    # radius 5/2 corrects up to 2 flips; radius 3/2 only 1
    for bits in itertools.product((0, 1), repeat=5):
        w = tuple(bits)
        wt = sum(bits)
        out = bounded_distance_decode(REP5, w, Fraction(5, 2))
        assert isinstance(out, Decoded)
        expected = (1, 1, 1, 1, 1) if wt >= 3 else (0, 0, 0, 0, 0)
        assert out.codeword == expected
        out = bounded_distance_decode(REP5, w, Fraction(3, 2))
        if min(wt, 5 - wt) <= 1:
            assert isinstance(out, Decoded)
        else:
            assert out is FAIL


def test_bounded_distance_decode_messages():
    rng = random.Random(41)
    code = PARITY3
    for _ in range(30):
        m = tuple(rng.randrange(2) for _ in range(2))
        out = bounded_distance_decode(code, code.encode(m), Fraction(1, 2))
        assert isinstance(out, Decoded) and out.message == m


def test_bounded_distance_decode_budget_guard(monkeypatch):
    # radius 4 at n=36 scans 1 + 36 + C(36,2) + C(36,3) = 7807 patterns
    code = build_sidon_dc(2, 18, (0, 7, 13)).code
    monkeypatch.setenv("ORACLE_BUDGET", "10")
    with pytest.raises(OracleBudgetExceeded):
        bounded_distance_decode(code, (0,) * 36, 4)
    monkeypatch.setenv("ORACLE_BUDGET", "7806")
    with pytest.raises(OracleBudgetExceeded):
        bounded_distance_decode(code, (0,) * 36, 4)
    monkeypatch.setenv("ORACLE_BUDGET", "7807")
    assert bounded_distance_decode(code, (0,) * 36, 4).codeword == (0,) * 36


def test_bounded_distance_decode_refuses_a_huge_pattern_count():
    # the count at length 15000 to weight 6999 has more digits than Python
    # turns into a str, and the refusal comes before it is summed
    code = GeneratorMatrixCode(2, [(1,) * 15000])
    with pytest.raises(OracleBudgetExceeded, match="to weight 6999 exceeds the budget"):
        bounded_distance_decode(code, (0,) * 15000, 7000)


def test_bounded_distance_decode_chunking_keeps_scan_order(monkeypatch):
    # the first hit in scan order must not depend on where chunks split a level
    rng = random.Random(43)
    cases = []
    for q, n, k, radius in ((2, 9, 3, 4), (3, 7, 2, 3), (5, 5, 2, Fraction(5, 2))):
        code = _random_code(rng, q, n, k)
        for _ in range(20):
            w = tuple(rng.randrange(q) for _ in range(n))
            cases.append((code, w, radius, bounded_distance_decode(code, w, radius)))
    for chunk in (1, 7):
        monkeypatch.setattr(code_core, "PATTERN_CHUNK", chunk)
        for code, w, radius, expected in cases:
            assert bounded_distance_decode(code, w, radius) == expected


def test_fail_is_falsy_singleton():
    assert not FAIL
    assert repr(FAIL) == "FAIL"
    out = bounded_distance_decode(REP3, (1, 1, 0), Fraction(1, 2))
    assert out is FAIL
