"""Acceptance checks runnable from both the CLI and the test suite.

Each criterion is a function that returns a human-readable detail string on
success and raises AssertionError (or anything else) on failure. A criterion
that cannot run under the configured ORACLE_BUDGET reports SKIP, never a
silent pass.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import cyclic_mul, is_prime, is_primitive_root, poly_irreducible
from .code_core import (
    FAIL,
    GeneratorMatrixCode,
    OracleBudgetExceeded,
    balanced_weight,
    brute_force_balanced_profile,
    brute_force_distance,
    hamming_weight,
    is_codeword,
    iter_codewords,
)
from .cyclic import dual_code, enumerate_cyclic_codes, generator_from_spanning_set
from .cyclic import max_irreducible_factor_degree
from .cyc_dc import build_rm_dual_dc, cyc_dc_decode, cyc_dc_encode, d_balanced_check
from .design_dc import (
    CirculantMatrix,
    build_sidon_dc,
    dc_encode,
    design_decode,
    column_majority,
    majority_decode,
    design_profile,
)
from .reed_muller import build_punctured_rm, reed_decode, rm_code, rm_encode
from .sidon import sidon_erdos_turan, sidon_for_length
from .weldon import build_wozencraft, fold_word, weldon_decode, weldon_encode


@dataclass
class CriterionResult:
    name: str
    status: str  # PASS, FAIL or SKIP
    detail: str
    seconds: float


def _crit_sidon_design() -> str:
    primes = [p for p in range(2, 102) if is_prime(p)]
    worst_b = 0
    for p in primes:
        s = sidon_erdos_turan(p)
        k = 2 * p * p
        indicator = [0] * k
        for e in s.elements:
            indicator[e] = 1
        prof = design_profile(CirculantMatrix(k, tuple(indicator)))
        assert prof.d == p, f"p={p}: column weight {prof.d} != {p}"
        assert prof.b <= 2, f"p={p}: support overlap {prof.b} > 2"
        worst_b = max(worst_b, prof.b)
    return f"{len(primes)} primes up to 101, max support overlap b={worst_b}"


def _crit_sidon_dc_distance() -> str:
    sdc = build_sidon_dc(2, 18, (0, 7, 13))
    assert sdc.profile.d == 3 and sdc.profile.b <= 2
    dist = brute_force_distance(sdc.code)
    bound = Fraction(5, 2)
    assert dist >= bound, f"distance {dist} < {bound}"
    prof = brute_force_balanced_profile(sdc.code, 2)
    bal_bound = min(Fraction(5, 2), Fraction(18, 3))
    assert prof >= bal_bound, f"balanced profile {prof} < {bal_bound}"
    return f"exact distance {dist} >= 5/2, balanced profile {prof} >= 5/2"


def _crit_fig1_decoder() -> str:
    # Tie-break contract first: ties resolve to the smallest field element.
    # The self-test mutation hook flips this, so the assertions catch it.
    assert column_majority([0, 0, 1, 1], 2) == 0, "tie must resolve to 0"
    assert column_majority([1, 1, 0, 0, 2, 2], 3) == 0, "tie must resolve to 0"
    assert column_majority([2, 2, 1], 3) == 2

    rng = random.Random(1003)
    sdc = build_sidon_dc(2, 242, sidon_for_length(242))
    assert sdc.profile.d == 11
    assert sdc.profile.b <= 2
    n = 2 * sdc.k
    decodes = 0
    for _ in range(3):
        msg = tuple(rng.randrange(2) for _ in range(sdc.k))
        cw = np.array(dc_encode(sdc, msg), dtype=np.int64)
        out = design_decode(sdc, cw)
        assert out is not FAIL and out.message == msg, "clean codeword not decoded"
        decodes += 1
        # one batch per first error position i: the error at i, then (i, j > i)
        for i in range(n):
            words = np.tile(cw, (n - i, 1))
            words[:, i] ^= 1
            words[np.arange(1, n - i), np.arange(i + 1, n)] ^= 1
            c, ok = majority_decode(sdc, words)
            bad = np.flatnonzero(~ok | (c[:, : sdc.k] != msg).any(axis=1))
            assert not bad.size, f"wrong decode at {sorted({i, i + int(bad[0])})}"
            decodes += len(words)
    return f"{decodes} decodes at k=242, all exact"


def _crit_rm_facts() -> str:
    pairs = [(1, 3), (1, 4), (2, 4), (2, 5), (1, 5)]
    for r, m in pairs:
        dist = brute_force_distance(rm_code(r, m).generator_code)
        assert dist == 1 << (m - r), f"RM({r},{m}) distance {dist}"
    for r, m in [(1, 3), (1, 4), (2, 4)]:
        g1 = rm_code(r, m).generator_code.columns
        g2 = rm_code(m - r - 1, m).generator_code.columns
        assert not (g1 @ g2.T % 2).any(), f"RM({r},{m}) not orthogonal to dual"
    return f"{len(pairs)} exact distances, 3 orthogonality checks"


def _crit_reed_decoder() -> str:
    code = rm_code(1, 3)
    count = 0
    for msg, cw in iter_codewords(code.generator_code):
        for positions in itertools.chain([()], ((i,) for i in range(code.n))):
            w = list(cw)
            for pos in positions:
                w[pos] ^= 1
            out = reed_decode(code, w)
            assert out is not FAIL and out.codeword == cw, (
                f"RM(1,3) msg {msg} error {positions}"
            )
            assert out.message == msg
            count += 1

    rng = random.Random(1005)
    big = rm_code(2, 5)
    for _ in range(100):
        msg = tuple(rng.randrange(2) for _ in range(big.k))
        cw = rm_encode(big, msg)
        w = list(cw)
        for pos in rng.sample(range(big.n), 3):
            w[pos] ^= 1
        out = reed_decode(big, w)
        assert out is not FAIL and out.message == msg, "RM(2,5) weight-3 error"
        count += 1
    return f"{count} decodes exact (RM(1,3) exhaustive <=1 error, RM(2,5) weight 3)"


def _crit_punctured_cyclicity() -> str:
    for r, m in [(1, 3), (2, 4), (1, 4)]:
        pcode = build_punctured_rm(r, m)
        rows = pcode.full.evaluations[:, pcode.ordering]
        # both raise if the span of their rows is not closed under shift
        cyclic = generator_from_spanning_set(2, pcode.n, rows)
        assert cyclic.k == pcode.shortened.k + 1 == pcode.full.k, f"RM*({r},{m}) rank"
        code = GeneratorMatrixCode(2, rows)
        for col in code.columns:
            assert is_codeword(code, np.roll(col, 1)), f"RM*({r},{m}) not cyclic"
    return "shift closure holds for RM*(1,3), RM*(2,4), RM*(1,4)"


def _crit_cyclic_dc() -> str:
    dc = build_rm_dual_dc(4)
    assert (dc.d, dc.d_perp, dc.d_prime) == (7, 3, 3)
    base_dist = brute_force_distance(dc.base.generator_code)
    assert base_dist >= 7, f"base code distance {base_dist} < 7"
    dual_dist = brute_force_distance(dual_code(dc.base).generator_code)
    assert dual_dist == 3, f"dual distance {dual_dist} != 3"
    dc_dist = brute_force_distance(dc.code)
    assert dc_dist >= 3, f"double-circulant distance {dc_dist} < 3"

    rng = random.Random(1007)
    n = dc.n
    decodes = 0
    for _ in range(50):
        msg = tuple(rng.randrange(2) for _ in range(dc.k))
        cw = cyc_dc_encode(dc, msg)
        for pos in range(n):
            w = list(cw)
            w[pos] ^= 1
            out = cyc_dc_decode(dc, w)
            assert out is not FAIL and out.codeword == cw, (
                f"single error at {pos} not corrected"
            )
            assert out.message == msg
            decodes += 1
    assert d_balanced_check(dc.base, 7), "base code is not 7-balanced"
    prof = brute_force_balanced_profile(dc.code, 2)
    assert prof >= 3, f"balanced profile {prof} < 3"
    return (
        f"base d={base_dist}>=7, dual d={dual_dist}, DC d={dc_dist}>=3, "
        f"{decodes} single-error decodes, balanced profile {prof}>=3"
    )


def _crit_fold_inequality() -> str:
    checked = 0
    for q in (2, 3):
        for length in range(1, 9):
            for c in itertools.product(range(q), repeat=length):
                assert hamming_weight(fold_word(c, q)) >= balanced_weight(c)
                checked += 1
    rng = random.Random(1011)
    for _ in range(10_000):
        q = rng.choice((2, 3, 5))
        k = rng.choice((11, 19))
        c = tuple(rng.randrange(q) for _ in range(k))
        assert hamming_weight(fold_word(c, q)) >= balanced_weight(c)
        checked += 1
    return f"{checked} fold inequality checks"


def _crit_wozencraft() -> str:
    w1, d1 = build_wozencraft(2, 3, (0, 1))
    words = {cw for _, cw in iter_codewords(w1.code)}
    assert words == {
        (0, 0, 0, 0),
        (1, 0, 1, 1),
        (0, 1, 1, 0),
        (1, 1, 0, 1),
    }, f"unexpected codeword set {words}"
    assert brute_force_distance(w1.code) == 2

    w19, d19 = build_wozencraft(2, 19, (1, 8, 14))
    assert d19.balanced_d == Fraction(5, 2)
    dist = brute_force_distance(w19.code)
    assert dist >= Fraction(5, 2), f"distance {dist} < 5/2"

    rng = random.Random(1013)
    seen_betas = set()
    decodes = 0
    for _ in range(100):
        msg = tuple(rng.randrange(2) for _ in range(w19.dimension))
        cw = weldon_encode(w19, msg)
        # top coefficient folded out of the second block during encoding
        expected_beta = cyclic_mul(d19.circulants[0].terms, msg, 19, 2)[-1]
        for pos in range(len(cw)):
            w = list(cw)
            w[pos] ^= 1
            trace: list = []
            out = weldon_decode(w19, d19, w, trace=trace)
            assert out is not FAIL and out.codeword == cw, (
                f"single error at {pos} not corrected"
            )
            assert out.message == msg
            success = [b for b, ok in trace if ok]
            assert success == [(expected_beta,)], (
                f"decode succeeded at beta {success}, expected {expected_beta}"
            )
            seen_betas.add(expected_beta)
            decodes += 1
    assert seen_betas == {0, 1}, f"beta branches exercised: {seen_betas}"
    return (
        f"W1 codewords exact with distance 2; k=19: distance {dist} >= 5/2, "
        f"{decodes} single-error decodes, beta branches {sorted(seen_betas)}"
    )


def _crit_limitations() -> str:
    checked = 0
    for n in (3, 5, 11, 13):
        assert is_primitive_root(2, n)
        for code in enumerate_cyclic_codes(2, n):
            delta = brute_force_distance(code.generator_code)
            delta_dual = brute_force_distance(dual_code(code).generator_code)
            assert min(delta, delta_dual) <= 2, (
                f"n={n} g={code.g.tolist()}: min distance pair "
                f"({delta}, {delta_dual})"
            )
            checked += 1
    deg15 = max_irreducible_factor_degree(2, 15)
    assert deg15 <= 4, f"x^15-1 factor of degree {deg15}"
    deg7 = max_irreducible_factor_degree(2, 7)
    assert deg7 <= 3, f"x^7-1 factor of degree {deg7}"
    return (
        f"{checked} cyclic codes all have min(dist, dual dist) <= 2; "
        f"max factor degrees: x^15-1 -> {deg15}, x^7-1 -> {deg7}"
    )


def _crit_pk_irreducible() -> str:
    checked = 0
    for q in (2, 3, 5):
        for k in range(2, 41):
            if not is_prime(k) or k == q:
                continue
            if not is_primitive_root(q, k):
                continue
            p_k = np.ones(k, dtype=np.int64)
            assert poly_irreducible(p_k, q), f"p_{k} reducible over F_{q}"
            checked += 1
    assert checked > 0
    return f"{checked} (q, k) pairs with q primitive mod k; p_k irreducible in all"


CRITERIA: dict[str, tuple] = {
    "sidon-design": (_crit_sidon_design, "Sidon circulants have support overlap <= 2"),
    "sidon-dc-distance": (_crit_sidon_dc_distance, "k=18 fixture distance and balance"),
    "fig1-decoder": (_crit_fig1_decoder, "majority decoder exact through weight 2 at k=242"),
    "rm-facts": (_crit_rm_facts, "Reed-Muller distances and duality"),
    "reed-decoder": (_crit_reed_decoder, "majority-logic decoding of RM codes"),
    "punctured-cyclicity": (_crit_punctured_cyclicity, "punctured RM codes are cyclic"),
    "cyclic-dc": (_crit_cyclic_dc, "cyclic-based double-circulant fixture m=4"),
    "fold-inequality": (_crit_fold_inequality, "fold never decreases balanced weight"),
    "wozencraft": (_crit_wozencraft, "quotient-field codes end to end"),
    "cyclic-limitations": (_crit_limitations, "short full-period cyclic codes are weak"),
    "pk-irreducible": (_crit_pk_irreducible, "primitive root certifies p_k irreducible"),
}


def run_criterion(name: str) -> CriterionResult:
    fn, _ = CRITERIA[name]
    start = time.perf_counter()
    try:
        detail = fn()
        status = "PASS"
    except OracleBudgetExceeded as exc:
        status = "SKIP"
        detail = str(exc)
    except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
        status = "FAIL"
        detail = f"{type(exc).__name__}: {exc}"
    return CriterionResult(name, status, detail, time.perf_counter() - start)


def run_all(names=None) -> list[CriterionResult]:
    if names is None:
        names = list(CRITERIA)
    unknown = [n for n in names if n not in CRITERIA]
    if unknown:
        raise KeyError(f"unknown criteria: {', '.join(unknown)}")
    return [run_criterion(n) for n in names]
