import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import polyref as ref
from maxrss import run_script
from dccodes import algebra, code_core, design_dc
from dccodes.algebra import cyclic_mul
from dccodes.code_core import (
    FAIL,
    Decoded,
    brute_force_balanced_profile,
    brute_force_distance,
    hamming_distance,
)
from dccodes.cyc_dc import build_rm_dual_dc, cyc_dc_encode
from dccodes.design_dc import (
    CirculantMatrix,
    DesignProfile,
    SidonDCCode,
    build_sidon_dc,
    column_majority,
    dc_encode,
    design_decode,
    design_profile,
    majority_decode,
)
from dccodes.sidon import SidonSet, sidon_erdos_turan, sidon_for_length
from dccodes.weldon import build_wozencraft, weldon_encode

K18 = build_sidon_dc(2, 18, (0, 7, 13))


def test_design_profile_examples():
    assert design_profile(CirculantMatrix(3, (1, 1, 0))) == DesignProfile(2, 1)
    assert design_profile(CirculantMatrix(4, (1, 1, 1, 1))) == DesignProfile(4, 4)
    prof = K18.profile
    assert prof.d == 3 and prof.b <= 2


def test_circulant_columns_shift():
    c = CirculantMatrix(4, (1, 2, 0, 0))
    assert c.column(0) == (1, 2, 0, 0)
    assert c.column(1) == (0, 1, 2, 0)
    assert c.column(3) == (2, 0, 0, 1)
    assert c.support == (0, 1)


# (q, k, kind of first column); "trailing" columns end in zeros.
# "wide" columns hold 320 terms, as the rm-dc m=10 generator does; dense
# q=257 columns sum products far above q^2 before reducing.
CIRCULANT_CASES = [
    *((q, k, density) for density in ("dense", "sparse") for k in (1, 2, 7, 18, 242)
      for q in (2, 3, 5)),
    *((q, 2000, "sparse") for q in (2, 3, 5)),
    *((q, 255, "dense") for q in (2, 3, 5, 257)),
    *((q, k, "trailing") for k in (2, 18, 255) for q in (2, 3, 5)),
    *((q, 1023, "wide") for q in (2, 3)),
]


@pytest.mark.parametrize(
    "q,k,density", CIRCULANT_CASES, ids=[f"{d}-{k}-{q}" for q, k, d in CIRCULANT_CASES]
)
def test_circulant_act_matches_cyclic_mul(q, k, density):
    rng = random.Random(f"{q}-{k}-{density}")
    if density in ("sparse", "wide"):
        first = [0] * k
        weight = 320 if density == "wide" else math.isqrt(k) + 2
        for i in rng.sample(range(k), min(k, weight)):
            first[i] = rng.randrange(1, q)
    else:
        first = [rng.randrange(q) for _ in range(k)]
    if density == "trailing":
        first[0] = 1
        first[k // 2 + 1 :] = [0] * (k - k // 2 - 1)
    a = CirculantMatrix(k, tuple(first))
    batch = [[rng.randrange(-q, 2 * q) for _ in range(k)] for _ in range(6)]
    batch[-1][k // 2 :] = [0] * (k - k // 2)
    expected = [ref.cyclic_mul(first, row, k, q) for row in batch]
    for row, exp in zip(batch, expected):
        out = a.act(row, q)
        assert out.dtype == np.int64 and out.shape == (k,)
        assert tuple(out.tolist()) == exp
        assert cyclic_mul(a.terms, row, k, q) == exp
        assert cyclic_mul(a.terms, np.array(row), k, q) == exp
    out = a.act(np.array(batch), q)
    assert out.dtype == np.int64 and out.shape == (len(batch), k)
    assert [tuple(r) for r in out.tolist()] == expected
    # both regimes, whichever one circulant_product picks for this q
    for row, exp in zip(batch, expected):
        out = algebra._slice_product(a.terms, row, q)
        assert out.dtype == np.int64 and tuple(out.tolist()) == exp
        if q == 2:
            out = algebra._packed_product(a.terms, algebra.gf2_bits(row), k)
            assert out.dtype == np.uint8 and tuple(out.tolist()) == exp


def test_circulant_product_regime_selection(monkeypatch):
    # q alone picks the regime: every q=2 operand, one vector or a batch,
    # takes the packed lanes, and q > 2 takes the slices
    rm8 = build_rm_dual_dc(8)
    sidon = build_sidon_dc(2, 2000, sidon_for_length(2000))
    calls = []
    for name in ("_slice_product", "_packed_product"):
        real = getattr(algebra, name)
        monkeypatch.setattr(
            algebra, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a)
        )
    for circulant, x, q, regime in [
        (rm8.circulant, np.ones(rm8.k, dtype=np.int64), 2, "_packed_product"),
        (rm8.circulant, np.ones((2, rm8.k), dtype=np.int64), 2, "_packed_product"),
        (rm8.circulant, np.ones(rm8.k, dtype=np.int64), 3, "_slice_product"),
        (sidon.circulant, np.ones(sidon.k, dtype=np.int64), 2, "_packed_product"),
        (sidon.circulant, [1] * sidon.k, 2, "_packed_product"),
        (sidon.circulant, np.ones((3, sidon.k), dtype=np.int64), 2, "_packed_product"),
        (sidon.circulant, np.ones(sidon.k, dtype=np.int64), 5, "_slice_product"),
    ]:
        calls.clear()
        circulant.act(x, q)
        assert calls == [regime]
    # a q=2 quotient is one packed-int product, in neither regime
    second_block = rm8.encode([1] * rm8.k)[rm8.k :]
    calls.clear()
    rm8.base.quotient(second_block)
    assert calls == []


# (k, rows): one vector (rows None) at every k; at the Sidon sizes, whose 2k
# bit lanes are not byte aligned, also (0, k), (1, k) and (5, k) batches
PACKED_CASES = [(k, None) for k in (1, 7, 9, 255, 1023, 2000)] + [
    (k, rows) for k in (18, 59, 242, 269) for rows in (None, 0, 1, 5)
]


@pytest.mark.parametrize(
    "k,rows",
    PACKED_CASES,
    ids=[f"{k}" if r is None else f"{k}-{r}rows" for k, r in PACKED_CASES],
)
def test_packed_product_matches_reference(k, rows):
    # coefficient 2 drops out at q=2 and 3 acts as 1; x entries outside
    # {0, 1}, negatives included, reduce first
    rng = random.Random(f"packed-{k}")
    first = [0] * k
    for s in rng.sample(range(k), min(k, 2 * math.isqrt(k) + 1)):
        first[s] = rng.choice((1, 2, 3))
    terms = tuple((s, a) for s, a in enumerate(first) if a)
    if rows is not None:
        # a batch, one lane per row, equals the slices row by row
        x = np.array([rng.randrange(-5, 300) for _ in range(rows * k)])
        x = x.reshape(rows, k)
        out = algebra.circulant_product(terms, x, 2)
        assert out.dtype == np.int64 and out.shape == (rows, k)
        for row, got in zip(x, out):
            assert np.array_equal(got, algebra._slice_product(terms, row, 2))
        return
    for _ in range(4):
        x = [rng.randrange(-5, 300) for _ in range(k)]
        exp = ref.cyclic_mul(first, x, k, 2)
        for form in (x, tuple(x), np.array(x)):
            out = algebra.circulant_product(terms, form, 2)
            assert out.dtype == np.int64 and tuple(out.tolist()) == exp
        out = algebra._packed_product(terms, algebra.gf2_bits(x), k)
        assert tuple(out.tolist()) == exp
        # a message shorter than k is zero padded, an empty one included
        short = x[: k // 2 + 1]
        exp = ref.cyclic_mul(first, short, k, 2)
        assert tuple(algebra._packed_product(terms, algebra.gf2_bits(short), k)) == exp
    for empty in ((), [], np.array([], dtype=np.int64)):
        assert cyclic_mul(terms, empty, k, 2) == (0,) * k


# sha256 of the generator columns, one line of digits per column, as the
# per-family builders produced them before the families shared one builder
PINNED_COLUMNS = [
    (lambda: build_sidon_dc(2, 18, (0, 7, 13)),
     "9ae15f45cbcf970b2a9ab4aa19cdc78a36a63d742ca046ac8e1430c549c0c91b"),
    (lambda: build_sidon_dc(3, 11, (0, 1, 3)),
     "fee7eef8290ae71ec1847f83f2026e5c2967c95b80d7427a9ef7dbd26156a5a0"),
    (lambda: build_rm_dual_dc(4),
     "ccbaf197af557a6736c9a203fd0667b765ee00de501f34c25bcccfd4a03eb51f"),
    (lambda: build_wozencraft(2, 19, (1, 8, 14))[1],
     "9024287930de9ab8d4ec7fc8d70356a2d0173cdaa598a1893b9b9427443fc222"),
]


@pytest.mark.parametrize(
    "build,digest", PINNED_COLUMNS, ids=["sidon-2-18", "sidon-3-11", "rm-4", "woz-2-19"]
)
def test_generator_columns_pinned(build, digest):
    code = build()
    cols = [tuple(col) for col in code.code.columns.tolist()]
    text = "\n".join("".join(map(str, col)) for col in cols)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    for j, col in enumerate(cols):
        unit = tuple(int(i == j) for i in range(code.k))
        assert col == unit + sum((a.column(j) for a in code.circulants), ())
        assert code.code.encode(unit) == code.encode(unit) == col


def test_build_sidon_dc_examples():
    small = build_sidon_dc(2, 3, (0, 1))
    assert small.circulant.first_column == (1, 1, 0)
    ternary = build_sidon_dc(3, 18, (0, 7, 13))
    assert ternary.circulant.support == K18.circulant.support
    assert ternary.q == 3
    with pytest.raises(ValueError):
        build_sidon_dc(2, 10, (0, 11))  # out of range
    with pytest.raises(ValueError):
        build_sidon_dc(2, 10, (0, 1, 2))  # not Sidon


def test_dc_encode_examples():
    small = build_sidon_dc(2, 3, (0, 1))
    assert dc_encode(small, (0, 0, 0)) == (0,) * 6
    assert dc_encode(small, (0, 1, 0)) == (0, 1, 0, 0, 1, 1)
    unit = (1,) + (0,) * 17
    assert dc_encode(K18, unit) == unit + K18.circulant.first_column


def test_distance_and_balanced_bounds_small_fixture():
    # k=8 keeps the oracle scans tiny: 2^8 codewords
    code = build_sidon_dc(2, 8, (0, 1, 3))
    dist = brute_force_distance(code.code)
    assert Fraction(dist) >= code.distance_bound
    prof = brute_force_balanced_profile(code.code, 2)
    assert Fraction(prof) >= code.balanced_bound


def test_design_bound_all_fixtures_to_500():
    sets = [sidon_erdos_turan(p) for p in (2, 3, 5, 7, 11, 13)]
    ks = [s.bound for s in sets]
    for s, k in zip(sets, ks):
        if k > 500:
            continue
        code = build_sidon_dc(2, k, s)
        assert code.profile.b <= 2
    for k in (50, 100, 242, 500):
        code = build_sidon_dc(2, k, sidon_for_length(k))
        assert code.profile.b <= 2


def test_majority_vote_examples_and_ties():
    assert column_majority([1, 1, 0], 2) == 1
    assert column_majority([0, 0, 1, 1], 2) == 0  # tie resolves low
    assert column_majority([2, 2, 1], 3) == 2
    assert column_majority([1, 1, 0, 0, 2, 2], 3) == 0
    # one vote set per column, as design_decode passes them
    votes = np.array([[1, 0, 2, 1], [1, 0, 2, 0], [0, 1, 1, 2], [0, 1, 0, 2]])
    assert column_majority(votes[:, :2], 2).tolist() == [0, 0]
    assert column_majority(votes, 3).tolist() == [0, 0, 2, 2]


def test_majority_vote_tie_hook(monkeypatch):
    monkeypatch.setenv("DCCODES_MAJORITY_TIE_HIGH", "1")
    assert column_majority([0, 0, 1, 1], 2) == 1
    assert column_majority([1, 1, 0, 0, 2, 2], 3) == 2
    assert column_majority([2, 2, 1], 3) == 2  # no tie, hook irrelevant
    votes = np.array([[1, 0, 2, 1], [1, 0, 2, 0], [0, 1, 1, 2], [0, 1, 0, 2]])
    assert column_majority(votes[:, :2], 2).tolist() == [1, 1]
    assert column_majority(votes, 3).tolist() == [1, 1, 2, 2]
    # batch: row 0's errors at 0 and 1 tie column 0's votes {0, 1, 3, 7}
    code = build_sidon_dc(2, 16, (0, 1, 3, 7))
    words = np.zeros((2, 32), dtype=np.int64)
    words[0, [16, 17]] = 1
    c, _ = majority_decode(code, words)
    assert c[:, 0].tolist() == [1, 0]  # [0, 0] with the hook off


def test_decode_clean_codewords():
    rng = random.Random(211)
    for code in (K18, build_sidon_dc(3, 18, (0, 7, 13))):
        for _ in range(50):
            m = tuple(rng.randrange(code.q) for _ in range(code.k))
            out = design_decode(code, dc_encode(code, m))
            assert isinstance(out, Decoded) and out.message == m
        for j in range(code.k):
            unit = tuple(int(i == j) for i in range(code.k))
            out = design_decode(code, dc_encode(code, unit))
            assert isinstance(out, Decoded) and out.message == unit


def test_decode_single_errors_exhaustive_k18():
    # radius d/(2b) at this fixture allows weight-1 correction
    assert K18.decode_radius > 1
    rng = random.Random(223)
    for _ in range(5):
        m = tuple(rng.randrange(2) for _ in range(18))
        cw = dc_encode(K18, m)
        for pos in range(36):
            w = list(cw)
            w[pos] ^= 1
            out = design_decode(K18, tuple(w))
            assert isinstance(out, Decoded) and out.message == m


def test_decode_never_exceeds_radius():
    rng = random.Random(227)
    radius = K18.decode_radius
    for trial in range(10000):
        if trial % 10 == 0:
            # plant near-codeword words so the accept path actually runs
            m = tuple(rng.randrange(2) for _ in range(18))
            w = list(dc_encode(K18, m))
            w[rng.randrange(36)] ^= 1
            w = tuple(w)
        else:
            w = tuple(rng.randrange(2) for _ in range(36))
        out = design_decode(K18, w)
        if out is not FAIL:
            assert Fraction(hamming_distance(out.codeword, w)) < radius


def test_adversarial_errors_on_one_column_support():
    # pile 3 errors onto one column's support: outcome must be Fail or the
    # transmitted codeword, never a wrong word passed off as Decoded
    rng = random.Random(229)
    code = build_sidon_dc(2, 242, sidon_for_length(242))
    supp = code.circulant.support
    for _ in range(20):
        m = tuple(rng.randrange(2) for _ in range(242))
        cw = dc_encode(code, m)
        col = rng.randrange(242)
        positions = [242 + (col + s) % 242 for s in supp[:3]]
        w = list(cw)
        for pos in positions:
            w[pos] ^= 1
        out = design_decode(code, tuple(w))
        if out is not FAIL:
            assert out.codeword == cw


def _reference_decode(code, w, tie_high):
    """Scalar re-implementation of the majority decoder, kept deliberately
    dumb so the vectorized path has something honest to answer to."""
    q, k = code.q, code.k
    supp = code.circulant.support
    d, b = code.profile.d, code.profile.b
    w0, w1 = list(w[:k]), list(w[k:])

    def act(vec):
        return ref.cyclic_mul(code.circulant.first_column, vec, k, q)

    aw0 = act(w0)
    y = [(aw0[j] - w1[j]) % q for j in range(k)]
    c0 = []
    for i in range(k):
        votes = [y[(i + s) % k] for s in supp]
        counts = [votes.count(v) for v in range(q)]
        best = max(counts)
        if tie_high:
            z_i = q - 1 - counts[::-1].index(best)
        else:
            z_i = counts.index(best)
        c0.append((w0[i] - z_i) % q)
    c = tuple(c0) + act(c0)
    if 2 * b * hamming_distance(c, w) < d:
        return c
    return None


@pytest.mark.parametrize("tie_high", [False, True])
def test_vectorized_decoder_matches_reference(monkeypatch, tie_high):
    if tie_high:
        monkeypatch.setenv("DCCODES_MAJORITY_TIE_HIGH", "1")
    else:
        monkeypatch.delenv("DCCODES_MAJORITY_TIE_HIGH", raising=False)
    rng = random.Random(233)
    plant = random.Random(239)
    fixtures = [
        build_sidon_dc(3, 18, (0, 7, 13)),
        build_sidon_dc(2, 16, (0, 1, 3, 7)),  # even d: binary ties reachable
        build_sidon_dc(5, 20, (0, 1, 3, 7, 12)),
    ]
    for code in fixtures:
        q, n = code.q, 2 * code.k
        words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(60)]
        # codewords with 0 to ceil(d/(2b)) + 1 errors: within the radius and past it
        for errors in range(math.ceil(code.decode_radius) + 2):
            for _ in range(10):
                m = [plant.randrange(q) for _ in range(code.k)]
                w = list(dc_encode(code, m))
                for pos in plant.sample(range(n), errors):
                    w[pos] = (w[pos] + plant.randrange(1, q)) % q
                words.append(tuple(w))
        expected = [_reference_decode(code, w, tie_high) for w in words]
        for w, exp in zip(words, expected):
            out = design_decode(code, w)
            if exp is None:
                assert out is FAIL
            else:
                assert isinstance(out, Decoded)
                assert out.codeword == exp
        # the same words as one batch, whole and in chunks of 7 rows
        for chunk in (code_core.PATTERN_CHUNK, 7 * code.profile.d):
            monkeypatch.setattr(design_dc, "PATTERN_CHUNK", chunk)
            c, ok = majority_decode(code, np.array(words))
            assert ok.tolist() == [exp is not None for exp in expected]
            for row, exp in zip(c, expected):
                if exp is not None:
                    assert tuple(row.tolist()) == exp


def test_sidon_dc_requires_two_elements():
    with pytest.raises(ValueError):
        SidonDCCode(2, 10, SidonSet((3,), 10))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_one_word_input_forms(q):
    # tuples, lists, ndarrays, numpy scalars, negatives and symbols >= 256
    # all name the same word mod q
    code = build_sidon_dc(q, 18, (0, 7, 13))
    rng = random.Random(241)
    w = list(dc_encode(code, [rng.randrange(q) for _ in range(18)]))
    w[5] = (w[5] + 1) % q
    expected = design_decode(code, tuple(w))
    assert isinstance(expected, Decoded)
    lifted = [v + q * rng.choice((-3, -1, 0, 200, 1000)) for v in w]
    forms = [
        list(w),
        np.array(w),
        np.array(w, dtype=np.uint8),
        [np.int64(v) for v in w],
        [np.uint8(v) for v in w],
        [-v for v in w] if q == 2 else [v - q for v in w],
        tuple(lifted),
        np.array(lifted),
        tuple(bool(v) for v in w) if q == 2 else tuple(w),
    ]
    for form in forms:
        assert design_decode(code, form) == expected
        c, ok = majority_decode(code, form)
        assert c.dtype == np.int64 and tuple(c.tolist()) == expected.codeword and ok
    for bad in (tuple(w[:-1]), list(w) + [0], np.array(w[1:]), [], [w, w]):
        with pytest.raises(ValueError, match="word must have length 36"):
            design_decode(code, bad)


ENCODERS = {
    "sidon-2": (dc_encode, lambda: build_sidon_dc(2, 242, sidon_for_length(242))),
    "sidon-3": (dc_encode, lambda: build_sidon_dc(3, 11, (0, 1, 3))),
    "rm-dc": (cyc_dc_encode, lambda: build_rm_dual_dc(4)),
    "wozencraft-2": (weldon_encode, lambda: build_wozencraft(2, 19, (1, 8, 14))[0]),
    "wozencraft-3": (weldon_encode, lambda: build_wozencraft(3, 7, (0, 1, 6))[0]),
}


@pytest.mark.parametrize("family", list(ENCODERS))
def test_encode_input_forms(family):
    # tuples, lists, int64 arrays, negatives and symbols >= 256 all encode as
    # the reduced message, into a tuple of Python ints
    encode, build = ENCODERS[family]
    code = build()
    q, k = code.q, code.code.k
    rng = random.Random(family)
    for _ in range(3):
        msg = [rng.randrange(q) for _ in range(k)]
        expected = code.code.encode(msg)
        lifted = [v + q * rng.choice((-3, -1, 0, 200, 1000)) for v in msg]
        forms = [
            tuple(msg), list(msg), np.array(msg), [np.int64(v) for v in msg],
            [v - q for v in msg], tuple(lifted), np.array(lifted),
        ]
        for form in forms:
            out = encode(code, form)
            assert type(out) is tuple and out == expected
            assert all(type(v) is int for v in out)
    for bad in (tuple(msg[:-1]), list(msg) + [0], np.array(msg[1:])):
        with pytest.raises(ValueError, match=f"message must have length {k}"):
            encode(code, bad)


def test_k200000_build_and_decode_memory():
    # no per-code vote table: a (d, k) intp index table alone would take
    # ~500 MB here (d = 313)
    out = run_script(
        """
import json, random, time
from dccodes.design_dc import build_sidon_dc, dc_encode, design_decode
from dccodes.sidon import sidon_for_length
code = build_sidon_dc(2, 200000, sidon_for_length(200000))
rng = random.Random(251)
m = tuple(rng.randrange(2) for _ in range(code.k))
w = list(dc_encode(code, m))
for pos in rng.sample(range(len(w)), 70):
    w[pos] ^= 1
start = time.perf_counter()
out = design_decode(code, w)
seconds = time.perf_counter() - start
print(json.dumps({"exact": bool(out) and out.message == m,
                  "radius": str(code.decode_radius), "seconds": seconds}))
""",
        timeout=120,
    )
    assert out["radius"] == "313/4" and out["exact"]
    assert out["mb"] <= 150, out
    assert out["seconds"] < 5, out


def test_huge_field_one_word_decode_is_fast():
    # no loop runs over the q field values: a one-word decode at q = 2^31 - 1
    # is as cheap as at q = 3
    out = run_script(
        """
import json, random, time
from dccodes.design_dc import build_sidon_dc, dc_encode, design_decode
q = 2**31 - 1
code = build_sidon_dc(q, 18, (0, 7, 13))
rng = random.Random(257)
m = tuple(rng.randrange(q) for _ in range(18))
w = list(dc_encode(code, m))
w[4] = (w[4] + 12345) % q
start = time.perf_counter()
hit = design_decode(code, w)
miss = design_decode(code, [rng.randrange(q) for _ in range(36)])
print(json.dumps({"exact": bool(hit) and hit.message == m, "miss": not miss,
                  "seconds": time.perf_counter() - start}))
""",
        timeout=60,
    )
    assert out["exact"] and out["miss"]
    assert out["seconds"] < 1, out
