import random

import numpy as np
import pytest

import polyref as ref
from dccodes.algebra import (
    BinaryExtensionField,
    PrimeField,
    QuotientFieldContext,
    _slice_product,
    _terms,
    build_gf2m,
    circulant_product,
    cyclic_mul,
    find_wozencraft_k,
    is_primitive_root,
    poly_divmod,
    poly_gcd,
    poly_irreducible,
    poly_mul,
    poly_reverse,
    quotient_mul,
    reduce_mod_pk,
)
from dccodes.weldon import build_wozencraft


def T(f):
    """A polynomial array as a tuple, for comparison with the reference."""
    assert isinstance(f, np.ndarray) and f.dtype == np.int64 and f.ndim == 1
    return tuple(f.tolist())


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_polynomial_canonical_form():
    # any int sequence is read mod q with trailing zeros stripped, and every
    # operation returns that canonical int64 array; zero is the empty array
    assert T(poly_mul([1, 0, 1, 0, 0], [1], 2)) == (1, 0, 1)
    assert T(poly_mul([3, -1, 0, 0], [1], 3)) == (0, 2)
    assert T(poly_mul([0, 0], [1, 2], 3)) == ()
    quot, rem = poly_divmod([1, 0, 3, 0], [1, 1, 0], 3)
    assert T(quot) == () and T(rem) == (1,)
    quot, rem = poly_divmod([0, 1, 1], [1, 1], 2)
    assert T(quot) == (0, 1) and T(rem) == ()
    assert T(poly_gcd([0, 0], [0], 5)) == ()
    assert T(poly_reverse([1, 1, 0, 0], 2, 2)) == (0, 1, 1)


def test_poly_mul_examples():
    assert T(poly_mul([1, 1], [1, 1], 2)) == (1, 0, 1)
    assert T(poly_mul([1, 1], [2], 3)) == (2, 2)
    assert T(poly_mul([1, 1], [1, 1, 1], 2)) == (1, 0, 0, 1)


def test_poly_mul_degree_law():
    rng = random.Random(11)
    for q in (2, 3, 5):
        for _ in range(50):
            f = ref.canon([rng.randrange(q) for _ in range(rng.randrange(1, 6))], q)
            g = ref.canon([rng.randrange(q) for _ in range(rng.randrange(1, 6))], q)
            prod = poly_mul(f, g, q)
            assert T(prod) == ref.mul(f, g, q)
            if not f or not g:
                assert len(prod) == 0
            else:
                assert len(prod) - 1 == (len(f) - 1) + (len(g) - 1)


def test_poly_divmod_examples():
    quot, rem = poly_divmod([1, 0, 0, 1], [1, 1], 2)
    assert T(quot) == (1, 1, 1) and T(rem) == ()
    quot, rem = poly_divmod([0, 0, 1], [1, 1, 1], 2)
    assert T(quot) == (1,) and T(rem) == (1, 1)
    quot, rem = poly_divmod([1, 2, 1], [1], 3)
    assert T(quot) == (1, 2, 1) and T(rem) == ()
    quot, rem = poly_divmod([1, 1], [1, 0, 1], 2)
    assert T(quot) == () and T(rem) == (1, 1)


def test_poly_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1], [], 2)
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1], [0, 3], 3)


def test_poly_divmod_round_trip_randomized():
    # f*g + r with deg r < deg g must divide back to exactly (f, r)
    rng = random.Random(23)
    for q in (2, 3, 5):
        for _ in range(1000):
            f = ref.canon([rng.randrange(q) for _ in range(rng.randrange(0, 7))], q)
            g = ()
            while not g:
                g = ref.canon([rng.randrange(q) for _ in range(rng.randrange(1, 5))], q)
            r = ref.canon([rng.randrange(q) for _ in range(len(g) - 1)], q)
            quot, rem = poly_divmod(ref.add(ref.mul(f, g, q), r, q), g, q)
            assert T(quot) == f and T(rem) == r
    # the largest field the CLI takes: unless the remainder is reduced at
    # every step, a dozen c*g subtractions from one coefficient wrap int64
    q = 2**31 - 1
    for _ in range(50):
        g = ref.canon([rng.randrange(q) for _ in range(12)] + [1], q)
        f = ref.canon([rng.randrange(q) for _ in range(20)], q)
        r = ref.canon([rng.randrange(q) for _ in range(12)], q)
        quot, rem = poly_divmod(ref.add(ref.mul(f, g, q), r, q), g, q)
        assert T(quot) == f and T(rem) == r


def test_poly_gcd_small():
    assert T(poly_gcd([1, 0, 1], [1, 1], 2)) == (1, 1)
    assert T(poly_gcd([], [], 2)) == ()
    # gcd is monic over F_3
    assert T(poly_gcd([2, 2], [2, 2], 3)) == (1, 1)


def test_poly_reverse_examples():
    assert T(poly_reverse([1, 0, 1], 2, 2)) == (1, 0, 1)
    assert T(poly_reverse([1, 2], 1, 3)) == (2, 1)
    assert T(poly_reverse([1, 1], 2, 2)) == (0, 1, 1)


def test_poly_reverse_involution_and_errors():
    rng = random.Random(31)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        h = ref.canon([rng.randrange(q) for _ in range(rng.randrange(0, 6))], q)
        k = max(len(h) - 1, 0) + rng.randrange(0, 3)
        assert T(poly_reverse(poly_reverse(h, k, q), k, q)) == h
    with pytest.raises(ValueError):
        poly_reverse([1, 1, 1], 1, 2)
    with pytest.raises(ValueError):
        poly_reverse([1], -1, 2)


def test_cyclic_mul_examples():
    a = _terms(np.array([1, 1]))
    assert a == ((0, 1), (1, 1))
    assert cyclic_mul(a, [0, 1], 3, 2) == (0, 1, 1)
    assert cyclic_mul(a, (0, 0, 1), 3, 2) == (1, 0, 1)
    b = _terms(np.array([1, 0, 2, 1]))
    assert cyclic_mul(b, [1], 4, 3) == (1, 0, 2, 1)
    assert cyclic_mul((), [1, 2], 4, 3) == (0, 0, 0, 0)


def _circulant_reference(a_vec, msgs, k, q):
    """Explicit k x k circulant matrix product, as an independent oracle."""
    mat = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        for i in range(k):
            mat[i, j] = a_vec[(i - j) % k]
    return (mat @ msgs.T).T % q


def test_cyclic_mul_matches_explicit_circulant_exhaustive():
    for q, kmax in ((2, 8), (3, 4)):
        for k in range(1, kmax + 1):
            vecs = np.array(
                [[(idx // q**i) % q for i in range(k)] for idx in range(q**k)],
                dtype=np.int64,
            )
            for a_idx in range(q**k):
                a_vec = [(a_idx // q**i) % q for i in range(k)]
                expected = _circulant_reference(a_vec, vecs, k, q)
                a_terms = _terms(np.array(a_vec))
                for m_row, want in zip(vecs, expected):
                    got = cyclic_mul(a_terms, m_row.tolist(), k, q)
                    assert got == tuple(want.tolist())


def test_cyclic_mul_matches_explicit_circulant_random_f3():
    rng = random.Random(47)
    for _ in range(2000):
        k = rng.randrange(5, 9)
        a_vec = [rng.randrange(3) for _ in range(k)]
        m_vec = [rng.randrange(3) for _ in range(k)]
        expected = _circulant_reference(
            a_vec, np.array([m_vec], dtype=np.int64), k, 3
        )[0]
        got = cyclic_mul(_terms(np.array(a_vec)), m_vec, k, 3)
        assert got == tuple(expected.tolist())


def test_cyclic_mul_degree_bounds():
    with pytest.raises(ValueError):
        cyclic_mul(((0, 1), (3, 1)), [1], 3, 2)
    with pytest.raises(ValueError):
        cyclic_mul(((0, 1),), [1, 0, 0, 1], 3, 3)


@pytest.mark.parametrize(
    "product", [circulant_product, _slice_product], ids=["selected", "slices"],
)
def test_circulant_product_int64_bound(product):
    # Python-int arithmetic is the reference; a column whose products need
    # more than int64 is refused, not answered with wrapped symbols
    q = 2**31 - 1
    with pytest.raises(ValueError, match="int64"):
        product(((0, q - 1), (1, q - 1), (2, q - 1)), [q - 1] * 3, q)
    rng = random.Random(53)
    for terms in [((0, q - 1), (3, q - 1)), ((1, q - 2), (2, 5), (4, 7))]:
        # (q-1) * sum(a) is below 2^63, so int64 holds every entry
        assert (q - 1) * sum(a for _, a in terms) < 2**63
        for _ in range(5):
            x = [rng.randrange(-q, 2 * q) for _ in range(5)]
            want = [sum(a * x[(i - s) % 5] for s, a in terms) % q for i in range(5)]
            assert product(terms, x, q).tolist() == want


def test_reduce_mod_pk_examples():
    ctx = QuotientFieldContext(2, 3)
    assert T(reduce_mod_pk([0, 0, 1], ctx)) == (1, 1)
    assert T(reduce_mod_pk([], ctx)) == (0, 0)
    assert T(reduce_mod_pk([1, 1, 1], ctx)) == (0, 0)
    with pytest.raises(ValueError):
        reduce_mod_pk([0, 0, 0, 1], ctx)


def test_reduce_mod_pk_matches_divmod_exhaustive_f2():
    for k in (3, 5, 11, 13):
        ctx = QuotientFieldContext(2, k)
        pk = ref.p_k(ctx)
        for bits in range(1 << k):
            f = [(bits >> i) & 1 for i in range(k)]
            rem = ref.div(f, pk, 2)[1]
            assert T(reduce_mod_pk(f, ctx)) == ref.padded(rem, k - 1)


def test_reduce_mod_pk_matches_divmod_random():
    rng = random.Random(59)
    for q, k in ((3, 5), (3, 7), (5, 3), (5, 7)):
        ctx = QuotientFieldContext(q, k)
        pk = ref.p_k(ctx)
        for _ in range(300):
            f = [rng.randrange(q) for _ in range(k)]
            rem = ref.div(f, pk, q)[1]
            assert T(reduce_mod_pk(f, ctx)) == ref.padded(rem, k - 1)


def test_quotient_context_needs_no_irreducibility_test(monkeypatch):
    # q primitive mod prime k already makes p_k irreducible, so building H
    # runs no polynomial irreducibility test, even at k=317
    def forbidden(*args, **kwargs):
        raise AssertionError("poly_irreducible called")

    monkeypatch.setattr("dccodes.algebra.poly_irreducible", forbidden)
    assert QuotientFieldContext(2, 317).k == 317
    w, _ = build_wozencraft(2, 59)
    assert w.ctx.k == 59


def test_quotient_context_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QuotientFieldContext(2, 7)  # 2 has order 3 mod 7
    with pytest.raises(ValueError):
        QuotientFieldContext(2, 9)  # not prime
    with pytest.raises(ValueError):
        QuotientFieldContext(3, 3)  # shared factor


def test_quotient_mul_examples():
    ctx = QuotientFieldContext(2, 3)
    u = (1, 1)
    assert T(quotient_mul(u, u, ctx)) == (0, 1)
    assert T(quotient_mul(u, ref.one(ctx), ctx)) == u
    assert T(quotient_mul(u, ref.zero(ctx), ctx)) == ref.zero(ctx)
    with pytest.raises(ValueError):
        quotient_mul(u, (1,), ctx)


def test_quotient_mul_field_axioms_exhaustive_f4():
    ctx = QuotientFieldContext(2, 3)

    def mul(u, v):
        return T(quotient_mul(u, v, ctx))

    elems = list(ref.elements(ctx))
    assert len(elems) == 4
    for u in elems:
        for v in elems:
            assert mul(u, v) == mul(v, u)
            for w in elems:
                assert mul(mul(u, v), w) == mul(u, mul(v, w))
                s = tuple((a + b) % 2 for a, b in zip(v, w))
                dist_right = tuple((a + b) % 2 for a, b in zip(mul(u, v), mul(u, w)))
                assert mul(u, s) == dist_right


def _qpow(u, e, ctx):
    acc = ref.one(ctx)
    base = u
    while e:
        if e & 1:
            acc = T(quotient_mul(acc, base, ctx))
        base = T(quotient_mul(base, base, ctx))
        e >>= 1
    return acc


def test_quotient_mul_random_samples_and_orders():
    # associativity/commutativity/distributivity on random triples in a
    # larger field, plus the order-divides-group-size law
    ctx = QuotientFieldContext(2, 11)
    rng = random.Random(61)
    group = 2**10 - 1

    def mul(u, v):
        return T(quotient_mul(u, v, ctx))

    def rand_elem():
        return tuple(rng.randrange(2) for _ in range(10))

    for _ in range(200):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert mul(u, v) == mul(v, u)
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        s = tuple((a + b) % 2 for a, b in zip(v, w))
        assert mul(u, s) == tuple((a + b) % 2 for a, b in zip(mul(u, v), mul(u, w)))
    for _ in range(25):
        u = rand_elem()
        if not any(u):
            continue
        assert _qpow(u, group, ctx) == ref.one(ctx)


def test_poly_irreducible_examples():
    assert poly_irreducible([1, 1, 1], 2)
    assert not poly_irreducible([1, 0, 1], 2)
    assert poly_irreducible([1, 1, 1, 1, 1], 2)
    assert poly_irreducible([2, 1], 3)
    with pytest.raises(ValueError):
        poly_irreducible([1], 2)
    with pytest.raises(ValueError):
        poly_irreducible([1, 3], 3)  # degree 0 once read mod 3


def test_poly_irreducible_matches_trial_division():
    # every monic polynomial up to degree 8 over F_2 and degree 4 over F_3
    for q, max_deg in ((2, 8), (3, 4)):
        for deg in range(1, max_deg + 1):
            for f in ref.monic_polys(q, deg):
                assert poly_irreducible(f, q) == ref.irreducible(f, q)


def test_is_primitive_root_examples():
    assert is_primitive_root(2, 5)
    assert not is_primitive_root(2, 7)
    assert is_primitive_root(2, 19)
    with pytest.raises(ValueError):
        is_primitive_root(2, 9)


def test_find_wozencraft_k_examples():
    assert find_wozencraft_k(2, 2) == 3
    assert find_wozencraft_k(2, 6) == 11
    assert find_wozencraft_k(3, 4) == 5
    with pytest.raises(LookupError):
        find_wozencraft_k(2, 8, search_limit=10)


# m -> (modulus with bit i the coefficient of x^i, generator). The generator
# is not always x: punctured_ordering walks its powers, so both are pinned.
GF2M_PINNED = {
    1: (0b11, 1),
    2: (0b111, 2),
    3: (0b1011, 2),
    4: (0b10011, 2),
    5: (0b100101, 2),
    6: (0b1000011, 2),
    7: (0b10000011, 2),
    8: (0b100011011, 3),
    9: (0b1000000011, 7),
    10: (0b10000001001, 2),
    11: (0b100000000101, 2),
    12: (0b1000000001001, 3),
}


def test_build_gf2m_moduli():
    for m, (modulus, generator) in GF2M_PINNED.items():
        gf = build_gf2m(m)
        assert gf.modulus == modulus
        assert gf.generator == generator
    with pytest.raises(ValueError):
        build_gf2m(0)
    with pytest.raises(ValueError):
        build_gf2m(21)


def test_build_gf2m_generator_orders():
    for m in range(1, 7):
        gf = build_gf2m(m)
        bits = [(gf.modulus >> i) & 1 for i in range(m + 1)]
        assert poly_irreducible(bits, 2) and ref.irreducible(bits, 2)
        assert gf.element_order(gf.generator) == 2**m - 1


def test_gf2m_arithmetic_spot():
    gf = build_gf2m(3)
    # x * x * x == x^3 == 1 + x under modulus 1 + x + x^3
    x = 0b010
    assert gf.mul(gf.mul(x, x), x) == 0b011


def test_binary_extension_field_validation():
    with pytest.raises(ValueError):
        BinaryExtensionField(2, 0b101, 0b10)  # (1+x)^2 reducible
    with pytest.raises(ValueError):
        BinaryExtensionField(2, 0b1011, 0b10)  # degree 3, not 2
    with pytest.raises(ValueError):
        BinaryExtensionField(2, -0b111, 0b10)
    assert BinaryExtensionField(2, 0b111, 0b10).mul(0b10, 0b10) == 0b11
