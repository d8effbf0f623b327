import random

import numpy as np
import pytest

from dccodes.algebra import (
    NEG_INF,
    BinaryExtensionField,
    Polynomial,
    PrimeField,
    QuotientFieldContext,
    _slice_product,
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

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def P(coeffs, field):
    return Polynomial(tuple(coeffs), field)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_polynomial_canonical_form():
    p = P([1, 0, 1, 0, 0], F2)
    assert p.coeffs == (1, 0, 1)
    assert p.degree == 2
    zero = P([0, 0], F3)
    assert zero.coeffs == ()
    assert zero.degree == NEG_INF
    assert zero.degree < 0
    assert zero.is_zero()


def test_polynomial_padded_and_evaluate():
    p = P([1, 2], F3)
    assert p.padded(4) == (1, 2, 0, 0)
    with pytest.raises(ValueError):
        p.padded(1)


def test_poly_mul_examples():
    one_plus_x = P([1, 1], F2)
    assert poly_mul(one_plus_x, one_plus_x).coeffs == (1, 0, 1)
    assert poly_mul(P([1, 1], F3), P([2], F3)).coeffs == (2, 2)
    assert poly_mul(one_plus_x, P([1, 1, 1], F2)).coeffs == (1, 0, 0, 1)


def test_poly_mul_degree_law():
    rng = random.Random(11)
    for field in (F2, F3, F5):
        for _ in range(50):
            f = P([rng.randrange(field.q) for _ in range(rng.randrange(1, 6))], field)
            g = P([rng.randrange(field.q) for _ in range(rng.randrange(1, 6))], field)
            if f.is_zero() or g.is_zero():
                assert poly_mul(f, g).is_zero()
            else:
                assert poly_mul(f, g).degree == f.degree + g.degree


def test_poly_divmod_examples():
    quot, rem = poly_divmod(P([1, 0, 0, 1], F2), P([1, 1], F2))
    assert quot.coeffs == (1, 1, 1) and rem.is_zero()
    quot, rem = poly_divmod(P([0, 0, 1], F2), P([1, 1, 1], F2))
    assert quot.coeffs == (1,) and rem.coeffs == (1, 1)
    f = P([1, 2, 1], F3)
    quot, rem = poly_divmod(f, Polynomial.one(F3))
    assert quot == f and rem.is_zero()


def test_poly_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P([1], F2), Polynomial.zero(F2))


def test_poly_divmod_round_trip_randomized():
    # f*g + r with deg r < deg g must divide back to exactly (f, r)
    rng = random.Random(23)
    for q in (2, 3, 5):
        field = PrimeField(q)
        for _ in range(1000):
            f = P([rng.randrange(q) for _ in range(rng.randrange(0, 7))], field)
            g = Polynomial.zero(field)
            while g.is_zero():
                g = P([rng.randrange(q) for _ in range(rng.randrange(1, 5))], field)
            r = Polynomial.zero(field)
            if g.degree > 0:
                r = P([rng.randrange(q) for _ in range(g.degree)], field)
            quot, rem = poly_divmod(poly_mul(f, g) + r, g)
            assert quot == f and rem == r


def test_poly_gcd_small():
    g = poly_gcd(P([1, 0, 1], F2), P([1, 1], F2))
    assert g.coeffs == (1, 1)
    assert poly_gcd(Polynomial.zero(F2), Polynomial.zero(F2)).is_zero()
    # gcd is monic over F_3
    g = poly_gcd(P([2, 2], F3), P([2, 2], F3))
    assert g.coeffs == (1, 1)


def test_poly_reverse_examples():
    assert poly_reverse(P([1, 0, 1], F2), 2).coeffs == (1, 0, 1)
    assert poly_reverse(P([1, 2], F3), 1).coeffs == (2, 1)
    assert poly_reverse(P([1, 1], F2), 2).coeffs == (0, 1, 1)


def test_poly_reverse_involution_and_errors():
    rng = random.Random(31)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        field = PrimeField(q)
        h = P([rng.randrange(q) for _ in range(rng.randrange(0, 6))], field)
        k = max(h.degree, 0) + rng.randrange(0, 3)
        assert poly_reverse(poly_reverse(h, k), k) == h
    with pytest.raises(ValueError):
        poly_reverse(P([1, 1, 1], F2), 1)


def test_cyclic_mul_examples():
    a = P([1, 1], F2)
    assert cyclic_mul(a, P([0, 1], F2), 3) == (0, 1, 1)
    assert cyclic_mul(a, P([0, 0, 1], F2), 3) == (1, 0, 1)
    b = P([1, 0, 2, 1], F3)
    assert cyclic_mul(b, Polynomial.one(F3), 4) == (1, 0, 2, 1)


def _circulant_reference(a_vec, msgs, k, q):
    """Explicit k x k circulant matrix product, as an independent oracle."""
    mat = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        for i in range(k):
            mat[i, j] = a_vec[(i - j) % k]
    return (mat @ msgs.T).T % q


def test_cyclic_mul_matches_explicit_circulant_exhaustive():
    for q, kmax in ((2, 8), (3, 4)):
        field = PrimeField(q)
        for k in range(1, kmax + 1):
            vecs = np.array(
                [[(idx // q**i) % q for i in range(k)] for idx in range(q**k)],
                dtype=np.int64,
            )
            for a_idx in range(q**k):
                a_vec = [(a_idx // q**i) % q for i in range(k)]
                expected = _circulant_reference(a_vec, vecs, k, q)
                a_poly = P(a_vec, field)
                for m_row, want in zip(vecs, expected):
                    got = cyclic_mul(a_poly, P(m_row.tolist(), field), k)
                    assert got == tuple(want.tolist())


def test_cyclic_mul_matches_explicit_circulant_random_f3():
    rng = random.Random(47)
    field = PrimeField(3)
    for _ in range(2000):
        k = rng.randrange(5, 9)
        a_vec = [rng.randrange(3) for _ in range(k)]
        m_vec = [rng.randrange(3) for _ in range(k)]
        expected = _circulant_reference(
            a_vec, np.array([m_vec], dtype=np.int64), k, 3
        )[0]
        got = cyclic_mul(P(a_vec, field), P(m_vec, field), k)
        assert got == tuple(expected.tolist())


def test_cyclic_mul_degree_bounds():
    with pytest.raises(ValueError):
        cyclic_mul(P([1, 0, 0, 1], F2), P([1], F2), 3)


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
    assert reduce_mod_pk(P([0, 0, 1], F2), ctx) == (1, 1)
    assert reduce_mod_pk(Polynomial.zero(F2), ctx) == (0, 0)
    assert reduce_mod_pk(P([1, 1, 1], F2), ctx) == (0, 0)


def test_reduce_mod_pk_matches_divmod_exhaustive_f2():
    for k in (3, 5, 11, 13):
        ctx = QuotientFieldContext(2, k)
        pk = ctx.p_k()
        for bits in range(1 << k):
            coeffs = [(bits >> i) & 1 for i in range(k)]
            f = P(coeffs, F2)
            rem = poly_divmod(f, pk)[1]
            assert reduce_mod_pk(f, ctx) == rem.padded(k - 1)


def test_reduce_mod_pk_matches_divmod_random():
    rng = random.Random(59)
    for q, k in ((3, 5), (3, 7), (5, 3), (5, 7)):
        ctx = QuotientFieldContext(q, k)
        field = ctx.field
        pk = ctx.p_k()
        for _ in range(300):
            f = P([rng.randrange(q) for _ in range(k)], field)
            rem = poly_divmod(f, pk)[1]
            assert reduce_mod_pk(f, ctx) == rem.padded(k - 1)


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
    assert quotient_mul(u, u, ctx) == (0, 1)
    assert quotient_mul(u, ctx.one(), ctx) == u
    assert quotient_mul(u, ctx.zero(), ctx) == ctx.zero()


def test_quotient_mul_field_axioms_exhaustive_f4():
    ctx = QuotientFieldContext(2, 3)
    elems = list(ctx.elements())
    assert len(elems) == 4
    for u in elems:
        for v in elems:
            assert quotient_mul(u, v, ctx) == quotient_mul(v, u, ctx)
            for w in elems:
                left = quotient_mul(quotient_mul(u, v, ctx), w, ctx)
                right = quotient_mul(u, quotient_mul(v, w, ctx), ctx)
                assert left == right
                s = tuple((a + b) % 2 for a, b in zip(v, w))
                dist_left = quotient_mul(u, s, ctx)
                dist_right = tuple(
                    (a + b) % 2
                    for a, b in zip(quotient_mul(u, v, ctx), quotient_mul(u, w, ctx))
                )
                assert dist_left == dist_right


def _qpow(u, e, ctx):
    acc = ctx.one()
    base = u
    while e:
        if e & 1:
            acc = quotient_mul(acc, base, ctx)
        base = quotient_mul(base, base, ctx)
        e >>= 1
    return acc


def test_quotient_mul_random_samples_and_orders():
    # associativity/commutativity/distributivity on random triples in a
    # larger field, plus the order-divides-group-size law
    ctx = QuotientFieldContext(2, 11)
    rng = random.Random(61)
    group = 2**10 - 1

    def rand_elem():
        return tuple(rng.randrange(2) for _ in range(10))

    for _ in range(200):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert quotient_mul(u, v, ctx) == quotient_mul(v, u, ctx)
        assert quotient_mul(quotient_mul(u, v, ctx), w, ctx) == quotient_mul(
            u, quotient_mul(v, w, ctx), ctx
        )
        s = tuple((a + b) % 2 for a, b in zip(v, w))
        assert quotient_mul(u, s, ctx) == tuple(
            (a + b) % 2
            for a, b in zip(quotient_mul(u, v, ctx), quotient_mul(u, w, ctx))
        )
    for _ in range(25):
        u = rand_elem()
        if not any(u):
            continue
        assert _qpow(u, group, ctx) == ctx.one()


def test_poly_irreducible_examples():
    assert poly_irreducible(P([1, 1, 1], F2))
    assert not poly_irreducible(P([1, 0, 1], F2))
    assert poly_irreducible(P([1, 1, 1, 1, 1], F2))
    with pytest.raises(ValueError):
        poly_irreducible(P([1], F2))


def _irreducible_by_trial_division(f):
    # literal scan over all monic divisor candidates up to half degree
    q = f.field.q
    for d in range(1, int(f.degree) // 2 + 1):
        for idx in range(q**d):
            coeffs = [(idx // q**i) % q for i in range(d)] + [1]
            if (f % P(coeffs, f.field)).is_zero():
                return False
    return True


def test_poly_irreducible_matches_trial_division():
    # every monic polynomial up to degree 8 over F_2 and degree 4 over F_3
    for q, max_deg in ((2, 8), (3, 4)):
        field = PrimeField(q)
        for deg in range(1, max_deg + 1):
            for idx in range(q**deg):
                coeffs = [(idx // q**i) % q for i in range(deg)] + [1]
                f = P(coeffs, field)
                assert poly_irreducible(f) == _irreducible_by_trial_division(f)


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
        assert sum(c << i for i, c in enumerate(gf.modulus.coeffs)) == modulus
        assert gf.generator == generator
    with pytest.raises(ValueError):
        build_gf2m(0)
    with pytest.raises(ValueError):
        build_gf2m(21)


def test_build_gf2m_generator_orders():
    for m in range(1, 7):
        gf = build_gf2m(m)
        assert poly_irreducible(gf.modulus) or m == 1 and gf.modulus.degree == 1
        assert gf.element_order(gf.generator) == 2**m - 1


def test_gf2m_arithmetic_spot():
    gf = build_gf2m(3)
    # x * x * x == x^3 == 1 + x under modulus 1 + x + x^3
    x = 0b010
    assert gf.mul(gf.mul(x, x), x) == 0b011


def test_binary_extension_field_validation():
    with pytest.raises(ValueError):
        BinaryExtensionField(2, P([1, 0, 1], F2), 0b10)  # (1+x)^2 reducible
