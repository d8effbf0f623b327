import itertools
import random

import pytest

from dccodes.algebra import Polynomial, PrimeField, poly_irreducible, poly_mul, poly_reverse
from dccodes.code_core import dual_basis, is_codeword, iter_codewords
from dccodes.cyclic import (
    CyclicCode,
    dual_code,
    enumerate_cyclic_codes,
    factor_x_n_minus_1,
    generator_from_spanning_set,
    max_irreducible_factor_degree,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def _codeword_set(c: CyclicCode) -> set[tuple[int, ...]]:
    return {cw for _, cw in iter_codewords(c.generator_code)}


def test_length_three_examples():
    parity = CyclicCode(2, 3, Polynomial((1, 1), F2))
    assert parity.k == 2
    assert _codeword_set(parity) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}

    rep = CyclicCode(2, 3, Polynomial((1, 1, 1), F2))
    assert rep.k == 1
    assert _codeword_set(rep) == {(0, 0, 0), (1, 1, 1)}

    full = CyclicCode(2, 3, Polynomial.one(F2))
    assert full.k == 3
    assert len(_codeword_set(full)) == 8


def test_generator_validation():
    with pytest.raises(ValueError):
        CyclicCode(3, 3, Polynomial((2, 2), F3))  # not monic
    with pytest.raises(ValueError):
        CyclicCode(2, 3, Polynomial((1, 0, 1), F2))  # does not divide x^3 - 1
    with pytest.raises(ValueError):
        CyclicCode(2, 0, Polynomial.one(F2))
    with pytest.raises(ValueError):
        CyclicCode(3, 3, Polynomial((1, 1), F2))  # wrong field


def test_h_complements_g_everywhere():
    for q, max_n in ((2, 10), (3, 6)):
        field = PrimeField(q)
        for n in range(1, max_n + 1):
            target = Polynomial((-1,) + (0,) * (n - 1) + (1,), field)
            for code in enumerate_cyclic_codes(q, n):
                assert poly_mul(code.g, code.h) == target


def test_dual_examples():
    parity = CyclicCode(2, 3, Polynomial((1, 1), F2))
    rep = CyclicCode(2, 3, Polynomial((1, 1, 1), F2))
    assert dual_code(parity) == rep
    assert dual_code(rep) == parity
    full = CyclicCode(2, 3, Polynomial.one(F2))
    zero = dual_code(full)
    assert zero.k == 0
    assert dual_code(zero) == full


def test_dual_matches_generic_dual_basis():
    # cyclic dual == linear-algebra dual: dimensions agree and every
    # generator of one is a codeword of the other
    for q, max_n in ((2, 15), (3, 8)):
        for n in range(1, max_n + 1):
            for code in enumerate_cyclic_codes(q, n):
                dual = dual_code(code)
                generic = dual_basis(code.generator_code)
                assert dual.k == generic.k == n - code.k
                for j in range(dual.k):
                    unit = tuple(int(i == j) for i in range(dual.k))
                    assert is_codeword(generic, dual.generator_code.encode(unit))


def test_generator_from_spanning_set():
    got = generator_from_spanning_set(2, 3, [(1, 1, 0), (0, 1, 1)])
    assert got.g == Polynomial((1, 1), F2)

    single = generator_from_spanning_set(2, 3, [(1, 1, 1)])
    assert single.g == Polynomial((1, 1, 1), F2)

    full = generator_from_spanning_set(
        2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert full.g == Polynomial.one(F2)

    with pytest.raises(ValueError):
        generator_from_spanning_set(2, 3, [(1, 1, 0)])  # not shift-closed
    with pytest.raises(ValueError):
        generator_from_spanning_set(2, 3, [(1, 1, 0, 0)])  # wrong length
    with pytest.raises(ValueError, match="words must all have length 3"):
        generator_from_spanning_set(2, 3, [(1, 1, 0), (0, 1)])  # ragged
    with pytest.raises(ValueError):
        # least-degree element 1 + x divides x^3 - 1 and has the span's
        # dimension; only the shift-closure check rejects it
        generator_from_spanning_set(2, 3, [(1, 1, 0), (0, 0, 1)])

    zero = generator_from_spanning_set(2, 3, [(0, 0, 0), (0, 0, 0)])
    assert zero.k == 0
    assert zero.g == Polynomial((1, 0, 0, 1), F2)


@pytest.mark.parametrize("q", [2, 3])
def test_generator_from_spanning_set_recovers_every_cyclic_code(q):
    # redundant, shuffled spanning sets: the basis, random combinations of
    # it and zero words
    rng = random.Random(457 + q)
    for n in range(1, 13):
        for code in enumerate_cyclic_codes(q, n):
            basis = code.generator_code.columns
            words = list(basis) + [(0,) * n]
            for _ in range(3):
                coeffs = [rng.randrange(q) for _ in basis]
                words.append(
                    tuple(
                        sum(c * col[i] for c, col in zip(coeffs, basis)) % q
                        for i in range(n)
                    )
                )
            rng.shuffle(words)
            assert generator_from_spanning_set(q, n, words) == code


def test_factor_x_n_minus_1_examples():
    assert factor_x_n_minus_1(2, 3) == [
        (Polynomial((1, 1), F2), 1),
        (Polynomial((1, 1, 1), F2), 1),
    ]
    f5 = factor_x_n_minus_1(2, 5)
    assert {p.coeffs for p, _ in f5} == {(1, 1), (1, 1, 1, 1, 1)}
    with pytest.raises(ValueError):
        factor_x_n_minus_1(2, 25)


def test_factorization_is_complete_and_irreducible():
    for q, n in ((2, 3), (2, 5), (2, 7), (2, 15), (3, 6), (3, 8), (5, 4)):
        field = PrimeField(q)
        target = Polynomial((-1,) + (0,) * (n - 1) + (1,), field)
        prod = Polynomial.one(field)
        for p, mult in factor_x_n_minus_1(q, n):
            assert poly_irreducible(p)
            for _ in range(mult):
                prod = poly_mul(prod, p)
        assert prod == target


def test_max_irreducible_factor_degree():
    assert max_irreducible_factor_degree(2, 7) == 3
    assert max_irreducible_factor_degree(2, 15) == 4
    assert max_irreducible_factor_degree(2, 1) == 1


def test_enumerate_cyclic_codes_small():
    codes = enumerate_cyclic_codes(2, 5)
    assert len(codes) == 4
    dims = sorted(c.k for c in codes)
    assert dims == [0, 1, 4, 5]


def test_reversal_respects_products():
    # (g*f) reversed at full degree equals the product of the reversals,
    # checked for every divisor g of x^n - 1 and every nonzero f of degree < k
    for n in range(1, 11):
        for code in enumerate_cyclic_codes(2, n):
            g = code.g
            for bits in itertools.product((0, 1), repeat=code.k):
                f = Polynomial(bits, F2)
                if f.is_zero():
                    continue
                lhs = poly_reverse(poly_mul(g, f), int(g.degree) + int(f.degree))
                rhs = poly_mul(
                    poly_reverse(g, int(g.degree)),
                    poly_reverse(f, int(f.degree)),
                )
                assert lhs == rhs

