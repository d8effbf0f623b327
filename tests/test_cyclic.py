import dataclasses
import itertools
import random

import numpy as np
import pytest

import polyref as ref
from dccodes.algebra import poly_irreducible, poly_mul, poly_reverse
from dccodes.code_core import dual_basis, is_codeword, iter_codewords
from dccodes.cyclic import (
    CyclicCode,
    dual_code,
    enumerate_cyclic_codes,
    factor_x_n_minus_1,
    generator_from_spanning_set,
    max_irreducible_factor_degree,
)

def _codeword_set(c: CyclicCode) -> set[tuple[int, ...]]:
    return {cw for _, cw in iter_codewords(c.generator_code)}


def test_length_three_examples():
    parity = CyclicCode(2, 3, (1, 1))
    assert parity.k == 2
    assert _codeword_set(parity) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}

    rep = CyclicCode(2, 3, [1, 1, 1])
    assert rep.k == 1
    assert _codeword_set(rep) == {(0, 0, 0), (1, 1, 1)}

    full = CyclicCode(2, 3, np.array([1]))
    assert full.k == 3
    assert len(_codeword_set(full)) == 8


def test_generator_validation():
    with pytest.raises(ValueError):
        CyclicCode(3, 3, (2, 2))  # not monic
    with pytest.raises(ValueError):
        CyclicCode(3, 3, (3, 0))  # zero once read mod 3
    with pytest.raises(ValueError):
        CyclicCode(2, 3, (1, 0, 1))  # does not divide x^3 - 1
    with pytest.raises(ValueError):
        CyclicCode(2, 0, (1,))
    with pytest.raises(ValueError):
        CyclicCode(4, 3, (1, 1))  # not a prime field


def test_h_complements_g_everywhere():
    for q, max_n in ((2, 10), (3, 6)):
        for n in range(1, max_n + 1):
            target = ref.x_n_minus_1(n, q)
            for code in enumerate_cyclic_codes(q, n):
                assert tuple(poly_mul(code.g, code.h, q).tolist()) == target
                g, h = tuple(code.g.tolist()), tuple(code.h.tolist())
                assert ref.mul(g, h, q) == target


def test_dual_examples():
    parity = CyclicCode(2, 3, (1, 1))
    rep = CyclicCode(2, 3, (1, 1, 1))
    assert dual_code(parity) == rep
    assert dual_code(rep) == parity
    full = CyclicCode(2, 3, (1,))
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
    assert got.g.tolist() == [1, 1]

    single = generator_from_spanning_set(2, 3, [(1, 1, 1)])
    assert single.g.tolist() == [1, 1, 1]

    full = generator_from_spanning_set(
        2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert full.g.tolist() == [1]

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
    assert zero.g.tolist() == [1, 0, 0, 1]


@pytest.mark.parametrize("q", [2, 3])
def test_generator_from_spanning_set_rejects_exactly_unclosed_spans(q):
    # random spans, closed or not: it raises iff some shift of a spanning
    # word falls outside the span, found by listing the span
    rng = random.Random(461 + q)
    closed = 0
    for _ in range(300):
        n = rng.randrange(2, 7)
        words = [
            tuple(rng.choice((0, 0, rng.randrange(q))) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        span = {
            tuple(sum(c * w[i] for c, w in zip(cs, words)) % q for i in range(n))
            for cs in itertools.product(range(q), repeat=len(words))
        }
        if all(w[-1:] + w[:-1] in span for w in words):
            closed += 1
            got = generator_from_spanning_set(q, n, words)
            assert {cw for _, cw in iter_codewords(got.generator_code)} == span
        else:
            with pytest.raises(ValueError, match="not closed under cyclic shift"):
                generator_from_spanning_set(q, n, words)
    assert 0 < closed < 300


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
    assert [(p.tolist(), m) for p, m in factor_x_n_minus_1(2, 3)] == [
        ([1, 1], 1),
        ([1, 1, 1], 1),
    ]
    f5 = factor_x_n_minus_1(2, 5)
    assert {tuple(p.tolist()) for p, _ in f5} == {(1, 1), (1, 1, 1, 1, 1)}
    assert [(p.tolist(), m) for p, m in factor_x_n_minus_1(3, 3)] == [([2, 1], 3)]
    with pytest.raises(ValueError):
        factor_x_n_minus_1(2, 25)


def test_factorization_is_complete_and_irreducible():
    for q, n in ((2, 3), (2, 5), (2, 7), (2, 15), (3, 6), (3, 8), (5, 4)):
        prod = (1,)
        for p, mult in factor_x_n_minus_1(q, n):
            assert poly_irreducible(p, q)
            assert ref.irreducible(tuple(p.tolist()), q)
            for _ in range(mult):
                prod = ref.mul(prod, tuple(p.tolist()), q)
        assert prod == ref.x_n_minus_1(n, q)


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
                f = ref.canon(bits, 2)
                if not f:
                    continue
                lhs = poly_reverse(poly_mul(g, f, 2), len(g) + len(f) - 2, 2)
                rhs = poly_mul(
                    poly_reverse(g, len(g) - 1, 2),
                    poly_reverse(f, len(f) - 1, 2),
                    2,
                )
                assert lhs.tolist() == rhs.tolist()



def test_cyclic_code_is_a_hashable_value():
    # equality and hashing go by (q, n, g); a dataclass-generated __eq__ or
    # __hash__ over the array fields would raise instead
    a = CyclicCode(2, 7, (1, 1, 0, 1))
    b = CyclicCode(2, 7, np.array([1, 1, 0, 1, 0, 0]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, CyclicCode(2, 7, (1, 0, 1, 1))}) == 2
    assert a != CyclicCode(2, 7, (1, 0, 1, 1))
    assert a != CyclicCode(2, 14, (1, 1, 0, 1))
    assert CyclicCode(2, 3, (1, 1)) != CyclicCode(3, 3, (2, 1))
    assert a != "1101" and a != (1, 1, 0, 1)
    assert a.g.dtype == a.h.dtype == np.int64
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.g = np.array([1])
    with pytest.raises(ValueError):
        a.h[0] = 0  # read-only, so h stays (x^n - 1)/g
    assert ref.mul(tuple(a.g.tolist()), tuple(a.h.tolist()), 2) == ref.x_n_minus_1(7, 2)
