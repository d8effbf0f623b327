"""Differential tests: the int64-array polynomial operations of
dccodes.algebra and CyclicCode against the pure-Python reference arithmetic
in polyref, on hypothesis-drawn polynomials over F_2, F_3 and F_5.

The runs are derandomized with a fixed example budget, so the suite sees
the same examples on every run and stays inside a fixed time box.
"""

from datetime import timedelta
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import polyref as ref
from dccodes.algebra import (
    _terms,
    cyclic_mul,
    poly_divmod,
    poly_gcd,
    poly_irreducible,
    poly_mul,
    poly_reverse,
)
from dccodes.cyclic import enumerate_cyclic_codes

EXAMPLES = settings(
    max_examples=100, derandomize=True, database=None, deadline=timedelta(seconds=1)
)

fields = st.sampled_from((2, 3, 5))


@st.composite
def field_and_polys(draw, count, max_len=9):
    """q and `count` coefficient lists over F_q, trailing zeros allowed."""
    q = draw(fields)
    coeffs = st.lists(st.integers(0, q - 1), max_size=max_len)
    return (q, *(draw(coeffs) for _ in range(count)))


def T(f):
    assert isinstance(f, np.ndarray) and f.dtype == np.int64 and f.ndim == 1
    return tuple(f.tolist())


@EXAMPLES
@given(field_and_polys(2))
def test_poly_mul_matches_reference(case):
    q, f, g = case
    assert T(poly_mul(f, g, q)) == ref.mul(ref.canon(f, q), ref.canon(g, q), q)


@EXAMPLES
@given(field_and_polys(2))
def test_poly_divmod_matches_reference(case):
    q, f, g = case
    if not ref.canon(g, q):
        g = g + [1]
    quot, rem = poly_divmod(f, g, q)
    assert len(rem) < len(ref.canon(g, q))
    # quot*g + rem == f, with deg rem < deg g
    assert ref.add(ref.mul(T(quot), ref.canon(g, q), q), T(rem), q) == ref.canon(f, q)
    assert (T(quot), T(rem)) == ref.div(f, g, q)


@EXAMPLES
@given(field_and_polys(2), st.integers(0, 3))
def test_poly_gcd_and_reverse_match_reference(case, extra):
    q, f, g = case
    assert T(poly_gcd(f, g, q)) == ref.gcd(f, g, q)
    h = ref.canon(f, q)
    k = max(len(h) - 1, 0) + extra
    assert T(poly_reverse(f, k, q)) == ref.reverse(h, k)


@EXAMPLES
@given(fields, st.data())
def test_poly_irreducible_matches_trial_division(q, data):
    deg = data.draw(st.integers(1, 6))
    f = data.draw(st.lists(st.integers(0, q - 1), min_size=deg, max_size=deg))
    f = f + [data.draw(st.integers(1, q - 1))]
    assert poly_irreducible(f, q) == ref.irreducible(f, q)


@EXAMPLES
@given(fields, st.integers(1, 40), st.data())
def test_cyclic_mul_matches_reference(q, k, data):
    symbols = st.integers(0, q - 1)
    a = data.draw(st.lists(symbols, min_size=k, max_size=k))
    m = data.draw(st.lists(symbols, max_size=k))
    assert cyclic_mul(_terms(np.array(a)), m, k, q) == ref.cyclic_mul(a, m, k, q)


@lru_cache(maxsize=None)
def _codes(q, n):
    return enumerate_cyclic_codes(q, n)


@EXAMPLES
@given(fields, st.integers(1, 12), st.data())
def test_cyclic_code_matches_division(q, n, data):
    codes = _codes(q, n)
    code = codes[data.draw(st.integers(0, len(codes) - 1))]
    g = T(code.g)
    assert ref.mul(g, T(code.h), q) == ref.x_n_minus_1(n, q)
    # quotient(c) is c / g when g divides c, and None otherwise
    c = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    quot, rem = ref.div(c, g, q)
    got = code.quotient(c)
    if rem:
        assert got is None
    else:
        assert got.tolist() == list(ref.padded(quot, n))
    r = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k, max_size=code.k))
    multiple = ref.padded(ref.mul(ref.canon(r, q), g, q), n)
    assert code.quotient(multiple).tolist() == list(ref.padded(tuple(r), n))
