"""Cyclic codes via generator polynomials.

A cyclic code of length n over F_q is an ideal of F_q[x]/(x^n - 1) and is
determined by its unique monic generator g dividing x^n - 1. The dual is
again cyclic, generated by the coefficient reversal of the check polynomial
h = (x^n - 1)/g. g and h are held as algebra holds every polynomial: int64
coefficient arrays, lowest degree first; h comes from one poly_divmod.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    PrimeField,
    _canon,
    _monic,
    _terms,
    circulant_product,
    gf2_bits,
    gf2_circulant,
    pack_bits,
    poly_divmod,
    poly_mul,
    poly_reverse,
    reduce_mod,
    unpack_bits,
)
from .code_core import GeneratorMatrixCode, _rref


def _x_n_minus_1(q: int, n: int) -> np.ndarray:
    f = np.zeros(n + 1, dtype=np.int64)
    f[0], f[n] = q - 1, 1
    return f


@dataclass(frozen=True)
class CyclicCode:
    """Length-n cyclic code over F_q with monic generator g | x^n - 1.

    g is read into a polynomial array (reduced mod q) and h is derived at
    construction, with g*h = x^n - 1; both arrays are read-only. A code is
    a value: equality and hashing go by q, n and the bytes of g, which
    determine h, never by the arrays themselves.
    """

    q: int
    n: int
    g: np.ndarray = dc_field(compare=False)
    h: np.ndarray = dc_field(init=False, compare=False)
    _g_bytes: bytes = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        PrimeField(self.q)
        if self.n < 1:
            raise ValueError("length must be positive")
        g = _canon(self.g, self.q)
        if not len(g) or g[-1] != 1:
            raise ValueError("generator must be monic")
        h, rem = poly_divmod(_x_n_minus_1(self.q, self.n), g, self.q)
        if len(rem):
            raise ValueError(f"{g.tolist()} does not divide x^{self.n} - 1")
        for name, f in (("g", g), ("h", h)):
            f.flags.writeable = False
            object.__setattr__(self, name, f)
        object.__setattr__(self, "_g_bytes", g.tobytes())

    @property
    def k(self) -> int:
        return self.n - (len(self.g) - 1)

    @cached_property
    def _h_terms(self) -> tuple[tuple[int, int], ...]:
        return _terms(self.h)

    @cached_property
    def generator_code(self) -> GeneratorMatrixCode:
        """Matrix view: columns are the coefficients of g(x)*x^i, i < k."""
        cols = np.zeros((self.k, self.n), dtype=np.int64)
        for i in range(self.k):
            cols[i, i : i + len(self.g)] = self.g
        return GeneratorMatrixCode(self.q, cols, n=self.n)

    def quotient(self, c: Sequence[int]) -> Optional[np.ndarray]:
        """r with c = r*g, padded to length n, or None when c is no codeword.

        c = r*g exactly when c*h = r*(x^n - 1) (MacWilliams-Sloane, ch. 7), so
        one product with the check polynomial h divides by g: the top n
        coefficients of c*h are r, and c is a codeword iff they cancel the
        bottom n, i.e. iff c*h vanishes mod x^n - 1. At q=2 the product is
        one packed int (algebra.gf2_circulant): c is a codeword iff its low
        and high n bits agree, and only r is unpacked.
        """
        n, q = self.n, self.q
        if q == 2:
            prod = gf2_circulant(self._h_terms, pack_bits(gf2_bits(c)), 2 * n)
            r = prod >> n
            if prod & ((1 << n) - 1) != r:
                return None
            return unpack_bits(r, n).astype(np.int64)
        padded = np.zeros(2 * n, dtype=np.int64)
        padded[:n] = c
        # 2n-point cyclic product of operands of degree < n: the linear product
        prod = circulant_product(self._h_terms, padded, q)
        r = prod[n:]
        return None if reduce_mod(prod[:n] + r, q).any() else r


def dual_code(c: CyclicCode) -> CyclicCode:
    """The dual, generated by the reversal of h at degree bound k = dim(C)."""
    return CyclicCode(c.q, c.n, _monic(poly_reverse(c.h, c.k, c.q), c.q))


def generator_from_spanning_set(
    q: int, n: int, words: Sequence[Sequence[int]]
) -> CyclicCode:
    """The cyclic code whose codeword set is the span of the given words.

    The span must already be closed under cyclic shift; if any shifted basis
    vector falls outside the span this raises ValueError. One row reduction,
    with the columns in descending degree, gives a basis whose last row is
    the span's monic element of least degree, which for a cyclic span is its
    generator. The shifted basis rows are then reduced against that basis's
    pivots, and the span is closed iff nothing is left of them.
    """
    try:
        mat = np.asarray(words, dtype=np.int64) % q
    except ValueError:  # ragged rows
        mat = None
    if mat is None or mat.ndim != 2 or mat.shape[1] != n:
        raise ValueError(f"words must all have length {n}")
    rref, piv = _rref(mat[:, ::-1], q)
    basis = rref[: len(piv)]
    rolled = np.roll(basis, 1, axis=1)
    # basis is reduced: subtracting a multiple of one of its rows changes no
    # other pivot column, so one pass over the pivots reduces every row
    for row, c in zip(basis, piv):
        nz = np.flatnonzero(rolled[:, c])
        if nz.size:
            rolled[nz] = reduce_mod(rolled[nz] - np.outer(rolled[nz, c], row), q)
    if rolled.any():
        raise ValueError("span is not closed under cyclic shift")
    code = CyclicCode(q, n, basis[-1, ::-1] if piv else _x_n_minus_1(q, n))
    if code.k != len(piv):
        # cannot happen once shift-closure holds; guards the generator read
        raise AssertionError("span rank disagrees with generator degree")
    return code


def factor_x_n_minus_1(q: int, n: int) -> list[tuple[np.ndarray, int]]:
    """Irreducible factorization of x^n - 1 over F_q, with multiplicities.

    Trial division in increasing candidate degree; any composite candidate
    has a smaller-degree factor that was already divided out, so each
    recorded factor is irreducible. n is capped at 24 to keep the candidate
    scan honest about its exponential cost.
    """
    if not 1 <= n <= 24:
        raise ValueError("n must be in 1..24")
    f = _x_n_minus_1(q, n)
    factors: list[tuple[np.ndarray, int]] = []
    deg = 1
    while len(f) > 1:
        if deg >= len(f):
            raise AssertionError("factor scan exceeded remaining degree")
        for idx in range(q**deg):
            cand = np.array([idx // q**i % q for i in range(deg)] + [1], dtype=np.int64)
            mult = 0
            while True:
                quot, rem = poly_divmod(f, cand, q)
                if len(rem):
                    break
                f = quot
                mult += 1
            if mult:
                factors.append((cand, mult))
            if len(f) <= deg:
                break
        deg += 1
    return factors


def max_irreducible_factor_degree(q: int, n: int) -> int:
    return max(len(p) - 1 for p, _ in factor_x_n_minus_1(q, n))


def enumerate_cyclic_codes(q: int, n: int) -> list[CyclicCode]:
    """All cyclic codes of length n over F_q, one per monic divisor of x^n - 1.

    Includes the two trivial codes (g = 1 and g = x^n - 1).
    """
    factors = factor_x_n_minus_1(q, n)
    codes = []
    for exps in itertools.product(*(range(m + 1) for _, m in factors)):
        g = np.ones(1, dtype=np.int64)
        for (p, _), e in zip(factors, exps):
            for _ in range(e):
                g = poly_mul(g, p, q)
        codes.append(CyclicCode(q, n, g))
    return codes
