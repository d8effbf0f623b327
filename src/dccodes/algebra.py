"""Finite-field and polynomial arithmetic.

Everything downstream builds on this module: prime fields F_q with int-valued
elements, polynomials over them, binary extension fields GF(2^m) on bitmask
ints, and the quotient ring F_q[x] / (1 + x + ... + x^(k-1)), which is a
field exactly when k is prime and q is a primitive root mod k.

A polynomial over F_q is a 1-D int64 array of its coefficients in [0, q),
lowest degree first, with trailing zeros stripped, so the zero polynomial is
the empty array. poly_mul, poly_divmod, poly_gcd, poly_reverse and
poly_irreducible take such arrays (any int sequence is read into one) plus q.

circulant_product computes every circulant (cyclic convolution) product:
the circulant blocks of every family, cyclic_mul, poly_mul and the rm-dc
division by the check polynomial. At q=2 a vector, or every row of a batch
in its own lane, is packed into one Python int and multiplied by
gf2_circulant, the one GF(2) circulant kernel, which the Sidon majority
decoder shares; every q > 2 takes one numpy slice-add per nonzero term.

The quotient-ring section validates (q, k) and keeps reference arithmetic
(reduce_mod_pk, quotient_mul) for the tests; the Wozencraft codes compute
their products as folds of circulant products, in weldon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class PrimeField:
    """The field F_q for prime q. Elements are ints in range(q)."""

    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q}")


def reduce_mod(x: np.ndarray, q: int) -> np.ndarray:
    """An int64 array reduced into [0, q).

    For q = 2 this is x & 1, which equals x % 2 on negative entries too and
    which numpy computes many times faster than the int64 remainder.
    """
    return x & 1 if q == 2 else x % q


def _slice_product(terms: Sequence[tuple[int, int]], x, q: int) -> np.ndarray:
    """circulant_product by one slice-add of x, laid twice end to end, per term."""
    # (q-1) * sum(a), the largest entry before the final reduction, must fit
    # in int64; (q-1)^2 * t < 2^63 for every q <= 2^16 and t < 2^31, so the
    # usual small fields skip the sum
    if q > 1 << 16 and (q - 1) ** 2 * len(terms) >= 1 << 63:
        bound = (q - 1) * sum(a % q for _, a in terms)
        if bound >= 1 << 63:
            raise ValueError(
                f"circulant product over F_{q} exceeds int64: (q-1)*sum(a) = {bound}"
            )
    x = reduce_mod(np.asarray(x, dtype=np.int64), q)
    k = x.shape[-1]
    doubled = np.concatenate([x, x], axis=-1)
    out = np.zeros_like(x)
    for s, a in terms:
        a %= q
        shifted = doubled[..., k - s : 2 * k - s]
        out += shifted if a == 1 else a * shifted
    return reduce_mod(out, q)


def gf2_bits(x) -> np.ndarray:
    """x mod 2 as a uint8 array of 0/1 entries, shaped like x.

    x is a word, a message or an array of them. A tuple or list of ints in
    range(256) is read through bytes(), many times faster than np.asarray;
    an ndarray never is, as bytes() would read its raw buffer. A uint8 array
    is masked as it is.
    """
    if isinstance(x, (tuple, list)):
        try:
            return np.frombuffer(bytes(x), dtype=np.uint8) & 1
        except (TypeError, ValueError):
            pass
    elif getattr(x, "dtype", None) == np.uint8:
        return x & 1
    # the uint8 cast wraps mod 256, which keeps every entry's parity
    return np.asarray(x, dtype=np.int64).astype(np.uint8) & 1


def pack_bits(bits: np.ndarray) -> int:
    """The int whose bit i is entry i of bits, a 0/1 array read flattened."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def unpack_bits(v: int, k: int) -> np.ndarray:
    """Bits 0..k-1 of the non-negative int v as a uint8 array; pack_bits' inverse."""
    raw = np.frombuffer(v.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=k, bitorder="little")


def lane_mask(k: int, rows: int) -> int:
    """The low k bits of each of rows lanes 2k bits wide: the bits of a
    packed int that hold one length-k vector per row (gf2_circulant)."""
    mask, lanes = (1 << k) - 1, 1
    while lanes < rows:
        mask |= mask << 2 * k * lanes
        lanes *= 2
    return mask & ((1 << 2 * k * rows) - 1)


def gf2_circulant(
    terms: Sequence[tuple[int, int]], v: int, k: int, mask: int | None = None
) -> int:
    """A*x over F_2 for every vector x packed in v, one per lane of 2k bits.

    Bit i of lane r, bit 2kr + i of v, is x_i of row r, and the high half of
    every lane is zero. mask is lane_mask(k, rows); by default v is one
    lane, the k-bit int of one x. A*x is the XOR of x rotated up by s for
    every term (s, a) with a odd: bits k-s .. 2k-s-1 of each lane of
    v | v << k, which holds its x twice end to end.
    """
    twice = v | v << k
    out = 0
    for s, a in terms:
        if a & 1:
            out ^= twice >> (k - s)
    return out & ((1 << k) - 1 if mask is None else mask)


def _packed_product(
    terms: Sequence[tuple[int, int]], bits: np.ndarray, k: int
) -> np.ndarray:
    """A*x over F_2 on one packed int (gf2_circulant) for a vector x of at
    most k 0/1 bits (gf2_bits), zero padded to length k, or for every row of
    an array of them, row r in lane r; returns uint8 bits, k per row. One
    vector needs no lane buffer: its lane is the int pack_bits(x).
    """
    if bits.ndim == 1:
        return unpack_bits(gf2_circulant(terms, pack_bits(bits), k), k)
    lanes = np.zeros((*bits.shape[:-1], 2 * k), dtype=np.uint8)
    lanes[..., : bits.shape[-1]] = bits
    rows = lanes.size // (2 * k)
    v = gf2_circulant(terms, pack_bits(lanes), k, lane_mask(k, rows))
    return unpack_bits(v, lanes.size).reshape(lanes.shape)[..., :k]


def circulant_product(terms: Sequence[tuple[int, int]], x, q: int) -> np.ndarray:
    """A*x over F_q, where A is the circulant with first column entry a at
    row s for each (s, a) in terms, and zero elsewhere.

    x is a length-k vector or an (N, k) array of rows, and every s lies in
    range(k). Returns an int64 array shaped like x, reduced mod q. Entry i is
    the sum over terms of a * x_(i-s mod k), computed exactly in the regime
    that q alone picks:

    - packed (q=2; _packed_product): x becomes bits (gf2_bits), every row
      one lane of one Python int, and A*x the XOR of its rotations by the
      odd terms (gf2_circulant). No int64 array is made until the last step.
    - slices (q > 2): one pass over x per term, adding the slice of x laid
      twice end to end that the term selects. It refuses, with a
      ValueError, a column whose products would not fit in int64:
      (q-1) * sum(a) must stay below 2^63.
    """
    if q == 2:
        x = gf2_bits(x)
        return _packed_product(terms, x, x.shape[-1]).astype(np.int64)
    return _slice_product(terms, x, q)


def cyclic_mul(
    terms: Sequence[tuple[int, int]], m: Sequence[int] | np.ndarray, k: int, q: int
) -> tuple[int, ...]:
    """Coefficient vector of a(x)*m(x) mod x^k - 1 over F_q, as a length-k tuple.

    a is given by its terms, the (exponent, coefficient) pairs of its nonzero
    coefficients in increasing exponent, as CirculantMatrix.terms holds them;
    m is a coefficient sequence or array of length at most k. The product is
    circulant_product of the circulant whose first column holds the
    coefficients of a; at q=2 it runs the packed regime, and the tuple comes
    straight from the product's bytes.
    """
    if len(m) > k or terms and terms[-1][0] >= k:
        raise ValueError(f"operands must have degree below {k}")
    if q == 2:
        return tuple(_packed_product(terms, gf2_bits(m), k).tobytes())
    x = np.zeros(k, dtype=np.int64)
    x[: len(m)] = m
    return tuple(circulant_product(terms, x, q).tolist())


# ---------------------------------------------------------------------------
# Univariate polynomials: int64 coefficient arrays, lowest degree first
# ---------------------------------------------------------------------------


def _canon(f, q: int) -> np.ndarray:
    """f as a polynomial over F_q: int64, reduced into [0, q), no trailing zeros."""
    f = reduce_mod(np.asarray(f, dtype=np.int64), q)
    nonzero = np.flatnonzero(f)
    return f[: nonzero[-1] + 1 if len(nonzero) else 0]


def _terms(f: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(exponent, coefficient) of every nonzero coefficient of f, the
    column form circulant_product and cyclic_mul take."""
    return tuple((int(i), int(f[i])) for i in np.flatnonzero(f))


def _monic(f: np.ndarray, q: int) -> np.ndarray:
    """The nonzero polynomial f scaled to leading coefficient 1."""
    return f * pow(int(f[-1]), -1, q) % q


def poly_mul(f, g, q: int) -> np.ndarray:
    """f*g over F_q, exact; like circulant_product, it raises ValueError
    when q is so large that (q-1) * sum(f) could overflow int64."""
    f, g = _canon(f, q), _canon(g, q)
    if not len(f) or not len(g):
        return f[:0]
    # the cyclic product on deg f + deg g + 1 points is the linear product
    return circulant_product(_terms(f), np.pad(g, (0, len(f) - 1)), q)


def poly_divmod(f, g, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of f by g over F_q, with deg(remainder) < deg(g).

    Long division, one numpy update of deg(g) + 1 coefficients per quotient
    coefficient. Raises ZeroDivisionError when g is zero.
    """
    rem, g = _canon(f, q), _canon(g, q)  # a fresh array, reduced in place
    if not len(g):
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    quot = np.zeros(max(len(rem) - dg, 0), dtype=np.int64)
    inv_lc = pow(int(g[-1]), -1, q)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = int(rem[top]) * inv_lc % q
        if c:
            quot[top - dg] = c
            # c*g < q^2 <= 2^62 for every q the package accepts
            rem[top - dg : top + 1] = reduce_mod(rem[top - dg : top + 1] - c * g, q)
    return quot, _canon(rem[:dg], q)


def poly_gcd(f, g, q: int) -> np.ndarray:
    """Monic gcd over F_q; gcd(0, 0) is the zero polynomial."""
    f, g = _canon(f, q), _canon(g, q)
    while len(g):
        f, g = g, poly_divmod(f, g, q)[1]
    return _monic(f, q) if len(f) else f


def poly_reverse(h, k: int, q: int) -> np.ndarray:
    """Coefficient reversal at degree bound k: x^k * h(1/x).

    The coefficients are padded to length k+1, reversed, and trailing zeros
    stripped. Applying the same bound twice is the identity.
    """
    h = _canon(h, q)
    if len(h) > k + 1:
        raise ValueError(f"degree {len(h) - 1} exceeds reversal bound {k}")
    return _canon(np.pad(h, (0, k + 1 - len(h)))[::-1], q)


# ---------------------------------------------------------------------------
# Irreducibility and primitive roots
# ---------------------------------------------------------------------------


def _pow_mod(base: np.ndarray, e: int, mod: np.ndarray, q: int) -> np.ndarray:
    result = np.ones(1, dtype=np.int64)
    base = poly_divmod(base, mod, q)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, q), mod, q)[1]
        base = poly_divmod(poly_mul(base, base, q), mod, q)[1]
        e >>= 1
    return result


def poly_irreducible(f, q: int) -> bool:
    """Decide whether f is irreducible over F_q.

    f is reducible iff it shares a factor with x^(q^d) - x for some
    d <= deg(f)/2, since that product covers exactly the irreducibles of
    degree dividing d. Checking gcd(f, x^(q^d) - x) for every such d is
    therefore the same test as trial division by all monic polynomials of
    degree up to deg(f)/2, done in batches.
    """
    f = _canon(f, q)
    deg = len(f) - 1
    if deg < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    f = _monic(f, q)
    u = np.array([0, 1], dtype=np.int64)
    for _ in range(deg // 2):
        u = _pow_mod(u, q, f, q)
        u_minus_x = np.pad(u, (0, max(2 - len(u), 0)))
        u_minus_x[1] -= 1
        if len(poly_gcd(f, u_minus_x, q)) != 1:
            return False
    return True


def is_primitive_root(q: int, k: int) -> bool:
    """Whether q generates the multiplicative group mod the prime k."""
    if not is_prime(k):
        raise ValueError(f"modulus must be prime, got {k}")
    if math.gcd(q, k) != 1:
        return False
    for p in prime_factors(k - 1):
        if pow(q, (k - 1) // p, k) == 1:
            return False
    return True


def find_wozencraft_k(q: int, k_min: int, search_limit: int = 10**6) -> int:
    """Smallest prime k >= k_min such that q is a primitive root mod k.

    For such k the all-degrees-below-k polynomial 1 + x + ... + x^(k-1) is
    irreducible over F_q, so the quotient ring by it is a field. Raises
    LookupError when no such k exists up to search_limit.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if k_min < 2:
        raise ValueError("k_min must be at least 2")
    k = k_min
    while k <= search_limit:
        if is_prime(k) and math.gcd(q, k) == 1 and is_primitive_root(q, k):
            return k
        k += 1
    raise LookupError(
        f"no prime k in [{k_min}, {search_limit}] has {q} as a primitive root"
    )


# ---------------------------------------------------------------------------
# GF(2^m)
# ---------------------------------------------------------------------------


def _gf2m_mul(m: int, mod_int: int, a: int, b: int) -> int:
    """Product in GF(2^m) with the degree-m modulus given as a bitmask int.

    Unchecked, so build_gf2m can search for a generator before a validated
    BinaryExtensionField exists.
    """
    res = 0
    top = 1 << m
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod_int
    return res


def _gf2m_pow(m: int, mod_int: int, a: int, e: int) -> int:
    res = 1
    while e:
        if e & 1:
            res = _gf2m_mul(m, mod_int, res, a)
        a = _gf2m_mul(m, mod_int, a, a)
        e >>= 1
    return res


def _gf2m_order(m: int, mod_int: int, a: int) -> int:
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    n = (1 << m) - 1
    order = n
    for p in prime_factors(n):
        while order % p == 0 and _gf2m_pow(m, mod_int, a, order // p) == 1:
            order //= p
    return order


@dataclass(frozen=True)
class BinaryExtensionField:
    """GF(2^m) with elements as bitmask ints; bit i is the coefficient of x^i.

    modulus is the irreducible degree-m polynomial defining the field, as a
    bitmask int in the same convention, and generator is an element of
    multiplicative order 2^m - 1. Both are re-verified at construction.
    """

    m: int
    modulus: int
    generator: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.modulus >> self.m != 1 or not poly_irreducible(
            unpack_bits(self.modulus, self.m + 1), 2
        ):
            raise ValueError("modulus must be irreducible of degree m")
        order = (1 << self.m) - 1
        if not 0 < self.generator < (1 << self.m):
            raise ValueError("generator out of range")
        if self.element_order(self.generator) != order:
            raise ValueError("generator does not have full multiplicative order")

    def mul(self, a: int, b: int) -> int:
        return _gf2m_mul(self.m, self.modulus, a, b)

    def element_order(self, a: int) -> int:
        return _gf2m_order(self.m, self.modulus, a)


@lru_cache(maxsize=None)
def build_gf2m(m: int) -> BinaryExtensionField:
    """GF(2^m) with a deterministic modulus and generator.

    The modulus is the least irreducible monic polynomial of degree m with
    nonzero constant term, compared as bitmask ints (the constant term is
    the lowest bit); the generator is the least element of full
    multiplicative order.
    """
    if not 1 <= m <= 20:
        raise ValueError("m must be in 1..20")
    # Only odd ints encode candidates: a zero constant term means x divides
    # the polynomial, and the convention requires a nonzero constant term.
    candidates = range((1 << m) + 1, 1 << (m + 1), 2)
    modulus = next(
        (c for c in candidates if poly_irreducible(unpack_bits(c, m + 1), 2)), None
    )
    if modulus is None:
        raise AssertionError(f"no irreducible polynomial of degree {m} found")
    order = (1 << m) - 1
    generator = 1
    if m > 1:
        for g in range(2, 1 << m):
            if _gf2m_order(m, modulus, g) == order:
                generator = g
                break
    return BinaryExtensionField(m, modulus, generator)


# ---------------------------------------------------------------------------
# The quotient ring F_q[x] / (1 + x + ... + x^(k-1))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientFieldContext:
    """Validated parameters of the field H = F_q[x] / p_k(x), where
    p_k = 1 + x + ... + x^(k-1).

    Requires q prime, k prime and q a primitive root mod k. That makes p_k
    irreducible: it is the k-th cyclotomic polynomial, and each of its
    factors over F_q has degree ord_k(q) = k-1 (Lidl-Niederreiter, Thm
    2.47). Elements of H are coefficient arrays of length k-1.
    """

    q: int
    k: int

    def __post_init__(self) -> None:
        PrimeField(self.q)
        if not is_prime(self.k):
            raise ValueError(f"k must be prime, got {self.k}")
        if math.gcd(self.q, self.k) != 1:
            raise ValueError(f"q={self.q} and k={self.k} must be coprime")
        if not is_primitive_root(self.q, self.k):
            raise ValueError(f"{self.q} is not a primitive root mod {self.k}")


def reduce_mod_pk(f, ctx: QuotientFieldContext) -> np.ndarray:
    """Remainder of f, of degree below k, modulo p_k: a length-(k-1) int64 array.

    Uses the identity x^(k-1) = -(1 + x + ... + x^(k-2)) mod p_k: pad f to
    length k, subtract the top coefficient from every position, drop the top.
    """
    f = _canon(f, ctx.q)
    if len(f) > ctx.k:
        raise ValueError(f"degree must be below {ctx.k}")
    padded = np.pad(f, (0, ctx.k - len(f)))
    return reduce_mod(padded[:-1] - padded[-1], ctx.q)


def quotient_mul(u, v, ctx: QuotientFieldContext) -> np.ndarray:
    """Product of two elements of H = F_q[x]/p_k, each of length k-1.

    Computed by multiplying mod x^k - 1 first and then reducing; p_k divides
    x^k - 1, so the composite agrees with direct reduction mod p_k.
    """
    if len(u) != ctx.k - 1 or len(v) != ctx.k - 1:
        raise ValueError(f"element must have length {ctx.k - 1}")
    return reduce_mod_pk(cyclic_mul(_terms(_canon(u, ctx.q)), v, ctx.k, ctx.q), ctx)
