"""Pure-Python reference arithmetic for polynomials over a prime field F_q.

A polynomial here is a canonical coefficient tuple: entries reduced mod q,
lowest degree first, trailing zeros stripped, so the zero polynomial is ().
This is the tuple arithmetic dccodes ran before it held every polynomial as
an int64 array; the tests compare dccodes.algebra's array operations with
it. The helpers of the quotient field H = F_q[x]/p_k at the end are used
only by tests, so they live here too.
"""

import itertools


def canon(coeffs, q):
    c = [int(v) % q for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padded(f, length):
    """Coefficients padded with zeros up to the given length."""
    if len(f) > length:
        raise ValueError(f"degree too high to pad to length {length}")
    return tuple(f) + (0,) * (length - len(f))


def add(f, g, q):
    n = max(len(f), len(g))
    return canon([a + b for a, b in zip(padded(f, n), padded(g, n))], q)


def mul(f, g, q):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = (out[i + j] + a * b) % q
    return canon(out, q)


def div(f, g, q):
    """Quotient and remainder with deg(remainder) < deg(g), by schoolbook
    long division; raises ZeroDivisionError when g is zero."""
    f, g = canon(f, q), canon(g, q)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    rem = list(f)
    if len(rem) <= dg:
        return (), f
    quot = [0] * (len(rem) - dg)
    inv_lc = pow(g[-1], q - 2, q)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top] % q
        if c == 0:
            continue
        factor = c * inv_lc % q
        quot[top - dg] = factor
        for j, gv in enumerate(g):
            rem[top - dg + j] = (rem[top - dg + j] - factor * gv) % q
    return canon(quot, q), canon(rem[:dg], q)


def monic(f, q):
    s = pow(f[-1], q - 2, q)
    return canon([v * s for v in f], q)


def gcd(f, g, q):
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    f, g = canon(f, q), canon(g, q)
    while g:
        f, g = g, div(f, g, q)[1]
    return monic(f, q) if f else f


def reverse(h, k):
    """x^k * h(1/x) for deg h <= k."""
    if len(h) > k + 1:
        raise ValueError(f"degree {len(h) - 1} exceeds reversal bound {k}")
    out = list(reversed(padded(h, k + 1)))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def cyclic_mul(a, m, k, q):
    """a(x)*m(x) mod x^k - 1 as a length-k tuple, by the schoolbook double
    loop; the independent reference for the circulant kernels."""
    out = [0] * k
    for i, av in enumerate(a):
        if av % q == 0:
            continue
        for j, mv in enumerate(m):
            if mv % q:
                idx = (i + j) % k
                out[idx] = (out[idx] + av * mv) % q
    return tuple(out)


def monic_polys(q, deg):
    """Every monic polynomial of the given degree."""
    for idx in range(q**deg):
        yield tuple((idx // q**i) % q for i in range(deg)) + (1,)


def irreducible(f, q):
    """Irreducibility by literal trial division with every monic candidate
    of degree 1 .. deg(f)/2."""
    f = canon(f, q)
    return all(
        div(f, cand, q)[1]
        for d in range(1, (len(f) - 1) // 2 + 1)
        for cand in monic_polys(q, d)
    )


def x_n_minus_1(n, q):
    return canon((-1,) + (0,) * (n - 1) + (1,), q)


# ---------------------------------------------------------------------------
# The quotient field H = F_q[x]/p_k, p_k = 1 + x + ... + x^(k-1); ctx is a
# validated dccodes.algebra.QuotientFieldContext
# ---------------------------------------------------------------------------


def p_k(ctx):
    return (1,) * ctx.k


def zero(ctx):
    return (0,) * (ctx.k - 1)


def one(ctx):
    return (1,) + (0,) * (ctx.k - 2)


def elements(ctx):
    """Every element of H, as a length-(k-1) tuple."""
    return (
        tuple(reversed(digits))
        for digits in itertools.product(range(ctx.q), repeat=ctx.k - 1)
    )
