"""Differential tests of reed_majority against the table-based reference.

rmref.reed_majority is the decoder as it stood before the fold kernel: one
gathered vote table per degree layer. The current decoder must return the
same codewords, messages and accept mask on every word and every batch:
for every RM(r, m) with m <= 10, and on sampled words at m = 11 and 12.
Words are codewords with up to two errors past the radius, or uniformly
random words. The runs are derandomized with a fixed example budget.

The stage decoders of the punctured codes are compared with rmref's, which
decode both lifts of every word, on seeded words.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmref
from dccodes import reed_muller
from dccodes.code_core import FAIL
from dccodes.reed_muller import (
    build_punctured_rm,
    punctured_rm_decode,
    reed_majority,
    rm_code,
    rm_encode,
    shortened_dual_rm_decode,
)

FIXED = settings(max_examples=12, derandomize=True, database=None, deadline=None)
SAMPLED = settings(max_examples=3, derandomize=True, database=None, deadline=None)


def _bits(v, n):
    return [(v >> i) & 1 for i in range(n)]


@st.composite
def words(draw, code):
    """One word, or an (N, n) batch of 1 to 3 words."""
    n = code.n
    radius = (1 << (code.m - code.r)) >> 1
    batch = draw(st.sampled_from([None, 1, 2, 3]))
    rows = []
    for _ in range(batch or 1):
        if draw(st.booleans()):
            rows.append(_bits(draw(st.integers(0, (1 << n) - 1)), n))
            continue
        msg = _bits(draw(st.integers(0, (1 << code.k) - 1)), code.k)
        w = np.array(rm_encode(code, msg), dtype=np.uint8)
        flips = st.integers(0, n - 1)
        for pos in draw(st.lists(flips, max_size=radius + 2, unique=True)):
            w[pos] ^= 1
        rows.append(w.tolist())
    return np.array(rows) if batch else rows[0]


def _assert_same(code, w):
    got = reed_majority(code, w)
    want = rmref.reed_majority(code, w)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b)


ALL_RM_UP_TO_10 = [(r, m) for m in range(1, 11) for r in range(m + 1)]


@pytest.mark.parametrize("r,m", ALL_RM_UP_TO_10)
@FIXED
@given(data=st.data())
def test_reed_majority_matches_reference(r, m, data):
    code = rm_code(r, m)
    _assert_same(code, data.draw(words(code)))


# rm-dc at m = 11 and 12 decodes RM(m // 2, m) and RM(m - m // 2 - 1, m)
SAMPLED_RM = [(r, m) for m in (11, 12) for r in (1, m // 2 - 1, m // 2)]


@pytest.mark.parametrize("r,m", SAMPLED_RM)
@SAMPLED
@given(data=st.data())
def test_reed_majority_matches_reference_sampled(r, m, data):
    code = rm_code(r, m)
    _assert_same(code, data.draw(words(code)))


PUNCTURED_RM = [(r, m) for m in range(2, 9) for r in range(1, m)] + [(5, 10)]


@pytest.mark.parametrize("r,m", PUNCTURED_RM)
def test_stage_decoders_match_both_lifts_reference(r, m):
    # radius d/2 as rm-dc passes it, one step above it, and the whole
    # length; error weights run two past the radius or the Reed radius
    pcode = build_punctured_rm(r, m)
    d = (1 << (m - r)) - 1
    rng = random.Random(f"lifts{r}{m}")
    decoders = [
        (punctured_rm_decode, rmref.punctured_rm_decode),
        (shortened_dual_rm_decode, rmref.shortened_dual_rm_decode),
    ]
    for radius in (Fraction(d, 2), Fraction(d + 1, 2), pcode.n):
        for errors in range(min(int(radius), (d + 1) // 2) + 3):
            for _ in range(2):
                msg = [rng.randrange(2) for _ in range(pcode.full.k)]
                w = list(pcode.puncture(rm_encode(pcode.full, msg)))
                for pos in rng.sample(range(pcode.n), errors):
                    w[pos] ^= 1
                for decode, reference in decoders:
                    assert decode(pcode, w, radius) == reference(pcode, w, radius)


@pytest.mark.parametrize("r,m", [(1, 3), (2, 5), (3, 8), (5, 10)])
def test_lift_with_one_decodes_when_lift_with_zero_fails(r, m, monkeypatch):
    # a codeword that is 1 at the zero point, with 2^(m-r-1) - 1 errors off
    # it: the lift with 0 carries 2^(m-r-1) errors, too many for the Reed
    # radius, and the lift with 1 carries one fewer
    pcode = build_punctured_rm(r, m)
    rng = random.Random(f"fallback{r}{m}")
    msg = [1] + [rng.randrange(2) for _ in range(pcode.full.k - 1)]
    full = rm_encode(pcode.full, msg)
    assert full[0] == 1
    cw = pcode.puncture(full)
    w = list(cw)
    for pos in rng.sample(range(pcode.n), (1 << (m - r - 1)) - 1):
        w[pos] ^= 1
    calls = []
    real = reed_muller._majority
    monkeypatch.setattr(
        reed_muller, "_majority", lambda code, v: calls.append(v) or real(code, v)
    )
    radius = Fraction((1 << (m - r)) - 1, 2)
    out = punctured_rm_decode(pcode, w, radius)
    assert out.codeword == cw and out.message == tuple(msg)
    assert len(calls) == 2 and calls[1] == calls[0] | 1
    assert out == rmref.punctured_rm_decode(pcode, w, radius)
    assert shortened_dual_rm_decode(pcode, w, radius) is FAIL
