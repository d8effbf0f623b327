"""Differential tests of reed_majority against the table-based reference.

rmref.reed_majority is the decoder as it stood before the fold kernel: one
gathered vote table per degree layer. The current decoder must return the
same codewords, messages and accept mask on every word and every batch:
for every RM(r, m) with m <= 10, and on sampled words at m = 11 and 12.
Words are codewords with up to two errors past the radius, or uniformly
random words. The runs are derandomized with a fixed example budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmref
from dccodes.reed_muller import reed_majority, rm_code, rm_encode

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
