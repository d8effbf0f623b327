"""Differential tests of the majority decoder against its gather-based form.

_reference_column_majority and _reference_majority_decode are the decoder as
it stood before the packed-bit path: the votes are gathered through a
(d, k) index table, y.T[(supp + i) % k], column_majority counts every
field value in turn, and the products take the numpy slices. The current
decoder must return the same codewords and the same accept mask, shaped like
the reference's, on every word and batch, with the tie hook on and off.
"""

import os
import random
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dccodes import algebra, design_dc
from dccodes.design_dc import (
    TIE_HOOK_ENV,
    build_sidon_dc,
    column_majority,
    dc_encode,
    design_decode,
    majority_decode,
)
from dccodes.sidon import sidon_for_length

FIXED = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _reference_column_majority(votes, q):
    votes = np.asarray(votes, dtype=np.int64)
    tie_high = bool(os.environ.get(TIE_HOOK_ENV))
    if q == 2:
        twice_ones = 2 * votes.sum(axis=0)
        d = votes.shape[0]
        won = twice_ones >= d if tie_high else twice_ones > d
        return won.astype(np.int64)
    counts = np.stack([(votes == alpha).sum(axis=0) for alpha in range(q)])
    if tie_high:
        return q - 1 - counts[::-1].argmax(axis=0)
    return counts.argmax(axis=0)


def _reference_majority_decode(code, w):
    k, q, d = code.k, code.q, code.profile.d
    w = np.asarray(w, dtype=np.int64) % q
    supp = np.array(code.circulant.support, dtype=np.int64)
    vote_idx = (supp[:, None] + np.arange(k)[None, :]) % k
    w0, w1 = w[..., :k], w[..., k:]
    terms = code.circulant.terms
    y = (algebra._slice_product(terms, w0, q) - w1) % q
    z = _reference_column_majority(y.T[vote_idx], q).T
    c0 = (w0 - z) % q
    c = np.concatenate([c0, algebra._slice_product(terms, c0, q)], axis=-1)
    return c, 2 * code.profile.b * (c != w).sum(axis=-1) < d


@cache
def _code(q, k, sidon=None):
    return build_sidon_dc(q, k, sidon or sidon_for_length(k))


# q=2 at k = 18, 59, 242 and 269 packs words into 2k bit lanes that are not
# byte aligned
SMALL = [(2, 18, (0, 7, 13)), (2, 16, (0, 1, 3, 7)), (3, 18, (0, 7, 13)),
         (5, 20, (0, 1, 3, 7, 12)), (2, 59, None), (2, 242, None), (2, 269, None),
         (3, 242, None), (5, 242, None)]
LARGE = [(q, k, None) for k in (242, 2000) for q in (2, 3, 5)]
EVEN_D = [(q, 16, (0, 1, 3, 7)) for q in (2, 3, 5)]


def _hook(mp, tie_high):
    if tie_high:
        mp.setenv(TIE_HOOK_ENV, "1")
    else:
        mp.delenv(TIE_HOOK_ENV, raising=False)


def _codeword(code, rnd):
    return np.array(dc_encode(code, [rnd.randrange(code.q) for _ in range(code.k)]))


def _assert_matches_reference(code, w):
    exp_c, exp_ok = _reference_majority_decode(code, w)
    c, ok = majority_decode(code, w)
    assert c.dtype == np.int64 and c.shape == exp_c.shape
    assert np.array_equal(c, exp_c)
    assert np.shape(ok) == np.shape(exp_ok) and np.array_equal(ok, exp_ok)
    return c, ok


@pytest.mark.parametrize("tie_high", [False, True])
@pytest.mark.parametrize("params", SMALL, ids=lambda p: f"q{p[0]}-k{p[1]}")
@FIXED
@given(seed=st.integers(0, 2**32 - 1), planted=st.booleans())
def test_random_words_match_reference(params, tie_high, seed, planted):
    rnd = random.Random(seed)
    code = _code(*params)
    q, n = code.q, 2 * code.k
    if planted:
        # a codeword with up to two errors past the capability
        w = _codeword(code, rnd)
        for pos in rnd.sample(range(n), rnd.randrange(code.profile.d // 2 + 3)):
            w[pos] = (w[pos] + rnd.randrange(1, q)) % q
    else:
        w = np.array([rnd.randrange(q) for _ in range(n)])
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, tie_high)
        c, ok = _assert_matches_reference(code, tuple(w.tolist()))
        out = design_decode(code, list(w.tolist()))
    if ok:
        assert out.codeword == tuple(c.tolist())
    else:
        assert not out


@pytest.mark.parametrize("params", LARGE, ids=lambda p: f"q{p[0]}-k{p[1]}")
@FIXED
@given(seed=st.integers(0, 2**32 - 1), past=st.booleans())
def test_errors_on_one_vote_set_match_reference(params, seed, past):
    # every error lands on the votes of coordinate i, all with one value, so
    # they agree on a wrong symbol: capability errors, or one more
    rnd = random.Random(seed)
    code = _code(*params)
    k, q, d, b = code.k, code.q, code.profile.d, code.profile.b
    errors = -(-d // (2 * b)) - 1 + past
    cw = _codeword(code, rnd)
    w = cw.copy()
    i, delta = rnd.randrange(k), rnd.randrange(1, q)
    for s in rnd.sample(code.circulant.support, errors):
        w[k + (i + s) % k] = (w[k + (i + s) % k] + delta) % q
    c, ok = _assert_matches_reference(code, tuple(w.tolist()))
    if not past:
        assert ok and np.array_equal(c, cw)


@pytest.mark.parametrize("params", EVEN_D, ids=lambda p: f"q{p[0]}")
@FIXED
@given(seed=st.integers(0, 2**32 - 1))
def test_even_d_ties_match_reference(params, seed):
    # d/2 errors on coordinate i's votes, all with one value: its d votes tie
    rnd = random.Random(seed)
    code = _code(*params)
    k, q, d = code.k, code.q, code.profile.d
    w = _codeword(code, rnd)
    i, delta = rnd.randrange(k), rnd.randrange(1, q)
    for s in rnd.sample(code.circulant.support, d // 2):
        w[k + (i + s) % k] = (w[k + (i + s) % k] + delta) % q
    word = tuple(w.tolist())
    answers = []
    for tie_high in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            _hook(mp, tie_high)
            answers.append(_assert_matches_reference(code, word)[0])
    assert answers[0][i] != answers[1][i]  # the hook decides the tie


@pytest.mark.parametrize("tie_high", [False, True])
@pytest.mark.parametrize("params", SMALL, ids=lambda p: f"q{p[0]}-k{p[1]}")
@settings(FIXED, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40))
@example(seed=0, rows=0)
@example(seed=0, rows=1)
def test_batch_rows_match_one_word_decodes(params, tie_high, seed, rows):
    rnd = random.Random(seed)
    code = _code(*params)
    q, n = code.q, 2 * code.k
    words = np.array([_codeword(code, rnd) for _ in range(rows)]).reshape(rows, n)
    for w in words:
        for pos in rnd.sample(range(n), rnd.randrange(code.profile.d // 2 + 3)):
            w[pos] = (w[pos] + rnd.randrange(1, q)) % q
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, tie_high)
        singles = [majority_decode(code, tuple(w.tolist())) for w in words]
        # whole, and in chunks of 3 rows
        for chunk in (design_dc.PATTERN_CHUNK, 3 * code.profile.d):
            mp.setattr(design_dc, "PATTERN_CHUNK", chunk)
            c, ok = _assert_matches_reference(code, words)
            for row, ok_row, (c1, ok1) in zip(c, ok, singles):
                assert np.array_equal(row, c1) and ok_row == ok1


def _counter_majority(column, tie_high):
    """Most frequent value of one column of votes, by a Counter: a reference
    that also runs where today's loop over range(q) cannot."""
    counts = Counter(int(v) for v in column)
    top = max(counts.values())
    winners = [v for v, c in counts.items() if c == top]
    return max(winners) if tie_high else min(winners)


@pytest.mark.parametrize("tie_high", [False, True])
@pytest.mark.parametrize("q", [2, 3, 5, 257, 2**31 - 1])
@FIXED
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12),
       cols=st.integers(1, 6), values=st.integers(1, 4))
def test_column_majority_matches_reference(q, tie_high, seed, d, cols, values):
    # few distinct values per array, so ties and near-ties are common
    rnd = random.Random(seed)
    pool = rnd.sample(range(q), min(q, values))
    votes = np.array([[rnd.choice(pool) for _ in range(cols)] for _ in range(d)])
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, tie_high)
        got = column_majority(votes, q)
        assert got.tolist() == [_counter_majority(col, tie_high) for col in votes.T]
        assert column_majority(votes[:, 0], q) == got[0]
        if q <= 257:
            assert np.array_equal(got, _reference_column_majority(votes, q))
