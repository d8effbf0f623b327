"""Differential tests: the array word-file reader and writer of dccodes.cli
against the tuple-based ones in wordref, on hypothesis-drawn files.

The reader must return the reference's words as an (N, length) array,
uint8 for q <= 256 and int64 above, or raise a ValueError with the same
text. The runs are derandomized with a fixed example budget.
"""

import contextlib
import io
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordref as ref
from dccodes import cli

EXAMPLES = settings(
    max_examples=400, derandomize=True, database=None, deadline=timedelta(seconds=1)
)

FIELDS = (2, 3, 10, 11, 256, 257, 2**31 - 1)

# Inside a line: the ASCII whitespace str.split() splits on, except the line
# breaks \r and \n, which the separators below also draw.
INNER_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
LINE_ENDS = ("\n", "\r", "\r\n")
# Unicode whitespace str.strip() removes from the ends of a line
EDGES = ("", " ", "\t", "\x0c", "\x1f", "\xa0", "\x85", "\u3000", "\u2003")
ODD_TOKENS = ("+3", "-1", "1_0", "\u0663", "x", "3.0", "0x1", "\xa0", "1\xa02")


def _outcome(reader, path, q, length):
    try:
        return reader(str(path), q, length, "word")
    except ValueError as exc:
        return ("error", str(exc))


def _assert_same(path, q, length):
    want = _outcome(ref.read_words, path, q, length)
    got = _outcome(cli._read_words, path, q, length)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, np.ndarray), got
    assert got.dtype == (np.uint8 if q <= 256 else np.int64)
    assert got.shape == (len(want), length)
    assert got.tolist() == [list(w) for w in want]


@st.composite
def tokens(draw, q):
    kind = draw(st.integers(0, 19))
    if kind < 14:
        return str(draw(st.integers(0, q - 1)))
    if kind == 14:
        return str(draw(st.integers(q, q + 300)))
    if kind == 15:  # leading zeros
        return "0" * draw(st.integers(1, 12)) + str(draw(st.integers(0, q - 1)))
    if kind == 16:  # 11 to 30 digits
        return draw(st.text("0123456789", min_size=11, max_size=30))
    return draw(st.sampled_from(ODD_TOKENS))


@st.composite
def word_files(draw):
    """(q, length, file bytes): lines of mostly valid words."""
    q = draw(st.sampled_from(FIELDS))
    length = draw(st.integers(1, 5))
    seps = st.text(INNER_SPACE, min_size=1, max_size=3)
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 7)) == 0:  # a blank line
            lines.append(draw(st.text(INNER_SPACE, max_size=3)))
            continue
        count = length if draw(st.integers(0, 5)) else draw(st.integers(1, 7))
        line = draw(tokens(q))
        for _ in range(count - 1):
            line += draw(seps) + draw(tokens(q))
        lines.append(draw(st.sampled_from(EDGES)) + line + draw(st.sampled_from(EDGES)))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(LINE_ENDS))
    if lines and draw(st.booleans()):  # no final newline
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 24)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return q, length, data


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("words") / "words.txt"


@EXAMPLES
@given(case=word_files())
def test_reader_matches_reference(scratch, case):
    q, length, data = case
    scratch.write_bytes(data)
    _assert_same(scratch, q, length)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n  \n",
        "1 0 1",
        "1 0 1\n",
        "1 0 1\r\n0 1 1\r\n",
        "1 0 1\r0 1 1\r",
        "1\t0\x0b1\n0\x0c1\x1c1\n1\x1d0\x1e1\n1\x1f1 0\n",
        "\xa01 0 1\x85\n\u30000 1 1\u2003\n",
        "1 0\xa01\n",
        "+1 0 1\n",
        "-1 0 1\n",
        "1_0 0 1\n",
        "\u0663 0 1\n",
        "001 000 01\n",
        "00000000000000000001 0 1\n",
        "10000000000000000000000000000 0 1\n",
        "1 0\n",
        "1 0 1 1\n",
        "1 0 2\n",
        "1 0 1\n1 x\n",
    ],
)
def test_reader_matches_reference_on_named_cases(tmp_path, text):
    path = tmp_path / "words.txt"
    path.write_bytes(text.encode("utf-8"))
    for q in FIELDS:
        _assert_same(path, q, 3)


@EXAMPLES
@given(
    q=st.sampled_from(FIELDS),
    shape=st.tuples(st.integers(0, 4), st.integers(1, 6)),
    data=st.data(),
)
def test_writer_matches_reference(q, shape, data):
    top = data.draw(st.sampled_from((min(q, 10), q)))
    words = data.draw(
        st.lists(
            st.lists(st.integers(0, top - 1), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
    outputs = []
    for write, arg in (
        (ref.write_words, [tuple(w) for w in words]),
        (cli._write_words, np.array(words, dtype=np.uint8 if q <= 256 else np.int64)
         .reshape(shape)),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write(None, arg)
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
