"""Reference word-file reader and writer: the tuple-based code that
dccodes.cli ran before it held words as uint8/int64 arrays. The tests
compare the array reader and writer with it.
"""

import contextlib
import sys


def read_words(path, q, length, what):
    """Words from the file at path, or from stdin when path is None."""
    words = []
    with open(path) if path else contextlib.nullcontext(sys.stdin) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            # int() alone would also take "1_0", "+3" and non-ASCII digits
            if not line.isascii() or not all(map(str.isdigit, tokens)):
                raise ValueError(f"line {lineno}: non-integer symbol in {what}")
            symbols = tuple(map(int, tokens))
            if len(symbols) != length:
                raise ValueError(
                    f"line {lineno}: expected {length} symbols, got {len(symbols)}"
                )
            if any(not 0 <= s < q for s in symbols):
                raise ValueError(f"line {lineno}: symbols must lie in [0, {q})")
            words.append(symbols)
    return words


def write_words(path, words):
    """Words to the file at path, or to stdout when path is None."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as stream:
        for w in words:
            stream.write(" ".join(str(v) for v in w) + "\n")
