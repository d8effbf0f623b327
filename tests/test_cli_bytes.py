"""The bytes `dccodes encode` and `decode` print, pinned by digest.

Each case runs the console command in a fresh interpreter on a word file
made here from a fixed seed, and compares the sha256 of its exit code,
stdout and stderr with a digest recorded from the tuple-based word-file
reader and writer that the array ones replaced. Any change to what the
commands print, to their messages or to their exit codes shows here.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from dccodes import cli

CLI = [sys.executable, "-m", "dccodes.cli"]

# name -> family parameters of the descriptor
CODES = {
    "sidon2": ("sidon-dc", {"q": 2, "k": 18, "sidon": [0, 7, 13]}),
    "fig1": ("sidon-dc", {"q": 2, "k": 242}),
    "sidon3": ("sidon-dc", {"q": 3, "k": 11, "sidon": [0, 1, 3]}),
    "sidon11": ("sidon-dc", {"q": 11, "k": 18, "sidon": [0, 7, 13]}),
    "sidonbig": ("sidon-dc", {"q": 2**31 - 1, "k": 18, "sidon": [0, 7, 13]}),
    "rm5": ("rm-dc", {"m": 5}),
    "woz19": ("wozencraft", {"q": 2, "k": 19, "sidon": [1, 8, 14]}),
}


def _line(symbols, sep=" "):
    return sep.join(map(str, symbols))


def _noisy(loaded, rng, errors):
    """A random codeword of the code with `errors` symbols changed."""
    q, n = loaded.q, loaded.block_length
    word = list(loaded.encode([rng.randrange(q) for _ in range(loaded.message_length)]))
    for pos in rng.sample(range(n), errors):
        word[pos] = (word[pos] + rng.randrange(1, q)) % q
    return word


def _fig1_words(loaded, rng):
    # the certify workload's file: the clean codeword, every weight-1
    # pattern and 500 sampled weight-2 patterns of one message
    cw = loaded.encode([rng.randrange(2) for _ in range(loaded.message_length)])
    n = len(cw)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    patterns = [()] + [(i,) for i in range(n)] + rng.sample(pairs, 500)
    lines = []
    for positions in patterns:
        word = list(cw)
        for pos in positions:
            word[pos] ^= 1
        lines.append(_line(word))
    return "\n".join(lines) + "\n"


def _words(loaded, rng, errors):
    return "".join(_line(_noisy(loaded, rng, e)) + "\n" for e in errors)


def _messages(loaded, rng):
    # six messages: mixed separators, blank lines, CRLF, no final newline
    seps = [" ", "  ", "\t", " \t "]
    q, k = loaded.q, loaded.message_length
    lines = [_line((rng.randrange(q) for _ in range(k)), seps[i % 4]) for i in range(6)]
    return "\r\n".join(lines[:2]) + "\n\n  " + "\n".join(lines[2:])


def _far_third(loaded, rng):
    # word 3 carries two errors, beyond the k=18 code's radius 3/2
    far = list(loaded.encode([int(i == 1) for i in range(18)]))
    far[3] ^= 1
    far[20] ^= 1
    return _words(loaded, rng, (0, 1)) + _line(far) + "\n" + _words(loaded, rng, (1,))


def _bad(loaded, rng, kind):
    good = _line(_noisy(loaded, rng, 1))
    bad = {
        "non-integer": "1 0 x " + _line([0] * 33),
        "length": "1 0 1",
        "range": _line([2] * 36),
    }[kind]
    return good + "\n" + good + "\n" + bad + "\n" + good + "\n"


# name -> (command, code, file contents from (loaded, rng), digest)
CASES = {
    "decode-fig1": (
        "decode", "fig1", _fig1_words,
        "cc755fc7eb4fd3ab50541e90e9459382593c0c29f950d904cfe66b2fa8c1633e",
    ),
    "decode-word-3-beyond-radius": (
        "decode", "sidon2", _far_third,
        "41eee4e2fc30a9468e94c8620179c3321736d7a35cdb13bf750254dfa9b17a7e",
    ),
    "decode-non-integer": (
        "decode", "sidon2", lambda c, r: _bad(c, r, "non-integer"),
        "12af172b8e96810504115b113f93231ca4dc43970b54f58916f4ca0b883386a8",
    ),
    "decode-length": (
        "decode", "sidon2", lambda c, r: _bad(c, r, "length"),
        "aabbd675c47d6fa068dde8bf425ec5dac068369fa761047015dcf9e9d930ff52",
    ),
    "decode-range": (
        "decode", "sidon2", lambda c, r: _bad(c, r, "range"),
        "e4eaa659068beb45080d18343160cb0c4ec05b1ef011f84e5452ac5e35ec5977",
    ),
    "decode-non-utf8": (
        "decode", "sidon2",
        lambda c, r: _words(c, r, (0,)) + "0 1 \udcff\n",
        "7a4fce8020a0507d4c9f96765d57158aeaba2632b56b47ee8a0771aa0110ec77",
    ),
    "decode-q11": (
        "decode", "sidon11", lambda c, r: _words(c, r, (0, 1, 1, 0)),
        "6fa15fe783e66fc87534de4c32eeb3a2808fc18faae3df4952472b78c8dd1185",
    ),
    "decode-q-2^31-1": (
        "decode", "sidonbig", lambda c, r: _words(c, r, (1, 0, 1)),
        "10c7900a525c4884eba8daa7fad72d60faed9c8982f3805d7e98a6f50dd8003d",
    ),
    "encode-sidon-q2": (
        "encode", "fig1", _messages,
        "dd521d6869820ebcb9c19feaada78d7967ec577562dd1074dc1260829d0976cc",
    ),
    "encode-sidon-q3": (
        "encode", "sidon3", _messages,
        "49640b66258a09fe31b58d346869c9666c83ea5887d6f0182f6fe68a1e62f423",
    ),
    "encode-rm-m5": (
        "encode", "rm5", _messages,
        "9e82bdb8a77225c1cb4d648038eaee9dff716786f9fe446278b4f79cf4f2bf96",
    ),
    "encode-wozencraft-k19": (
        "encode", "woz19", _messages,
        "5a3b0363bfc87e97c54c3b63f2d66d2439d69bb09917bbf8483d658eab8eeff3",
    ),
}


@pytest.fixture(scope="module")
def descriptors(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    out = {}
    for name, (family, params) in CODES.items():
        loaded = cli.build_family(family, params)
        path = root / f"{name}.json"
        path.write_text(cli.dump_descriptor(loaded.descriptor))
        out[name] = (loaded, path)
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_is_pinned(case, descriptors, tmp_path):
    command, code, contents, digest = CASES[case]
    loaded, desc = descriptors[code]
    words = tmp_path / "in.txt"
    # surrogateescape turns the lone surrogate of the non-UTF-8 case into 0xff
    words.write_bytes(
        contents(loaded, random.Random(case)).encode("utf-8", "surrogateescape")
    )
    env = dict(os.environ, PYTHONUTF8="1")
    res = subprocess.run(
        CLI + [command, str(desc), "--in", str(words)], capture_output=True, env=env
    )
    got = hashlib.sha256(repr((res.returncode, res.stdout, res.stderr)).encode())
    assert got.hexdigest() == digest, (
        res.returncode, res.stdout[:300], res.stderr[-300:]
    )
