import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from maxrss import run_measured
from dccodes import cli
from dccodes.design_dc import build_sidon_dc, dc_encode
from dccodes.sidon import sidon_for_length

CLI = [sys.executable, "-m", "dccodes.cli"]


def _run(args, env_extra=None, stdin=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + args, capture_output=True, text=True, env=env, input=stdin
    )


@pytest.fixture(scope="module")
def k18_descriptor(tmp_path_factory):
    path = tmp_path_factory.mktemp("desc") / "k18.json"
    res = _run(
        ["construct", "sidon-dc", "--q", "2", "--k", "18",
         "--sidon", "0,7,13", "-o", str(path)]
    )
    assert res.returncode == 0, res.stderr
    return path


def test_construct_is_bit_exact(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        res = _run(["construct", "rm-dc", "--m", "4", "-o", str(path)])
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["family"] == "rm-dc"
    assert doc["k"] == 15 and doc["d"] == 7 and doc["d_perp"] == 3


def test_construct_reports_bounds(tmp_path):
    res = _run(
        ["construct", "sidon-dc", "--q", "2", "--k", "18", "--sidon", "0,7,13"]
    )
    assert res.returncode == 0
    assert '"family": "sidon-dc"' in res.stdout

    # with an output file the descriptor moves there and the human-readable
    # bound lines take over stdout
    path = tmp_path / "d.json"
    res = _run(
        ["construct", "sidon-dc", "--q", "2", "--k", "18",
         "--sidon", "0,7,13", "-o", str(path)]
    )
    assert res.returncode == 0
    assert "decoding radius 3/2" in res.stdout
    assert "distance bound 4" in res.stdout


def test_construct_usage_errors():
    assert _run(["construct", "sidon-dc"]).returncode == 1
    assert _run(["construct", "nonsense", "--q", "2"]).returncode == 1
    assert _run([]).returncode == 1
    assert _run(["frobnicate"]).returncode == 1


def test_construct_invalid_wozencraft_k_suggests_alternative():
    res = _run(["construct", "wozencraft", "--q", "2", "--k", "7"])
    assert res.returncode == 1
    assert "nearest valid k >= 7 is 11" in res.stderr


@pytest.mark.parametrize(
    "construct_args,msg_len",
    [
        (["sidon-dc", "--q", "2", "--k", "18", "--sidon", "0,7,13"], 18),
        (["rm-dc", "--m", "4"], 15),
        (["wozencraft", "--q", "2", "--k", "19", "--sidon", "1,8,14"], 18),
    ],
)
def test_encode_decode_round_trip(tmp_path, construct_args, msg_len):
    desc = tmp_path / "code.json"
    res = _run(["construct"] + construct_args + ["-o", str(desc)])
    assert res.returncode == 0, res.stderr

    msg = [i % 2 for i in range(msg_len)]
    msgs = tmp_path / "msgs.txt"
    msgs.write_text(" ".join(map(str, msg)) + "\n")
    words = tmp_path / "words.txt"
    res = _run(["encode", str(desc), "--in", str(msgs), "--out", str(words)])
    assert res.returncode == 0, res.stderr

    symbols = [int(v) for v in words.read_text().split()]
    symbols[5] ^= 1  # one error, within every family's radius
    corrupted = tmp_path / "corrupted.txt"
    corrupted.write_text(" ".join(map(str, symbols)) + "\n")
    out = tmp_path / "decoded.txt"
    res = _run(["decode", str(desc), "--in", str(corrupted), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert "corrected 1 errors" in res.stderr
    assert [int(v) for v in out.read_text().split()] == msg


def test_decode_failure_exits_two(tmp_path, k18_descriptor):
    code = build_sidon_dc(2, 18, (0, 7, 13))
    w = list(dc_encode(code, tuple(int(i == 1) for i in range(18))))
    w[3] ^= 1
    w[20] ^= 1
    words = tmp_path / "far.txt"
    words.write_text(" ".join(map(str, w)) + "\n")
    res = _run(["decode", str(k18_descriptor), "--in", str(words)])
    assert res.returncode == 2
    assert "no codeword within radius" in res.stderr


def test_malformed_words_exit_one(tmp_path, k18_descriptor):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 1\n")  # wrong length
    res = _run(["decode", str(k18_descriptor), "--in", str(bad)])
    assert res.returncode == 1
    assert "expected 36 symbols" in res.stderr

    bad.write_text(" ".join(["2"] * 36) + "\n")  # symbol outside the field
    assert _run(["decode", str(k18_descriptor), "--in", str(bad)]).returncode == 1

    bad.write_text("1 0 x " + " ".join(["0"] * 33) + "\n")
    res = _run(["decode", str(k18_descriptor), "--in", str(bad)])
    assert res.returncode == 1
    assert "non-integer" in res.stderr


def _digit_lines(rows: np.ndarray) -> bytes:
    """Rows of single-digit symbols as space-separated lines."""
    buf = np.full((len(rows), 2 * rows.shape[1]), ord(" "), dtype=np.uint8)
    buf[:, ::2] = rows + ord("0")
    buf[:, -1] = ord("\n")
    return buf.tobytes()


# Peak RSS of the decode below: ~75 MB with words held as tuples of ints,
# ~51 MB as uint8 rows (Python 3.11, numpy 2.4, Linux).
LARGE_DECODE_MAX_RSS_MB = 64

def test_decode_of_a_large_file_stays_small(tmp_path):
    # 1000 sidon-dc k=2000 words with 2 errors each
    k, count = 2000, 1000
    rng = np.random.default_rng(2000)
    code = build_sidon_dc(2, k, sidon_for_length(k))
    messages = rng.integers(0, 2, (count, k), dtype=np.uint8)
    # in chunks, so that pytest's own peak RSS, which a child started by
    # vfork inherits, stays small
    parity = [code.circulant.act(m, 2).astype(np.uint8) for m in np.split(messages, 20)]
    words = np.hstack([messages, np.vstack(parity)])
    for row in words:
        row[rng.choice(2 * k, 2, replace=False)] ^= 1
    desc, infile = tmp_path / "d.json", tmp_path / "w.txt"
    loaded = cli.build_family("sidon-dc", {"q": 2, "k": k})
    desc.write_text(cli.dump_descriptor(loaded.descriptor))
    infile.write_bytes(_digit_lines(words))
    start = time.perf_counter()
    res, peak_mb = run_measured([*CLI, "decode", str(desc), "--in", str(infile)])
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stderr[-500:]
    assert res.stdout == _digit_lines(messages)
    notes = res.stderr.decode().splitlines()
    assert notes == [f"word {i}: corrected 2 errors" for i in range(1, count + 1)]
    assert peak_mb < LARGE_DECODE_MAX_RSS_MB, f"{peak_mb:.1f} MB in {elapsed:.2f} s"


@pytest.fixture(scope="module")
def q11_descriptor(tmp_path_factory):
    path = tmp_path_factory.mktemp("desc") / "q11.json"
    loaded = cli.build_family("sidon-dc", {"q": 11, "k": 18, "sidon": [0, 7, 13]})
    path.write_text(cli.dump_descriptor(loaded.descriptor))
    return path


@pytest.mark.parametrize("command,length", [("encode", 18), ("decode", 36)])
@pytest.mark.parametrize(
    "token", ["1_0", "+3", "\u0663"], ids=["underscore", "plus", "arabic-indic"]
)
def test_word_files_take_ascii_digits_only(
    tmp_path, q11_descriptor, command, length, token, capsys
):
    # int() reads all three (as 10, 3 and 3); a word file holds [0-9]+ only
    words = tmp_path / "words.txt"
    lines = [["0"] * length, [token] + ["0"] * (length - 1)]
    words.write_text(
        "".join(" ".join(line) + "\n" for line in lines), encoding="utf-8"
    )
    assert cli.main([command, str(q11_descriptor), "--in", str(words)]) == 1
    kind = "message" if command == "encode" else "word"
    err = f"{command}: line 2: non-integer symbol in {kind}\n"
    assert capsys.readouterr() == ("", err)


HUGE_Q = "q must be at most 2^31 - 1 = 2147483647, got 2305843009213693951"


@pytest.mark.parametrize(
    "argv",
    [
        f"construct sidon-dc --q {2**61 - 1} --k 18 --sidon 0,7,13",
        f"construct wozencraft --q {2**61 - 1} --k 5",
        f"params find-k --q {2**61 - 1} --min 5",
    ],
    ids=["sidon-dc", "wozencraft", "find-k"],
)
def test_huge_field_size_fails_fast(argv, capsys):
    # q = 2^61 - 1 is prime; the primality test alone would try about 7.6e8
    # odd divisors, so the ceiling is checked before it
    start = time.perf_counter()
    assert cli.main(argv.split()) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", f"{argv.split()[0]}: {HUGE_Q}\n")


def test_huge_field_size_exits_one_from_the_console():
    res = _run(["construct", "sidon-dc", "--q", str(2**61 - 1), "--k", "18"])
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"construct: {HUGE_Q}\n"


@pytest.mark.parametrize(
    "params,message",
    [
        ("sidon-dc --q 2 --k 1000001", "sidon-dc: k must be at most 1000000 for q=2"),
        ("sidon-dc --q 3 --k 100001", "sidon-dc: k must be at most 100000 for q=3"),
        ("wozencraft --q 2 --k 1423", "wozencraft: k must be at most 1414 for q=2"),
        ("wozencraft --q 5 --k 709", "wozencraft: k must be at most 707 for q=5"),
        ("wozencraft --q 2147483647 --k 5 --sidon 0,1",
         "wozencraft: k must be at most 0 for q=2147483647"),
    ],
    ids=["sidon-2", "sidon-3", "woz-2", "woz-5", "woz-huge-q"],
)
def test_k_ceilings_fail_fast(tmp_path, params, message, capsys):
    message += f", got {params.split()[4]}"
    start = time.perf_counter()
    assert cli.main(["construct", *params.split()]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", f"construct: {message}\n")
    # a descriptor past the ceiling is refused before its code is built
    family, _, q, _, k, *_ = params.split()
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"family": family, "q": int(q), "k": int(k)}))
    assert cli.main(["encode", str(path), "--in", str(path)]) == 1
    assert capsys.readouterr() == ("", f"encode: {message}\n")


def test_tampered_descriptor_rejected(tmp_path, k18_descriptor):
    doc = json.loads(k18_descriptor.read_text())
    doc["design_d"] = 4
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    msgs = tmp_path / "m.txt"
    msgs.write_text(" ".join(["0"] * 18) + "\n")
    res = _run(["encode", str(forged), "--in", str(msgs)])
    assert res.returncode == 1
    assert "refusing" in res.stderr


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1, 2], "descriptor must be a JSON object"),
        (
            {"family": "sidon-dc", "q": "2", "k": 18, "sidon": [0, 7, 13]},
            "q must be an integer",
        ),
        ({"family": "sidon-dc", "k": 18}, "needs parameter q"),
        ({"family": "rm-dc", "m": True}, "m must be an integer"),
        (
            {"family": "wozencraft", "q": 2, "k": 19, "sidon": "1,8,14"},
            "sidon must be a list of integers",
        ),
        ({"family": ["sidon-dc"]}, "unknown family"),
    ],
    ids=["list", "string-q", "missing-q", "bool-m", "string-sidon", "list-family"],
)
def test_malformed_descriptor_exits_one(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = _run(["encode", str(path)], stdin="")
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("encode: ") and message in res.stderr


@pytest.mark.parametrize("command", ["encode", "decode", "analyze", "bench"])
def test_deeply_nested_descriptor_exits_one(tmp_path, command, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", f"{command}: descriptor nests too deeply\n")


def test_params_find_k():
    res = _run(["params", "find-k", "--q", "2", "--min", "6"])
    assert res.returncode == 0
    assert res.stdout.strip() == "11"


def test_analyze(k18_descriptor):
    res = _run(["analyze", str(k18_descriptor), "--exact-distance", "--balanced"])
    assert res.returncode == 0, res.stderr
    assert "exact distance 4" in res.stdout
    assert "balanced profile 4" in res.stdout

    res = _run(
        ["analyze", str(k18_descriptor), "--exact-distance"],
        env_extra={"ORACLE_BUDGET": "100"},
    )
    assert res.returncode == 0
    assert "skipped" in res.stdout


@pytest.mark.parametrize("k", [2000, 20000])
def test_analyze_skips_before_building_the_matrix_view(tmp_path, k):
    # the k x 2k generator and its reduction would take GBs at k = 20000,
    # and 2^20000 has more digits than Python turns into a str
    desc = tmp_path / "d.json"
    loaded = cli.build_family("sidon-dc", {"q": 2, "k": k})
    desc.write_text(cli.dump_descriptor(loaded.descriptor))
    start = time.perf_counter()
    res, peak_mb = run_measured(
        [*CLI, "analyze", str(desc), "--exact-distance", "--balanced"], text=True
    )
    elapsed = time.perf_counter() - start
    assert res.returncode == 0 and not res.stderr, res.stderr[-500:]
    skipped = [line for line in res.stdout.splitlines() if "skipped" in line]
    assert len(skipped) == 2 and all(f"needs 2^{k} codeword" in s for s in skipped)
    assert peak_mb < 60 and elapsed < 5, (peak_mb, elapsed)


def test_selftest_subcommand():
    res = _run(["selftest", "--list"])
    assert res.returncode == 0
    assert "fig1-decoder" in res.stdout

    res = _run(["selftest", "--only", "pk-irreducible"])
    assert res.returncode == 0
    assert "SELFTEST pk-irreducible PASS" in res.stdout
    assert "SELFTEST SUMMARY pass=1 fail=0 skip=0 total=1" in res.stdout


def test_selftest_detects_planted_mutation():
    res = _run(
        ["selftest", "--only", "fig1-decoder"],
        env_extra={"DCCODES_MAJORITY_TIE_HIGH": "1"},
    )
    assert res.returncode == 1
    assert "SELFTEST fig1-decoder FAIL" in res.stdout


def test_selftest_budget_skip():
    res = _run(
        ["selftest", "--only", "sidon-dc-distance"],
        env_extra={"ORACLE_BUDGET": "100"},
    )
    assert res.returncode == 0
    assert "SELFTEST sidon-dc-distance SKIP" in res.stdout
    assert "skip=1" in res.stdout


def test_bench(k18_descriptor):
    res = _run(["bench", str(k18_descriptor), "--trials", "5", "--seed", "3"])
    assert res.returncode == 0, res.stderr
    assert "decode" in res.stdout


def test_bench_reports_cold_first_decode_apart(k18_descriptor, monkeypatch, capsys):
    # one warm-up trial, reported on its own line, then the averaged trials
    calls = []
    decode = cli.design_decode

    def counting(code, w):
        calls.append(w)
        return decode(code, w)

    monkeypatch.setattr(cli, "design_decode", counting)
    assert cli.main(["bench", str(k18_descriptor), "--trials", "4", "--seed", "3"]) == 0
    assert len(calls) == 4 + 1
    cold, summary = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"cold first decode \d+\.\d{3} ms", cold)
    assert re.fullmatch(
        r"4 trials at error weight 1: encode \d+\.\d{3} ms, decode \d+\.\d{3} ms", summary
    )


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_trials_below_one(k18_descriptor, trials):
    res = _run(["bench", str(k18_descriptor), "--trials", trials])
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "bench: --trials must be at least 1\n"
