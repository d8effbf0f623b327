"""Command-line front end: construct codes, encode/decode word files, run
oracle analyses and the acceptance self-test.

Exit codes: 0 success, 1 usage or malformed input, 2 decoder Fail.
Word files hold ASCII decimal symbols separated by ASCII whitespace, one
word per line; encode and decode hold them as the rows of one array, uint8
for q <= 256 and int64 above, and pass each row to the family's one-word
encoder or decoder. Descriptors are JSON with sorted keys so serialization
is bit-exact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import QuotientFieldContext, find_wozencraft_k
from .code_core import (
    FAIL,
    DecodeOutcome,
    GeneratorMatrixCode,
    OracleBudgetExceeded,
    _require_budget,
    brute_force_balanced_profile,
    brute_force_distance,
    capability,
)
from .cyc_dc import build_rm_dual_dc, cyc_dc_decode, cyc_dc_encode
from .design_dc import build_sidon_dc, dc_encode, design_decode
from .selftest import CRITERIA, run_all
from .sidon import SidonSet, sidon_for_length
from .weldon import build_wozencraft, weldon_decode, weldon_encode


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; argparse defaults to 2, which we reserve
    # for decoder Fail
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _frac(f: Fraction) -> str:
    """Exact rational encoding for descriptor fields."""
    return f"{f.numerator}/{f.denominator}"


@dataclass
class LoadedCode:
    """A constructed code plus the uniform hooks the commands need."""

    family: str
    descriptor: dict
    q: int
    message_length: int
    block_length: int
    radius: Fraction
    encode: Callable[[Sequence[int]], tuple]
    decode: Callable[[Sequence[int]], DecodeOutcome]
    matrix_code: Callable[[], GeneratorMatrixCode]
    balanced_blocks: int
    bound_lines: list[str]
    certified_distance: Fraction


def _build_sidon_dc_family(q: int, k: int, sidon: Optional[Sequence[int]]) -> LoadedCode:
    if sidon is None:
        s = sidon_for_length(k)
    else:
        s = SidonSet(tuple(sorted(int(v) for v in sidon)), k)
    code = build_sidon_dc(q, k, s)
    d, b = code.profile.d, code.profile.b
    desc = {
        "family": "sidon-dc",
        "q": q,
        "k": k,
        "sidon": list(s.elements),
        "design_d": d,
        "design_b": b,
        "distance_bound": _frac(code.distance_bound),
        "balanced_bound": _frac(code.balanced_bound),
        "decoding_radius": _frac(code.decode_radius),
    }
    bounds = [
        f"distance bound {code.distance_bound} "
        f"(design bound d/b + 1 with column weight d={d}, support overlap b={b})",
        f"balanced bound {code.balanced_bound} "
        f"(min of d/b + 1 and k/d = {k}/{d})",
        f"decoding radius {code.decode_radius} "
        f"(majority vote exact below d/(2b) errors)",
    ]
    return LoadedCode(
        family="sidon-dc",
        descriptor=desc,
        q=q,
        message_length=k,
        block_length=2 * k,
        radius=code.decode_radius,
        encode=lambda m: dc_encode(code, m),
        decode=lambda w: design_decode(code, w),
        matrix_code=lambda: code.code,
        balanced_blocks=2,
        bound_lines=bounds,
        certified_distance=code.distance_bound,
    )


def _build_rm_dc_family(m: int, r: Optional[int]) -> LoadedCode:
    code = build_rm_dual_dc(m, r)
    r_used = m // 2 if r is None else r
    desc = {
        "family": "rm-dc",
        "q": 2,
        "m": m,
        "r": r_used,
        "k": code.k,
        "d": code.d,
        "d_perp": code.d_perp,
        "d_prime": code.d_prime,
        "decoding_radius": _frac(code.decode_radius),
    }
    bounds = [
        f"distance bound {code.d_prime} "
        f"(min of base code distance d={code.d} and dual distance "
        f"d_perp={code.d_perp})",
        f"decoding radius {code.decode_radius} "
        f"(two-stage decoding exact below min(d, d_perp)/2 errors)",
    ]
    return LoadedCode(
        family="rm-dc",
        descriptor=desc,
        q=2,
        message_length=code.k,
        block_length=2 * code.k,
        radius=code.decode_radius,
        encode=lambda msg: cyc_dc_encode(code, msg),
        decode=lambda w: cyc_dc_decode(code, w),
        matrix_code=lambda: code.code,
        balanced_blocks=2,
        bound_lines=bounds,
        certified_distance=Fraction(code.d_prime),
    )


def _build_wozencraft_family(
    q: int, k: int, sidon: Optional[Sequence[int]]
) -> LoadedCode:
    try:
        QuotientFieldContext(q, k)
    except ValueError as exc:
        try:
            nearest = find_wozencraft_k(q, max(k, 2))
            hint = f"; nearest valid k >= {k} is {nearest}"
        except (ValueError, LookupError):
            hint = ""
        raise ValueError(f"{exc}{hint}") from exc
    w, d = build_wozencraft(q, k, sidon)
    support = d.circulants[0].support
    desc = {
        "family": "wozencraft",
        "q": q,
        "k": k,
        "t": w.t,
        "sidon": list(support),
        "alphas": [list(a) for a in w.alphas],
        "balanced_bound": _frac(d.balanced_d),
        "decoding_radius": _frac(d.balanced_d / 2),
    }
    bounds = [
        f"distance bound {d.balanced_d} "
        f"(balanced parameter of the source circulant code: "
        f"min of d/b + 1 and k/d with d={len(support)})",
        f"decoding radius {d.balanced_d / 2} "
        f"(fold-and-retry decoding exact below half the balanced parameter)",
    ]
    return LoadedCode(
        family="wozencraft",
        descriptor=desc,
        q=q,
        message_length=w.dimension,
        block_length=w.n,
        radius=d.balanced_d / 2,
        encode=lambda m: weldon_encode(w, m),
        decode=lambda word: weldon_decode(w, d, word),
        matrix_code=lambda: w.code,
        balanced_blocks=w.t,
        bound_lines=bounds,
        certified_distance=d.balanced_d,
    )


# family name -> (builder, required parameters, optional parameters)
_FAMILY_SPECS = {
    "sidon-dc": (_build_sidon_dc_family, ("q", "k"), ("sidon",)),
    "rm-dc": (_build_rm_dc_family, ("m",), ("r",)),
    "wozencraft": (_build_wozencraft_family, ("q", "k"), ("sidon",)),
}
FAMILIES = tuple(_FAMILY_SPECS)

# Ceilings, checked before any build or primality test (is_prime
# trial-divides up to sqrt(q)). Up to q = 2^31 - 1 every symbol, product and
# column_majority key fits in int64. _max_k keeps a build plus one decode at
# full capability below ~0.4 GB RSS (measured, README): sidon-dc decodes q=2
# on packed ints and q > 2 on a (d, k) int64 vote array, and a wozencraft
# gap instance's flip-one decode holds (2k)^2 (q-1) trial symbols.
_MAX_Q = 2**31 - 1


def _max_k(family: str, q: int) -> int:
    if family == "sidon-dc":
        return 10**6 if q == 2 else 10**5
    return math.isqrt(2 * 10**6 // (q - 1))


def _check_field_size(q: int) -> None:
    if q > _MAX_Q:
        raise ValueError(f"q must be at most 2^31 - 1 = {_MAX_Q}, got {q}")


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false load as bools, not ints


def build_family(family, params: dict) -> LoadedCode:
    """Build a family from the parameters its spec names, others ignored.

    Every parameter is an int except sidon, a list of ints; optional ones
    may be None. Any other family or value type is a ValueError, so a
    malformed descriptor is reported rather than crashing a builder, and so
    is a q or k above its ceiling (_MAX_Q, _max_k).
    """
    if not isinstance(family, str) or family not in _FAMILY_SPECS:
        raise ValueError(f"unknown family {family!r}")
    builder, required, optional = _FAMILY_SPECS[family]
    args = {name: params.get(name) for name in required + optional}
    for name, value in args.items():
        if value is None:
            if name in required:
                raise ValueError(f"{family} needs parameter {name}")
            continue
        if name == "sidon":
            ok = isinstance(value, list) and all(map(_is_int, value))
            kind = "a list of integers"
        else:
            ok = _is_int(value)
            kind = "an integer"
        if not ok:
            raise ValueError(f"{family}: {name} must be {kind}, got {value!r}")
    if "q" in args:  # sidon-dc and wozencraft, checked before the build
        q, k = args["q"], args["k"]
        _check_field_size(q)
        if q >= 2 and k > _max_k(family, q):  # a smaller q fails in the build
            raise ValueError(
                f"{family}: k must be at most {_max_k(family, q)} for q={q}, got {k}"
            )
    return builder(**args)


def dump_descriptor(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True, indent=2) + "\n"


def load_descriptor(path: str) -> LoadedCode:
    """Rebuild the code from its parameters and verify every derived field.

    A descriptor whose recorded bounds disagree with what its parameters
    produce is rejected, so a stale or edited file cannot silently change
    the code's certified properties.
    """
    with open(path, "r", encoding="ascii") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError("descriptor must be a JSON object")
    loaded = build_family(desc.get("family"), desc)
    if loaded.descriptor != desc:
        raise ValueError(
            "descriptor does not match what its parameters produce; "
            "refusing to use it"
        )
    return loaded


def _load_or_report(command: str, path: str) -> Optional[LoadedCode]:
    """load_descriptor, with any failure printed as one line."""
    try:
        return load_descriptor(path)
    except (OSError, ValueError, LookupError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
    except RecursionError:  # json's parser on deeply nested arrays
        print(f"{command}: descriptor nests too deeply", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# word file I/O
# ---------------------------------------------------------------------------


# The ASCII whitespace str.split() splits on and str.strip() strips.
_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_DIGITS = b"0123456789"


def _read_words(path: Optional[str], q: int, length: int, what: str) -> np.ndarray:
    """Words from the file at path, or from stdin when path is None, as an
    (N, length) array: uint8 for q <= 256, int64 above.

    A line holds ASCII digits and _SPACE; blank lines are skipped. Each check
    runs once per line in C: bytes.translate for the symbols, str.split for
    the count and, when every token is one digit, a frombuffer of the
    digits; longer tokens go through int().
    """
    dtype = np.uint8 if q <= 256 else np.int64
    rows = []
    with open(path) if path else contextlib.nullcontext(sys.stdin) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            # int() alone would also take "1_0", "+3" and non-ASCII digits
            if not line.isascii() or line.encode().translate(None, _DIGITS + _SPACE):
                raise ValueError(f"line {lineno}: non-integer symbol in {what}")
            tokens = line.split()
            if len(tokens) != length:
                raise ValueError(
                    f"line {lineno}: expected {length} symbols, got {len(tokens)}"
                )
            digits = line.encode().translate(None, _SPACE)
            if len(digits) == length:  # every token is one digit
                row = np.frombuffer(digits, dtype=np.uint8) - ord("0")
                top = row.max()
            else:
                row = list(map(int, tokens))
                top = max(row)
            if top >= q:
                raise ValueError(f"line {lineno}: symbols must lie in [0, {q})")
            rows.append(np.asarray(row, dtype=dtype))
    return np.array(rows, dtype=dtype).reshape(-1, length)


def _write_words(path: Optional[str], words: np.ndarray) -> None:
    """Rows of words to the file at path, or to stdout when path is None.

    Words of single-digit symbols go out as one buffer of digits, spaces
    and newlines; others one " ".join line at a time.
    """
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as stream:
        if words.max(initial=0) < 10:
            buf = np.full((len(words), 2 * words.shape[1]), ord(" "), dtype=np.uint8)
            buf[:, ::2] = words + ord("0")
            buf[:, -1] = ord("\n")
            stream.write(buf.tobytes().decode("ascii"))
            return
        for w in words:
            stream.write(" ".join(map(str, w.tolist())) + "\n")


def _as_row(symbols: Sequence[int], dtype) -> np.ndarray:
    """A tuple of symbols as a row of the given word dtype. bytes() reads a
    uint8 row, many times faster than np.asarray."""
    if dtype == np.uint8:
        return np.frombuffer(bytes(symbols), dtype=np.uint8)
    return np.asarray(symbols, dtype=dtype)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    try:
        loaded = build_family(args.family, vars(args))
    except (ValueError, LookupError) as exc:
        print(f"construct: {exc}", file=sys.stderr)
        return 1
    text = dump_descriptor(loaded.descriptor)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote descriptor to {args.out}")
    else:
        sys.stdout.write(text)
    print(
        f"{loaded.family}: length {loaded.block_length}, "
        f"dimension {loaded.message_length}, alphabet F_{loaded.q}"
    )
    for line in loaded.bound_lines:
        print(line)
    return 0


def _cmd_encode(args) -> int:
    loaded = _load_or_report("encode", args.descriptor)
    if loaded is None:
        return 1
    try:
        messages = _read_words(args.infile, loaded.q, loaded.message_length, "message")
    except (OSError, ValueError) as exc:
        print(f"encode: {exc}", file=sys.stderr)
        return 1
    words = np.empty((len(messages), loaded.block_length), dtype=messages.dtype)
    for i, m in enumerate(messages):
        words[i] = _as_row(loaded.encode(m), words.dtype)
    _write_words(args.out, words)
    return 0


def _cmd_decode(args) -> int:
    loaded = _load_or_report("decode", args.descriptor)
    if loaded is None:
        return 1
    try:
        words = _read_words(args.infile, loaded.q, loaded.block_length, "word")
    except (OSError, ValueError) as exc:
        print(f"decode: {exc}", file=sys.stderr)
        return 1
    messages = np.empty((len(words), loaded.message_length), dtype=words.dtype)
    notes = []
    for idx, w in enumerate(words, start=1):
        outcome = loaded.decode(w)
        if outcome is FAIL:
            notes.append(f"decode: word {idx}: no codeword within radius\n")
            sys.stderr.write("".join(notes))
            return 2
        corrected = np.count_nonzero(_as_row(outcome.codeword, w.dtype) != w)
        notes.append(f"word {idx}: corrected {corrected} errors\n")
        messages[idx - 1] = _as_row(outcome.message, w.dtype)
    sys.stderr.write("".join(notes))
    _write_words(args.out, messages)
    return 0


def _cmd_analyze(args) -> int:
    loaded = _load_or_report("analyze", args.descriptor)
    if loaded is None:
        return 1
    print(
        f"{loaded.family}: length {loaded.block_length}, "
        f"dimension {loaded.message_length}, alphabet F_{loaded.q}"
    )
    for line in loaded.bound_lines:
        print(line)
    if args.exact_distance:
        start = time.perf_counter()
        try:
            _require_budget(loaded.q, loaded.message_length, "distance scan")
            dist = brute_force_distance(loaded.matrix_code())
        except OracleBudgetExceeded as exc:
            print(f"exact distance: skipped ({exc})")
        else:
            elapsed = time.perf_counter() - start
            margin = Fraction(dist) - loaded.certified_distance
            print(
                f"exact distance {dist} (bound {loaded.certified_distance}, "
                f"margin {margin}) in {elapsed:.2f}s"
            )
    if args.balanced:
        start = time.perf_counter()
        try:
            _require_budget(loaded.q, loaded.message_length, "balanced profile scan")
            prof = brute_force_balanced_profile(
                loaded.matrix_code(), loaded.balanced_blocks
            )
        except OracleBudgetExceeded as exc:
            print(f"balanced profile: skipped ({exc})")
        else:
            elapsed = time.perf_counter() - start
            print(
                f"exact balanced profile {prof} over {loaded.balanced_blocks} "
                f"blocks in {elapsed:.2f}s"
            )
    # quick decoder timing on a clean codeword
    zero = loaded.encode((0,) * loaded.message_length)
    start = time.perf_counter()
    loaded.decode(zero)
    print(f"single decode: {(time.perf_counter() - start) * 1000:.2f} ms")
    return 0


def _cmd_params_find_k(args) -> int:
    try:
        _check_field_size(args.q)
        k = find_wozencraft_k(args.q, args.min, args.limit)
    except (ValueError, LookupError) as exc:
        print(f"params: {exc}", file=sys.stderr)
        return 1
    print(k)
    return 0


def _cmd_selftest(args) -> int:
    if args.list:
        for name, (_, blurb) in CRITERIA.items():
            print(f"{name}: {blurb}")
        return 0
    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in CRITERIA]
        if unknown:
            print(f"selftest: unknown criteria {', '.join(unknown)}", file=sys.stderr)
            return 1
    results = run_all(names)
    failed = 0
    for res in results:
        print(f"SELFTEST {res.name} {res.status} {res.seconds:.2f}s {res.detail}")
        if res.status == "FAIL":
            failed += 1
    total = len(results)
    passed = sum(1 for r in results if r.status == "PASS")
    skipped = sum(1 for r in results if r.status == "SKIP")
    print(f"SELFTEST SUMMARY pass={passed} fail={failed} skip={skipped} total={total}")
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    if args.trials < 1:
        print("bench: --trials must be at least 1", file=sys.stderr)
        return 1
    loaded = _load_or_report("bench", args.descriptor)
    if loaded is None:
        return 1
    rng = random.Random(args.seed)
    weight = capability(loaded.radius)
    times = []
    # a first, warm-up trial builds lazy tables; it is reported alone
    for _ in range(args.trials + 1):
        msg = tuple(rng.randrange(loaded.q) for _ in range(loaded.message_length))
        start = time.perf_counter()
        cw = loaded.encode(msg)
        enc = time.perf_counter() - start
        w = list(cw)
        for pos in rng.sample(range(loaded.block_length), weight):
            delta = rng.randrange(1, loaded.q)
            w[pos] = (w[pos] + delta) % loaded.q
        start = time.perf_counter()
        out = loaded.decode(w)
        times.append((enc, time.perf_counter() - start))
        if out is FAIL or out.message != msg:
            print(f"bench: decode mismatch at weight {weight}", file=sys.stderr)
            return 1
    print(f"cold first decode {times[0][1] * 1000:.3f} ms")
    enc_time, dec_time = map(sum, zip(*times[1:]))
    print(
        f"{args.trials} trials at error weight {weight}: "
        f"encode {enc_time / args.trials * 1000:.3f} ms, "
        f"decode {dec_time / args.trials * 1000:.3f} ms"
    )
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="dccodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and write its descriptor")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--q", type=int, help="field size (sidon-dc, wozencraft)")
    p.add_argument("--k", type=int, help="circulant size (sidon-dc, wozencraft)")
    p.add_argument("--m", type=int, help="number of variables (rm-dc)")
    p.add_argument("--r", type=int, help="order parameter (rm-dc, default m//2)")
    p.add_argument(
        "--sidon",
        type=lambda s: [int(v) for v in s.split(",")],
        help="comma-separated Sidon set elements (default: largest fitting set)",
    )
    p.add_argument("-o", "--out", help="descriptor output path (default stdout)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("encode", help="encode message lines to word lines")
    p.add_argument("descriptor")
    p.add_argument("--in", dest="infile", help="message file (default stdin)")
    p.add_argument("--out", help="word file (default stdout)")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="decode word lines to message lines")
    p.add_argument("descriptor")
    p.add_argument("--in", dest="infile", help="word file (default stdin)")
    p.add_argument("--out", help="message file (default stdout)")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("analyze", help="report certified bounds and oracle values")
    p.add_argument("descriptor")
    p.add_argument("--exact-distance", action="store_true")
    p.add_argument("--balanced", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("params", help="parameter searches")
    psub = p.add_subparsers(dest="params_command", required=True)
    pf = psub.add_parser("find-k", help="smallest valid quotient-field k")
    pf.add_argument("--q", type=int, required=True)
    pf.add_argument("--min", type=int, required=True)
    pf.add_argument("--limit", type=int, default=10**6)
    pf.set_defaults(fn=_cmd_params_find_k)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion names")
    p.add_argument("--list", action="store_true", help="list criteria and exit")
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser("bench", help="time encode/decode on random words")
    p.add_argument("descriptor")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
