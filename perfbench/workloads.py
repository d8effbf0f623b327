"""The benchmark's workloads: three codec streams and a certification session.

Every call into dccodes goes through a module attribute (``design_dc.dc_encode``
rather than an imported name), so the tracer in ``tracing.py`` can swap the
attribute for a timing wrapper and see the call.

Every output is checked against the decoder contract. A violation is:

* a word within the radius that does not come back as ``Decoded`` with the
  sent message and codeword;
* a word beyond the radius that comes back as anything other than ``FAIL`` or
  a codeword that re-encodes from its message and lies strictly within the
  radius;
* an exception;
* an oracle value below its certified bound;
* a decoder answer that disagrees with ``nearest_codeword`` within the radius.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

import dccodes.cli as cli
import dccodes.code_core as code_core
import dccodes.cyc_dc as cyc_dc
import dccodes.design_dc as design_dc
import dccodes.weldon as weldon
from dccodes.sidon import sidon_for_length

FAIL = code_core.FAIL

# Certification sweeps of a codec per run; each sends one word per error weight.
SWEEPS = 6
SWEEP_SEED = "sweep"


@dataclass
class Codec:
    """One family instance behind a uniform encode/decode interface."""

    q: int
    k: int
    radius: Fraction
    max_errors: int
    encode: Callable
    decode: Callable
    # instance attributes the tracer wraps, as (object, attribute, span name)
    instance_hooks: list = field(default_factory=list)
    # weldon_decode's trace list while a traced phase runs, else None
    beta_log: Optional[list] = None

    @property
    def t(self) -> int:
        """Largest error weight strictly below the radius."""
        return (self.radius.numerator - 1) // self.radius.denominator


def build_sidon_codec() -> Codec:
    code = design_dc.build_sidon_dc(2, 2000, sidon_for_length(2000))
    return Codec(
        q=2,
        k=code.k,
        radius=code.decode_radius,
        max_errors=21,
        encode=lambda m: design_dc.dc_encode(code, m),
        decode=lambda w: design_dc.design_decode(code, w),
    )


def build_rm_codec() -> Codec:
    code = cyc_dc.build_rm_dual_dc(8)
    return Codec(
        q=2,
        k=code.k,
        radius=code.decode_radius,
        max_errors=21,
        encode=lambda m: cyc_dc.cyc_dc_encode(code, m),
        decode=lambda w: cyc_dc.cyc_dc_decode(code, w),
    )


def build_wozencraft_codec() -> Codec:
    wc, tc = weldon.build_wozencraft(2, 59)
    codec = Codec(
        q=2,
        k=wc.dimension,
        radius=tc.balanced_d / 2,
        max_errors=6,
        encode=lambda m: weldon.weldon_encode(wc, m),
        decode=lambda w: weldon.weldon_decode(wc, tc, w, codec.beta_log),
        instance_hooks=[(tc, "decoder", "weldon.inner_decode")],
    )
    return codec


CODECS = {
    "sidon-codec": build_sidon_codec,
    "rm-codec": build_rm_codec,
    "wozencraft-codec": build_wozencraft_codec,
}


@dataclass
class Stats:
    """What a run measured and checked."""

    encode_ns: list = field(default_factory=list)
    decode_ns: list = field(default_factory=list)
    session_s: list = field(default_factory=list)
    # words decoded, sweep words included
    words: int = 0
    attempted: int = 0
    violations: int = 0

    def violation(self, what: str) -> None:
        self.violations += 1
        print(f"violation: {what}", file=sys.stderr)


def error_weights(rng: random.Random, t: int, max_errors: int) -> Iterator[int]:
    """Error weights for a stream, in shuffled blocks of 4(t+1) words.

    Each block holds every weight 0..t three times and t+1 weights drawn
    from t+1..max_errors, so three words in four lie within the radius and
    the mix does not drift between runs.
    """
    while True:
        block = [e for e in range(t + 1) for _ in range(3)]
        block += [rng.randint(t + 1, max_errors) for _ in range(t + 1)]
        rng.shuffle(block)
        yield from block


def corrupt(rng: random.Random, cw: tuple, errors: int, q: int) -> tuple:
    word = list(cw)
    for pos in rng.sample(range(len(cw)), errors):
        word[pos] = (word[pos] + rng.randrange(1, q)) % q
    return tuple(word)


def contract_holds(codec: Codec, msg, cw, word, errors: int, out) -> bool:
    """The decoder contract for one word sent as cw with `errors` errors."""
    if errors <= codec.t:
        return out is not FAIL and out.message == msg and out.codeword == cw
    if out is FAIL:
        return True
    return (
        tuple(codec.encode(out.message)) == tuple(out.codeword)
        and code_core.hamming_distance(out.codeword, word) < codec.radius
    )


def codec_word(
    codec: Codec, rng: random.Random, stats: Stats, errors: int, oracle=None
) -> None:
    """Encode a random message, corrupt it, decode it and check the answer.

    With an oracle (the code's GeneratorMatrixCode), the answer is also
    compared with nearest_codeword.
    """
    msg = tuple(rng.randrange(codec.q) for _ in range(codec.k))
    stats.attempted += 1
    try:
        t0 = time.perf_counter_ns()
        cw = codec.encode(msg)
        t1 = time.perf_counter_ns()
        word = corrupt(rng, cw, errors, codec.q)
        t2 = time.perf_counter_ns()
        out = codec.decode(word)
        t3 = time.perf_counter_ns()
        stats.words += 1
        ok = contract_holds(codec, msg, cw, word, errors, out)
        if oracle is not None:
            stats.attempted += 1
            near, dist = code_core.nearest_codeword(oracle, word)
            if dist < codec.radius and (out is FAIL or out.codeword != near):
                stats.violation(f"decoder disagrees with nearest_codeword: {out!r:.200}")
    except Exception:
        stats.violation(f"exception at {errors} errors\n{traceback.format_exc()}")
        return
    stats.encode_ns.append(t1 - t0)
    stats.decode_ns.append(t3 - t2)
    if not ok:
        stats.violation(f"contract broken at {errors} errors: {out!r:.200}")


def codec_sweep(codec: Codec, stats: Stats) -> None:
    """One certification session of a codec: a word at every error weight.

    Every sweep sends the same words, whatever the run's seed, so sweeps
    differ only in time. Their words are checked but left out of the
    stream's latency samples, which keep the stream's error-weight mix.
    """
    rng = random.Random(SWEEP_SEED)
    sweep = Stats()
    t0 = time.perf_counter()
    for errors in range(codec.max_errors + 1):
        codec_word(codec, rng, sweep, errors)
    stats.session_s.append(time.perf_counter() - t0)
    stats.words += sweep.words
    stats.attempted += sweep.attempted
    stats.violations += sweep.violations


def codec_stream(codec: Codec, rng: random.Random, stats: Stats, seconds: float) -> None:
    """Closed loop, one caller: the next word goes out when the last is back.

    The run is cut into SWEEPS slices, each opening with a certification
    sweep, so the sweeps sample the whole run rather than its first seconds.
    """
    start = time.perf_counter()
    weights = error_weights(rng, codec.t, codec.max_errors)
    for i in range(SWEEPS):
        codec_sweep(codec, stats)
        slice_end = start + seconds * (i + 1) / SWEEPS
        # at least one stream word per slice, however short the run
        codec_word(codec, rng, stats, next(weights))
        while time.perf_counter() < slice_end:
            codec_word(codec, rng, stats, next(weights))


# ---------------------------------------------------------------------------
# certification session
# ---------------------------------------------------------------------------

# descriptor name -> `dccodes construct` arguments
CONSTRUCT = {
    "sidon18": ["sidon-dc", "--q", "2", "--k", "18", "--sidon", "0,7,13"],
    "woz19": ["wozencraft", "--q", "2", "--k", "19", "--sidon", "1,8,14"],
    "sidon3": ["sidon-dc", "--q", "3", "--k", "11", "--sidon", "0,1,3"],
    "fig1": ["sidon-dc", "--q", "2", "--k", "242"],
}
ANALYZED = ("sidon18", "woz19", "sidon3")

# Weight-2 patterns sampled into the word file, on top of all weight 0 and 1.
FIG1_WEIGHT2 = 500

# Cross-check instances: (q, k, Sidon set, words per round, nearest_codeword
# checks per session). A session runs CROSS_ROUNDS rounds, each sending the
# instances' words in turn, so any stretch of the session has the same mix.
CROSS = (
    (2, 18, (0, 7, 13), 1, 3),
    (3, 11, (0, 1, 3), 3, 1),
)
CROSS_ROUNDS = 100
CROSS_MAX_ERRORS = 4


def run_cli(argv: list) -> tuple[int, str, str]:
    """Run the CLI in-process with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Certify:
    """Descriptors, a word file and in-process codes for the session."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        self.bounds = {}
        for name, args in CONSTRUCT.items():
            path = workdir / f"{name}.json"
            code, out, err = run_cli(["construct", *args, "-o", str(path)])
            if code != 0:
                raise RuntimeError(f"construct {name} exited {code}: {err}")
            self.paths[name] = str(path)
            desc = json.loads(path.read_text())
            if desc["family"] == "wozencraft":
                self.bounds[name] = (Fraction(desc["balanced_bound"]), None)
            else:
                self.bounds[name] = (
                    Fraction(desc["distance_bound"]),
                    Fraction(desc["balanced_bound"]),
                )

        fig1 = design_dc.build_sidon_dc(2, 242, sidon_for_length(242))
        self.fig1_msg = tuple(rng.randrange(2) for _ in range(fig1.k))
        cw = design_dc.dc_encode(fig1, self.fig1_msg)
        n = len(cw)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        patterns = [()] + [(i,) for i in range(n)] + rng.sample(pairs, FIG1_WEIGHT2)
        self.fig1_weights = [len(p) for p in patterns]
        lines = []
        for positions in patterns:
            word = list(cw)
            for pos in positions:
                word[pos] ^= 1
            lines.append(" ".join(map(str, word)))
        self.words_path = str(workdir / "fig1-words.txt")
        Path(self.words_path).write_text("\n".join(lines) + "\n")

        self.cross = []
        for q, k, sidon, words, checks in CROSS:
            sdc = design_dc.build_sidon_dc(q, k, sidon)
            codec = Codec(
                q=q,
                k=k,
                radius=sdc.decode_radius,
                max_errors=CROSS_MAX_ERRORS,
                encode=lambda m, c=sdc: design_dc.dc_encode(c, m),
                decode=lambda w, c=sdc: design_dc.design_decode(c, w),
            )
            self.cross.append((codec, sdc.code, words, checks))
            codec.decode(codec.encode((0,) * k))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def analyze(self, name: str, stats: Stats) -> None:
        code, out, err = run_cli(
            ["analyze", self.paths[name], "--exact-distance", "--balanced"]
        )
        if code != 0:
            stats.attempted += 1
            stats.violation(f"analyze {name} exited {code}: {err}")
            return
        for label, bound in zip(
            ("exact distance", "exact balanced profile"), self.bounds[name]
        ):
            if bound is None:
                continue
            stats.attempted += 1
            found = re.search(rf"^{label} (\d+)", out, re.M)
            if found is None or int(found.group(1)) < bound:
                stats.violation(f"analyze {name}: {label} below {bound}: {out}")

    def cli_decode(self, stats: Stats) -> None:
        code, out, err = run_cli(["decode", self.paths["fig1"], "--in", self.words_path])
        stats.attempted += len(self.fig1_weights)
        if code != 0:
            stats.violation(f"decode exited {code}: {err[-500:]}")
            return
        expected = " ".join(map(str, self.fig1_msg))
        got = out.splitlines()
        notes = err.splitlines()
        if len(got) != len(self.fig1_weights) or len(notes) != len(got):
            stats.violation(f"decode returned {len(got)} lines and {len(notes)} notes")
            return
        for idx, (line, note, weight) in enumerate(zip(got, notes, self.fig1_weights), 1):
            if line != expected or note != f"word {idx}: corrected {weight} errors":
                stats.violation(f"decode word {idx}: {note}")

    def cross_check(self, rng: random.Random, stats: Stats) -> None:
        streams = [
            (codec, matrix_code, words, checks, error_weights(rng, codec.t, codec.max_errors))
            for codec, matrix_code, words, checks in self.cross
        ]
        for i in range(CROSS_ROUNDS):
            for codec, matrix_code, words, checks, weights in streams:
                for j in range(i * words, (i + 1) * words):
                    oracle = matrix_code if j < checks else None
                    codec_word(codec, rng, stats, next(weights), oracle)

    def run(self, rng: random.Random, stats: Stats, seconds: float) -> None:
        """Closed loop of whole sessions, at least one, for about `seconds`."""
        deadline = time.perf_counter() + seconds
        self.session(rng, stats)
        while time.perf_counter() < deadline:
            self.session(rng, stats)

    def session(self, rng: random.Random, stats: Stats) -> None:
        steps = [lambda name=name: self.analyze(name, stats) for name in ANALYZED]
        steps += [lambda: self.cli_decode(stats), lambda: self.cross_check(rng, stats)]
        t0 = time.perf_counter()
        for step in steps:
            try:
                step()
            except Exception:
                stats.attempted += 1
                stats.violation(f"exception in certify\n{traceback.format_exc()}")
        stats.session_s.append(time.perf_counter() - t0)

