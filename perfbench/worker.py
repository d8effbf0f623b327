"""One workload run in a fresh process; prints one JSON result line.

    python3 perfbench/worker.py --workload W --seed N --seconds T --mode M

Modes: ``setup`` builds the workload and does one warm-up decode; ``run``
also measures the untraced stream or sessions for T seconds; ``trace`` runs
T/2 seconds untraced and T/2 seconds traced and reports per-layer metrics.
``run.py`` starts this script with ``src`` on PYTHONPATH.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# Decodes per latency block; a block's p90 then has ten samples above it.
BLOCK = 100


def setup(name: str, rng: random.Random):
    """Build the workload's code(s) and do one warm-up decode."""
    if name == "certify":
        return workloads.Certify(OUT_DIR / f"certify-{os.getpid()}", rng)
    codec = workloads.CODECS[name]()
    codec.decode(codec.encode((0,) * codec.k))
    return codec


def measure(ctx, rng: random.Random, stats, seconds: float) -> None:
    if isinstance(ctx, workloads.Certify):
        ctx.run(rng, stats, seconds)
    else:
        workloads.codec_stream(ctx, rng, stats, seconds)


def decode_wps(stats, first: int = 0) -> float:
    times = stats.decode_ns[first:]
    return len(times) / (sum(times) / 1e9)


def latency_blocks(decode_ns: list) -> list:
    """Decode latencies in ms, cut into runs of about BLOCK consecutive words."""
    ms = [ns / 1e6 for ns in decode_ns]
    k = max(1, len(ms) // BLOCK)
    return [ms[i * len(ms) // k : (i + 1) * len(ms) // k] for i in range(k)]


def end_to_end(stats) -> dict:
    # Where the CPU speed shifts for seconds at a time, a percentile of the
    # pooled run, or a median of a few sessions, jumps between the speeds as
    # the slow share of the run crosses its rank. Averages over blocks and
    # sessions move in proportion to that share instead.
    blocks = latency_blocks(stats.decode_ns)
    return {
        "encode_wps": len(stats.encode_ns) / (sum(stats.encode_ns) / 1e9),
        "decode_wps": decode_wps(stats),
        "decode_p50_ms": statistics.mean(statistics.median(b) for b in blocks),
        "decode_p90_ms": statistics.mean(statistics.quantiles(b, n=10)[8] for b in blocks),
        "certify_s": statistics.mean(stats.session_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, stats, ctx, mark: tuple, untraced_wps: float) -> dict:
    """Per-layer metrics of the traced half, which starts at ``mark``:
    (first span, first stream decode, words decoded before it)."""
    first, traced_from, words_before = mark
    spans = tracer.spans
    agg = tracing.summarize(spans, first)
    decodes = stats.words - words_before

    def self_per_call(name, scale):
        a = agg[name]
        return a["self_ns"] / scale / a["calls"] if a["calls"] else 0.0

    def mean_ms(name):
        a = agg[name]
        return a["total_ns"] / 1e6 / a["calls"] if a["calls"] else 0.0

    def fail_frac(name):
        a = agg[name]
        return a["fails"] / a["calls"] if a["calls"] else 0.0

    def per_decode(name):
        return agg[name]["calls"] / decodes

    def lane_rate(lane):
        cw = sum(agg[o][f"{lane}_cw"] for o in tracing.ORACLES)
        ns = sum(agg[o][f"{lane}_ns"] for o in tracing.ORACLES)
        return cw / (ns / 1e9) if ns else 0.0

    betas = getattr(ctx, "beta_log", None) or []
    weldon_calls = agg["weldon.weldon_decode"]["calls"]
    cli_decode = agg["cli.decode"]
    cli_words = len(getattr(ctx, "fig1_weights", ())) * cli_decode["calls"]
    in_cli = tracing.inside(spans, "design_dc.design_decode", "cli.decode", first)
    us = 1e3
    return {
        "design_dc.design_decode.self_us": self_per_call("design_dc.design_decode", us),
        "design_dc.design_decode.fail_frac": fail_frac("design_dc.design_decode"),
        "design_dc.dc_encode.self_us": self_per_call("design_dc.dc_encode", us),
        "algebra.cyclic_mul.calls": per_decode("algebra.cyclic_mul"),
        "algebra.cyclic_mul.self_ms": self_per_call("algebra.cyclic_mul", 1e6),
        "algebra.poly_divmod.self_us": self_per_call("algebra.poly_divmod", us),
        "cyc_dc.cyc_dc_decode.self_us": self_per_call("cyc_dc.cyc_dc_decode", us),
        "reed_muller.reed_decode.calls_per_decode": per_decode("reed_muller.reed_decode"),
        "reed_muller.reed_decode.self_us": self_per_call("reed_muller.reed_decode", us),
        "reed_muller.shortened_dual_rm_decode.self_us": self_per_call(
            "reed_muller.shortened_dual_rm_decode", us
        ),
        "reed_muller.shortened_dual_rm_decode.fail_frac": fail_frac(
            "reed_muller.shortened_dual_rm_decode"
        ),
        "reed_muller.punctured_rm_decode.self_us": self_per_call(
            "reed_muller.punctured_rm_decode", us
        ),
        "reed_muller.build_punctured_rm.ms": agg["reed_muller.build_punctured_rm"]["all_ns"] / 1e6,
        "cyclic.generator_from_spanning_set.ms": agg["cyclic.generator_from_spanning_set"]["all_ns"]
        / 1e6,
        "weldon.weldon_decode.self_us": self_per_call("weldon.weldon_decode", us),
        "weldon.beta_attempts_per_decode": len(betas) / weldon_calls if weldon_calls else 0.0,
        "weldon.beta_hit_frac": sum(ok for _, ok in betas) / len(betas) if betas else 0.0,
        "weldon.inner_decode.self_us": self_per_call("weldon.inner_decode", us),
        "weldon.weldon_membership.self_us": self_per_call("weldon.weldon_membership", us),
        "algebra.quotient_mul.calls": per_decode("algebra.quotient_mul"),
        "algebra.reduce_mod_pk.calls_per_decode": per_decode("algebra.reduce_mod_pk"),
        "code_core.bounded_distance_decode.calls_per_decode": per_decode(
            "code_core.bounded_distance_decode"
        ),
        "code_core.bounded_distance_decode.self_us": self_per_call(
            "code_core.bounded_distance_decode", us
        ),
        "code_core.brute_force_distance.ms": mean_ms("code_core.brute_force_distance"),
        "code_core.brute_force_balanced_profile.ms": mean_ms(
            "code_core.brute_force_balanced_profile"
        ),
        "code_core.nearest_codeword.ms": mean_ms("code_core.nearest_codeword"),
        "code_core.gray_cw_per_s": lane_rate("gray"),
        "code_core.odometer_cw_per_s": lane_rate("odometer"),
        "cli.load_descriptor.ms": mean_ms("cli.load_descriptor"),
        "cli.analyze.ms": mean_ms("cli.analyze"),
        "cli.decode.us_per_word": cli_decode["total_ns"] / 1e3 / cli_words if cli_words else 0.0,
        "cli.decode.overhead_frac": 1 - in_cli / cli_decode["total_ns"]
        if cli_decode["total_ns"]
        else 0.0,
        "trace_overhead_frac": 1 - decode_wps(stats, traced_from) / untraced_wps,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    seed = f"{args.workload}:{args.seed}"
    rng = random.Random(seed)
    stats = workloads.Stats()
    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dccodes": workloads.cli.__file__,
    }
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(lambda: stats.attempted)
        tracer.install()
    ctx = setup(args.workload, rng)
    result["setup_s"] = time.perf_counter() - START
    try:
        if args.mode == "run":
            measure(ctx, rng, stats, args.seconds)
            result["metrics"] = end_to_end(stats)
        elif args.mode == "trace":
            tracer.uninstall()
            measure(ctx, rng, stats, args.seconds / 2)
            untraced = decode_wps(stats)
            mark = (len(tracer.spans), len(stats.decode_ns), stats.words)
            if isinstance(ctx, workloads.Codec):
                ctx.beta_log = []
            tracer.install(getattr(ctx, "instance_hooks", ()))
            try:
                measure(ctx, rng, stats, args.seconds / 2)
            finally:
                tracer.uninstall()
            result["metrics"] = layer_metrics(tracer, stats, ctx, mark, untraced)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        if isinstance(ctx, workloads.Certify):
            ctx.close()
    result["encodes"] = len(stats.encode_ns)
    result["decodes"] = len(stats.decode_ns)
    result["blocks"] = len(latency_blocks(stats.decode_ns))
    result["sessions"] = len(stats.session_s)
    result["attempted"] = stats.attempted
    result["violations"] = stats.violations
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
