"""Tests of the benchmark itself: its correctness gate, guards and tracing.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dccodes.design_dc as design_dc  # noqa: E402
from dccodes.sidon import sidon_for_length  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_codec() -> workloads.Codec:
    code = design_dc.build_sidon_dc(2, 242, sidon_for_length(242))
    return workloads.Codec(
        q=2,
        k=code.k,
        radius=code.decode_radius,
        max_errors=8,
        encode=lambda m: design_dc.dc_encode(code, m),
        decode=lambda w: design_dc.design_decode(code, w),
    )


def flip_message(decode):
    """A planted fault: successful decodes come back with symbol 0 flipped."""

    def faulty(*args, **kwargs):
        out = decode(*args, **kwargs)
        if out is workloads.FAIL:
            return out
        msg = ((out.message[0] + 1) % 2,) + out.message[1:]
        return workloads.code_core.Decoded(out.codeword, msg)

    return faulty


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_clean_stream_has_no_violations():
    stats = workloads.Stats()
    rng = random.Random(1)
    codec = small_codec()
    weights = workloads.error_weights(rng, codec.t, codec.max_errors)
    for _ in range(200):
        workloads.codec_word(codec, rng, stats, next(weights))
    workloads.codec_sweep(codec, stats)
    assert stats.attempted == 209
    assert stats.violations == 0


def test_planted_fault_is_caught(monkeypatch):
    monkeypatch.setattr(design_dc, "design_decode", flip_message(design_dc.design_decode))
    stats = workloads.Stats()
    rng = random.Random(1)
    codec = small_codec()
    weights = workloads.error_weights(rng, codec.t, codec.max_errors)
    for _ in range(50):
        workloads.codec_word(codec, rng, stats, next(weights))
    assert stats.violations / stats.attempted > 0


def test_planted_fault_is_caught_in_certify(monkeypatch, tmp_path):
    import dccodes.cli as cli

    certify = workloads.Certify(tmp_path / "work", random.Random(2))
    monkeypatch.setattr(cli, "design_decode", flip_message(cli.design_decode))
    stats = workloads.Stats()
    certify.cli_decode(stats)
    assert stats.violations > 0


def test_inputs_follow_the_seed():
    def words(seed):
        weights = workloads.error_weights(random.Random(seed), 7, 21)
        return [next(weights) for _ in range(100)]

    assert words("a:1") == words("a:1")
    assert words("a:1") != words("a:2")


def test_error_mix_is_three_in_four_within_radius():
    weights = workloads.error_weights(random.Random(3), 7, 21)
    draws = [next(weights) for _ in range(32 * 100)]
    assert sum(e <= 7 for e in draws) == 24 * 100
    assert min(draws) == 0 and max(draws) == 21


def test_tracer_records_spans_and_restores_functions():
    original = design_dc.design_decode
    stats = workloads.Stats()
    tracer = tracing.Tracer(lambda: stats.attempted)
    tracer.install()
    try:
        assert design_dc.design_decode is not original
        codec = small_codec()
        workloads.codec_word(codec, random.Random(4), stats, 1)
    finally:
        tracer.uninstall()
    assert design_dc.design_decode is original
    agg = tracing.summarize(tracer.spans)
    assert agg["design_dc.design_decode"]["calls"] == 1
    assert agg["design_dc.dc_encode"]["calls"] == 1
    enc = agg["design_dc.dc_encode"]
    assert 0 < enc["self_ns"] < enc["total_ns"]
    assert agg["algebra.cyclic_mul"]["calls"] == 1


@pytest.mark.parametrize(
    "env",
    [{"DCCODES_MAJORITY_TIE_HIGH": "1"}, {"ORACLE_BUDGET": "100"}],
    ids=["tie-hook", "low-oracle-budget"],
)
def test_guarded_environment_is_refused(env):
    proc = run_bench(
        "--workload", "sidon-codec", "--seed", "1", "--seconds", "1",
        env=dict(os.environ, **env),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(
        "--workload", "sidon-codec", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_output_matches_benchmark_json(trace):
    proc = run_bench("--workload", "sidon-codec", "--seed", "5", "--seconds", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_violations_make_the_run_fail(monkeypatch, capsys):
    import run

    def fake_worker(workload, seed, seconds, mode, deadline):
        return {
            "python": "3", "numpy": "2", "dccodes": "x",
            "metrics": {m["name"]: 1.0 for m in BENCHMARK["per_layer"]},
            "attempted": 10, "violations": 3,
        }

    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(
        sys, "argv",
        ["run.py", "--workload", "rm-codec", "--seed", "1", "--seconds", "1", "--trace", "1"],
    )
    assert run.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert "violation_frac 0.3 (3 of 10)" in lines[1]
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 3
