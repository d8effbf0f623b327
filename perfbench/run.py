"""The dccodes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source tree (the directory holding ``src/dccodes``).
NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn. Every run starts fresh worker processes with ``src`` on PYTHONPATH and
one BLAS/OpenMP thread. With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run; the last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output met the decoder
contract. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sidon-codec", "rm-codec", "wozencraft-codec", "certify")

# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_PROBES = 2

# A run must end within 180 s; workers are killed at this deadline.
DEADLINE_S = 170

TIE_HOOK_ENV = "DCCODES_MAJORITY_TIE_HIGH"

# The largest oracle scan in certify: 2**18 codewords, for sidon-dc k=18 and
# wozencraft k=19 (dimension 18). A lower ORACLE_BUDGET makes the oracles raise.
CERTIFY_ORACLE_NEED = 2**18


class BenchError(Exception):
    """The benchmark cannot run here, or a worker failed."""


def check_environment() -> None:
    if not (ROOT / "src" / "dccodes" / "__init__.py").is_file():
        raise BenchError(f"no dccodes source tree at {ROOT / 'src'}")
    if TIE_HOOK_ENV in os.environ:
        raise BenchError(f"{TIE_HOOK_ENV} is set: it is the self-test mutation hook")
    raw = os.environ.get("ORACLE_BUDGET")
    if raw is not None:
        try:
            budget = int(raw)
        except ValueError:
            raise BenchError(f"ORACLE_BUDGET must be an int, got {raw!r}")
        if budget < CERTIFY_ORACLE_NEED:
            raise BenchError(
                f"ORACLE_BUDGET={budget} is below the {CERTIFY_ORACLE_NEED} "
                "evaluations certify needs"
            )


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker ran past the deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["dccodes"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported dccodes from {result['dccodes']}")
    return result


def git_commit() -> str:
    """HEAD of the tree's git checkout, read from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run one workload; print its report lines and return its JSON result."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        res = run_worker(workload, seed, seconds, "trace", deadline)
        values = res["metrics"]
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        res = run_worker(workload, seed, seconds, "run", deadline)
        setups = [res["setup_s"]]
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, seed, seconds, "setup", deadline)["setup_s"])
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    samples = {}
    if not trace:
        samples = {
            "setup_s": f"median of {len(setups)} processes",
            "encode_wps": f"over {res['encodes']} encodes",
            "decode_wps": f"over {res['decodes']} decodes",
            "decode_p50_ms": f"mean over {res['blocks']} blocks of {res['decodes']} decodes",
            "decode_p90_ms": f"mean over {res['blocks']} blocks of {res['decodes']} decodes",
            "certify_s": f"mean of {res['sessions']} sessions",
            "peak_rss_mb": "of the measuring process",
        }
    print(
        f"{workload}: environment python={res['python']} numpy={res['numpy']} "
        f"nproc={os.cpu_count()} commit={git_commit()} seed={seed} trace={int(trace)}"
    )
    frac = res["violations"] / res["attempted"]
    print(f"{workload}: violation_frac {frac} ({res['violations']} of {res['attempted']})")
    for name, m in metrics.items():
        print(f"{workload}: {name} {m['value']} {m['unit']} {samples.get(name, '')}".rstrip())
    return {
        "correct": res["violations"] == 0,
        "attempted": res["attempted"],
        "failed": res["violations"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        check_environment()
        if args.workload != "all":
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
        else:
            per = {}
            for name in WORKLOADS:
                deadline = time.monotonic() + DEADLINE_S
                per[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            result = {
                "correct": all(r["correct"] for r in per.values()),
                "attempted": sum(r["attempted"] for r in per.values()),
                "failed": sum(r["failed"] for r in per.values()),
                "metrics": {
                    f"{name}/{metric}": value
                    for name, r in per.items()
                    for metric, value in r["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
