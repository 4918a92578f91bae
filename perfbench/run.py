"""cycliccover benchmark runner.

Usage, from the repository root:

    python3 perfbench/run.py --workload {decide,lemmas,local} --seed N \\
        --seconds S --trace {0,1}

A single-process, single-client, closed-loop benchmark: each op is one
in-process call of ``cycliccover.cli.main(argv)``, issued after the
previous one returns.  The op list comes from ``workloads.generate`` and
the expected results from ``oracle`` before anything is timed.  Each
worker is a fresh interpreter running the sources under ``src/``.

``--trace 0`` measures for S seconds untraced and prints the end-to-end
metrics.  ``--trace 1`` runs the same untraced measurement as the
reference, then one traced pass, and prints the per-layer metrics.
The last stdout line is the JSON result; the line before it records the
machine, the sample counts and the first failures.  Full records are kept
under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# Latencies and setup_s are reported as if the reference loop took this
# long; see adjusted_ms.
REFERENCE_MS = 1.0
SETUP_SPAWNS = 6  # fresh interpreters timed for setup_s before the worker,
# and again after it; the median of all of them is reported
WORKER_TIMEOUT_S = 150
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cycliccover.cli\n"
    "cycliccover.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "import statistics, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import worker\n"
    "ref = statistics.median(worker.time_reference() for _ in range(5))\n"
    "print(t1 - t0, ref / 1e6)\n")


def child_env() -> dict:
    """Environment of every child interpreter.  Bytecode caching is left on,
    as a user has it, so ``setup_s`` does not time compilation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CYCLICCOVER_BUDGET", None)
    return env


def measure_setup(spawns: int) -> list[tuple[float, float]]:
    """(seconds, reference ms) for each of ``spawns`` fresh interpreters: the
    time to import the CLI and build its parser (bytecode is cached by an
    earlier untimed spawn), then the median of five reference-loop runs."""
    times = []
    for _ in range(spawns):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)],
                             cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=60, check=True).stdout
        seconds, ref_ms = map(float, out.split())
        times.append((seconds, ref_ms))
    return times


def run_worker(ops_path: Path, out_dir: Path, seconds: int, trace: bool) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ops_path), str(out_dir),
         str(seconds), "1" if trace else "0"],
        cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))


def check_ops(ops, expected, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons): pass 0 against the oracle, later
    passes against pass 0 (the program is deterministic)."""
    attempted, failed, reasons = 0, 0, []
    first = result["passes"][0]["ops"]
    verdicts = []
    for i, (op, exp) in enumerate(zip(ops, expected)):
        _, code, _, _, error = first[i]
        stdout, stderr = result["outputs"][i]
        reason = error or oracle.check(op, exp, code, stdout, stderr)
        verdicts.append(reason)
    for p in result["passes"]:
        for i, (_, code, digest, _, error) in enumerate(p["ops"]):
            attempted += 1
            reason = verdicts[i] or error
            if not reason and (code, digest) != (first[i][1], first[i][2]):
                reason = "output differs from the first pass"
            if reason:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"op {i} {' '.join(ops[i]['argv'])}: "
                                   f"{reason[-300:]}")
    return attempted, failed, reasons


def adjusted_ms(p) -> list[float]:
    """One pass's op latencies, scaled to a host on which the reference loop
    takes ``REFERENCE_MS``.  Each op's time is divided by the mean of the
    reference times measured just before and just after it."""
    refs = p["refs"]
    return [op[0] / ((refs[i] + refs[i + 1]) / 2) * REFERENCE_MS
            for i, op in enumerate(p["ops"])]


def latency_metrics(per_pass: list[list[float]]) -> dict:
    """Throughput and percentiles from per-pass op latencies in ms.

    ``ops_per_s`` uses the median over passes of a whole pass's time, so
    costs that land on a different op in each pass (full collections,
    first-call cache fills) stay in it.  The percentiles use each op's
    median latency over the passes.
    """
    lat = [statistics.median(p[i] for p in per_pass)
           for i in range(len(per_pass[0]))]
    pass_ms = statistics.median(sum(p) for p in per_pass)
    return {
        "ops_per_s": (len(lat) / pass_ms * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
    }


def end_to_end(result, setup_s: float, attempted: int, failed: int) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **latency_metrics([adjusted_ms(p) for p in result["passes"]]),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
        "op_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def unadjusted(result) -> dict:
    """The wall-clock figures behind the adjusted ones, for the record."""
    passes = result["passes"]
    raw = latency_metrics([[op[0] / 1e6 for op in p["ops"]] for p in passes])
    refs = [r for p in passes for r in p["refs"]]
    return {**{name: value for name, (value, _) in raw.items()},
            "reference_ms": statistics.median(refs) / 1e6}


def op_stats(ops, result) -> dict:
    """CLI-level totals of the traced pass."""
    records = result["passes"][0]["ops"]
    refused = [r for r in records if r[1] == oracle.EXIT_BUDGET]
    return {"stdout_bytes": sum(r[3] for r in records),
            "refused_ops": len(refused),
            "refused_s": sum(r[0] for r in refused) / 1e9}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": commit or "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cycliccover" / "cli.py").is_file():
        print(f"error: no cycliccover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = generate(args.workload, args.seed, run_dir, ROOT)
    ops_path = run_dir / "ops.json"
    ops_path.write_text(json.dumps([op["argv"] for op in ops]), encoding="utf-8")
    expected = [oracle.expect(op) for op in ops]

    if args.trace == 0:
        measure_setup(1)  # compiles and caches bytecode; not timed
        setup_times = measure_setup(SETUP_SPAWNS)
    reference = run_worker(ops_path, run_dir / "untraced", args.seconds, False)
    attempted, failed, reasons = check_ops(ops, expected, reference)
    info = {"machine": machine(), "workload": args.workload, "seed": args.seed,
            "ops_per_pass": len(ops), "passes": len(reference["passes"])}
    if args.trace == 0:
        setup_times += measure_setup(SETUP_SPAWNS)
        setup_s = statistics.median(s * REFERENCE_MS / ref for s, ref in setup_times)
        metrics = end_to_end(reference, setup_s, attempted, failed)
        info["latency_samples"] = len(ops)
        info["unadjusted"] = unadjusted(reference) | {
            "setup_s": statistics.median(s for s, _ in setup_times)}
    else:
        traced = run_worker(ops_path, run_dir / "traced", 0, True)
        a, f, r = check_ops(ops, expected, traced)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
        summary = traced["trace"]
        spans = tracer.read_spans(run_dir / "traced", summary["span_count"])
        analysis = tracer.analyze(summary["keys"], spans)
        if analysis["bad_ops"]:
            failed += len(analysis["bad_ops"])
            reasons.append(f"self times do not sum to the root span on ops "
                           f"{analysis['bad_ops'][:5]}")
        untraced_pass = statistics.median(sum(op[0] for op in p["ops"])
                                          for p in reference["passes"])
        traced_pass = sum(op[0] for op in traced["passes"][0]["ops"])
        metrics = tracer.per_layer_metrics(
            summary, analysis, op_stats(ops, traced), traced_pass / untraced_pass)
        info["spans"] = summary["span_count"]
        info["layer_calls"] = tracer.layer_counts(summary)
    info["failures"] = reasons
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (run_dir / "result.json").write_text(
        json.dumps({"info": info, "result": record}, indent=1), encoding="utf-8")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
