"""Runs one op list in a fresh interpreter and records what happened.

Usage: python3 perfbench/worker.py OPS_JSON OUT_DIR SECONDS TRACE

Each op is one in-process call of ``cycliccover.cli.main(argv)`` with
stdout and stderr captured.  Untraced (TRACE=0), whole passes over the op
list repeat until SECONDS have been measured (at least one pass).  Traced
(TRACE=1), the layers are wrapped first and exactly one pass runs, so the
counts depend on the op list only.  Results go to OUT_DIR/result.json; the
traced run also writes its spans to OUT_DIR/spans.bin.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


def _reference() -> int:
    """Fixed pure-Python work that uses nothing from ``cycliccover``: integer
    arithmetic through function calls and a Fraction sum, like the
    program's inner loops.  Its time follows the host's speed."""
    def tau(k, ell):
        return k - k // ell - ell + (k % ell == 0) + 1

    n = sum(max(tau(k, ell) for ell in range(2, 9)) for k in range(1, 400))
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(i % 7 + 1, i)
    return n + total.denominator


def time_reference() -> int:
    """ns one run of ``_reference`` takes, with the collector paused so the
    program's heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    _reference()
    t1 = time.perf_counter_ns()
    if enabled:
        gc.enable()
    return t1 - t0


def run_pass(main, ops, tracer=None):
    """One pass; returns (wall ns, reference ns, records).

    The reference is timed before the first op and after every op, so op i
    lies between reference samples i and i + 1.  Each record is
    (latency ns, exit, stdout, stderr, error).
    """
    records = []
    clock = time.perf_counter_ns
    pass_start = clock()
    refs = [time_reference()]
    for op_id, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # an op failure; the run goes on
                code, error = None, traceback.format_exc()
            t1 = clock()
        records.append((t1 - t0, code, out.getvalue(), err.getvalue(), error))
        refs.append(time_reference())
    return clock() - pass_start, refs, records


def main(argv: list[str]) -> int:
    ops_path, out_dir, seconds, trace = argv
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = json.loads(Path(ops_path).read_text(encoding="utf-8"))

    import cycliccover
    import cycliccover.cli

    tracer = None
    if trace == "1":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cycliccover)
        gc.collect()  # the collector's counts then depend on the ops alone
        tracer.start_gc_tracking()
    cli_main = cycliccover.cli.main  # read after wrapping

    passes, outputs, measured = [], None, 0
    while True:
        wall, refs, records = run_pass(cli_main, ops, tracer)
        measured += wall
        if outputs is None:
            outputs = [[r[2], r[3]] for r in records]
        passes.append({"refs": refs, "ops": [
            [lat, code, hashlib.sha1(stdout.encode()).hexdigest(),
             len(stdout.encode()), error]
            for lat, code, stdout, _, error in records]})
        if tracer is not None or measured >= float(seconds) * 1e9:
            break

    result = {"passes": passes, "outputs": outputs,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": None}
    if tracer is not None:
        tracer.stop_gc_tracking()
        result["trace"] = tracer.write(out_dir)
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
