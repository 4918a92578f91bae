"""Seeded fuzz of the CLI at edge values.

Draws argv over every command of ``cycliccover.cli._COMMANDS``: each
integer flag but --budget is left at its default or set to one of -1, 0,
1, a small value, 10^3, 10^6, 10^9 and 10^18; --budget is left at its
default or set to one of 0, 1, a small value and 10^3, so the budget cuts
of both lemmas are reached while each call stays short; every other option
is set to one of its choices.
Each call runs in a fresh process under ``timeout``.  The run fails when any
call prints a traceback, exits outside {0, 1, 2, 3} (a timeout exits 124)
or takes longer than BOUND seconds.  The slowest default-budget calls in
the draw space are num boxes whose DP only just fits its work cap, such as
--max-m 8 --max-K 10 --max-ell 1000, and local-model --d 10 --trials 1000:
about 1.0 s and 0.75 s in a fresh process on a 2-vCPU VM, so BOUND leaves
3.5x for a slower runner.  The seed-0 draw took 15 s in all there, 0.71 s
the slowest call.  It needs the ``cycliccover`` console script on PATH
(``pip install -e .``):

    python3 .github/fuzz_cli.py
"""

import collections
import json
import os
import random
import subprocess
import sys
import tempfile
import time

from cycliccover.cli import _COMMANDS

EDGES = (-1, 0, 1, "small", 10**3, 10**6, 10**9, 10**18)
BUDGETS = (0, 1, "small", 10**3)
CONFIG = {"schema": 1, "label": "geiser k=3", "d": 2, "branched": True,
          "profile": {"0": {"jet": 3, "very": 3}, "1": {"jet": 2, "very": 2}}}
EXIT_CODES = {0, 1, 2, 3}
SEED = 0
CALLS = 300
BOUND = 3.5  # wall-time bound per call, in seconds
COMMAND = ["cycliccover"]


def draw(rng: random.Random, config: str) -> list:
    """One argv: a command, its positional, and each option set with
    probability 3/4 (always, if required).  Where --ell is an integer
    >= 2, --k is set to ell + 0..12 half the time: drawn apart, they
    seldom give an alg box under the colength cap (ell <= k <= ell + 10)."""
    name = rng.choice(sorted(_COMMANDS))
    _, _, positional, flags = _COMMANDS[name]
    argv = [name]
    if positional is not None:
        argv.append(rng.choice(positional[3]))
    options = {}
    for flag, (dest, convert, _, choices, required) in flags.items():
        if not (required or rng.random() < 0.75):
            continue
        if convert is int:
            value = rng.choice(BUDGETS if dest == "budget" else EDGES)
            value = rng.randint(2, 12) if value == "small" else value
        elif choices is not None:
            value = rng.choice(choices)
        elif dest == "config":
            value = config
        else:  # examples --only
            value = rng.choice(("geiser", "no-such-entry"))
        options[flag] = value
    ell = options.get("--ell")
    if isinstance(ell, int) and ell >= 2 and rng.random() < 0.5:
        options["--k"] = ell + rng.randint(0, 12)
    for flag, value in options.items():
        argv += [flag, str(value)]
    return argv


def main() -> int:
    rng = random.Random(f"cycliccover-fuzz:{SEED}")
    codes = collections.Counter()
    failures, walls = [], []
    with tempfile.TemporaryDirectory() as workdir:
        config = os.path.join(workdir, "scenario.json")
        with open(config, "w", encoding="utf-8") as f:
            json.dump(CONFIG, f)
        for _ in range(CALLS):
            argv = draw(rng, config)
            start = time.monotonic()
            # the bound plus a second, so that a call over the bound is
            # timed rather than killed
            proc = subprocess.run(
                ["timeout", str(BOUND + 1), *COMMAND, *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            codes[proc.returncode] += 1
            walls.append((wall, argv))
            shown = " ".join(argv)
            if "Traceback (most recent call last)" in proc.stderr:
                failures.append(f"traceback: {shown}\n{proc.stderr[-2000:]}")
            if proc.returncode not in EXIT_CODES:
                failures.append(f"exit {proc.returncode}: {shown}")
            if wall > BOUND:
                failures.append(f"{wall:.2f} s over {BOUND} s: {shown}")
    print(f"{CALLS} calls, seed {SEED}, {sum(w for w, _ in walls):.0f} s in "
          f"all; exit codes {dict(sorted(codes.items()))}; the slowest:")
    for wall, argv in sorted(walls, key=lambda w: w[0], reverse=True)[:5]:
        print(f"  {wall:.2f} s: {' '.join(argv)}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
