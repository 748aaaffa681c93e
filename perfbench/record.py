"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every eval command of every input variant and each verify command
on two seeds, and writes perfbench/expected.json. Re-record only in a
change whose purpose is to change the program's output; a recording
made to get a failing check past the benchmark defeats the check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
from checks import parse_verify


def capture(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0 or err.getvalue():
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def main() -> int:
    cli = run.cea_modules().cli
    expected: dict = {}
    for workload in ("eval-bundled", "eval-chain"):
        out_dir = os.path.join(run.WORK, "record", workload)
        expected[workload] = [
            {label: capture(cli, argv)
             for label, argv in run.eval_commands(workload, variant, out_dir)}
            for variant in range(run.VARIANTS)
        ]
        print(f"{workload}: {run.VARIANTS} variants", file=sys.stderr)
    for workload in ("verify-sampled", "verify-higher"):
        recorded = None
        for seed in (0, 1):
            rows, summary = parse_verify(capture(cli, run.verify_command(workload, seed)[0]))
            if any(status != "PASS" for _, _, status, _ in rows):
                raise SystemExit(f"{workload} seed {seed}: a check failed")
            checks = [[section, name, cases] for section, name, _, cases in rows]
            if recorded is not None and checks != recorded:
                raise SystemExit(f"{workload}: case counts depend on the seed")
            recorded = checks
        expected[workload] = recorded
        print(f"{workload}: {len(recorded)} checks", file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
