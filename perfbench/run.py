"""End-to-end benchmark of the `cea` command line, with layer traces.

    python3 perfbench/run.py --workload eval-chain --seed 3 --seconds 25 --trace 0

Drives `cea.cli.main` in-process from one thread as a closed loop with
one client: the next command starts when the previous one has returned.
Every command's output is checked (see checks.py). The program comes
from `src/` of the checkout this file sits in; nothing is installed.

Workloads (why each exists: README.md in this directory):

- eval-bundled: the bundled medical KB; rotates cl at one atom,
  pl uniform, cpl uniform, cpl with exact factors and fl.
- eval-chain: the generated chain KB(6); cl, pl and cpl with float
  factors, and fl.
- verify-sampled: `oracle verify --atoms 4 --seed <seed> --samples 500`.
- verify-higher: `oracle verify --atoms 2 --higher-order --seed <seed>`.

One round is the workload's command list run once, between two timed
calls of `reference_work()`. The untraced loop runs whole rounds until
--seconds have passed; the latency metric is a query's time over the
reference's, which does not follow the speed swings of a shared machine
(README.md). Every command takes well under two seconds, so that the
reference is timed in the same speed spell as the commands it is
compared with. Set-up is timed the same way, between two reference
calls, SETUP_REPEATS times before the loop and as often after it.

With --trace 1 the same number of rounds then runs again with every
layer boundary wrapped (tracer.py); per-layer metrics are per round,
and the spans are written to .perfbench_work/<workload>-spans.jsonl.
Input files go to a fresh directory under .perfbench_work/ that is
removed at the end.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end ones with --trace 0, the per-layer ones with
--trace 1). Exits 2 without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
GOLDEN_PIPELINE = os.path.join(SRC, "cea", "data", "golden", "pipeline_form.json")

# Eval inputs come from one of VARIANTS recorded seeds (seed mod VARIANTS),
# so that every command's stdout has a recorded expected value.
VARIANTS = 64
CHAIN_K = 6
VERIFY_SAMPLES = 500
# Set-up runs SETUP_REPEATS times before the measured loop and as many
# times after it, so that its median spans the run.
SETUP_REPEATS = 8
# setup_s is the set-up's time over reference_work()'s, in seconds at the
# speed at which reference_work() takes REFERENCE_SECONDS (about its time
# on the machine the benchmark was calibrated on).
REFERENCE_SECONDS = 0.005

if HERE not in sys.path:
    sys.path.insert(0, HERE)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import checks  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("eval-bundled", "eval-chain", "verify-sampled", "verify-higher")


class Op:
    """One CLI command and the check its output must pass."""

    __slots__ = ("label", "argv", "check")

    def __init__(self, label: str, argv: list[str], check):
        self.label = label
        self.argv = argv
        self.check = check  # (code, stdout, stderr) -> problem or None


def cea_modules() -> types.SimpleNamespace:
    """The program's modules, imported from the checkout."""
    names = ("cli", "engine", "semantics", "verify", "coset", "higher")
    modules = {n: importlib.import_module(f"cea.{n}") for n in names}
    if not os.path.abspath(modules["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"cea imported from {modules['cli'].__file__}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def eval_commands(workload: str, variant: int, out_dir: str) -> list[tuple[str, list[str]]]:
    """Generate the workload's input files; return (label, argv) pairs."""
    if workload == "eval-bundled":
        made = gen.write_bundled(out_dir, variant)
        measures = [("pl-uniform", "pl", "uniform"), ("cpl-uniform", "cpl", "uniform"),
                    ("cpl-factors", "cpl", made["files"]["factors.json"])]
    else:
        made = gen.write_chain(out_dir, CHAIN_K, variant)
        measures = [("pl-factors", "pl", made["files"]["factors.json"]),
                    ("cpl-factors", "cpl", made["files"]["factors.json"])]
    files = made["files"]
    base = ["eval", "--kb", files["kb.json"], "--observe", files["obs.json"]]
    commands = [("cl", base + ["--aldp", "cl", "--atom", made["atom"]])]
    commands += [(label, base + ["--aldp", logic, "--measure", measure])
                 for label, logic, measure in measures]
    commands.append(("fl", base + ["--aldp", "fl", "--poss", files["poss.json"]]))
    return commands


def verify_command(workload: str, seed: int) -> tuple[list[str], str]:
    """argv and the expected first output line of a verify workload."""
    if workload == "verify-sampled":
        argv = ["oracle", "verify", "--atoms", "4", "--seed", str(seed),
                "--samples", str(VERIFY_SAMPLES)]
        return argv, (f"oracle verify: atoms=4 seed={seed} samples={VERIFY_SAMPLES}"
                      " mode=sampled")
    argv = ["oracle", "verify", "--atoms", "2", "--higher-order", "--seed", str(seed)]
    return argv, f"oracle verify: atoms=2 seed={seed} samples=10000 mode=exhaustive"


def build_ops(workload: str, seed: int, input_dir: str) -> list[Op]:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    if workload.startswith("verify-"):
        argv, header = verify_command(workload, seed)
        recorded = expected[workload]
        return [Op("verify", argv, lambda code, out, err:
                   checks.check_verify(code, out, err, header, recorded))]

    variant = seed % VARIANTS
    outputs = expected[workload][variant]
    golden = checks.golden_uniform_grades(GOLDEN_PIPELINE)
    ops = []
    for label, argv in eval_commands(workload, variant, input_dir):
        def check(code, out, err, want=outputs[label], label=label):
            problem = checks.check_eval(code, out, err, want)
            if problem is None and workload == "eval-bundled" and label == "cpl-uniform":
                problem = checks.check_golden_grades(out, golden)
            return problem
        ops.append(Op(label, argv, check))
    return ops


def run_op(cli, op: Op):
    """(seconds, problem) of one command; the check is not timed."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash of the harness
        return perf_counter() - start, f"{op.label} raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    problem = op.check(code, out.getvalue(), err.getvalue())
    return seconds, (f"{op.label}: {problem}" if problem else None)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {problem}", file=sys.stderr)


def reference_work() -> int:
    """Fixed pure-Python work, about 5 ms, of the kind the program does:
    tuples, a dict, frozensets and 4096-bit integer masks. It is timed
    before and after every round; a query's time divided by it does not
    follow the speed swings of a shared machine."""
    table: dict = {}
    acc = 0
    mask = (1 << 4096) - 1
    for i in range(4000):
        key = (i & 255, i >> 4)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(frozenset((i & 7, i & 15)))
        mask = (mask ^ (mask >> 1)) | i
    return acc ^ len(table) ^ mask.bit_length()


class Loop:
    """What a run of rounds measured."""

    def __init__(self):
        self.latencies: list[float] = []  # per command
        self.round_seconds: list[float] = []
        self.reference_seconds: list[float] = []  # reference_work around each round

    def relative_queries(self, commands: int) -> list[float]:
        """Per round: one query's mean wall time over the reference's."""
        return [r / commands / ref for r, ref in zip(self.round_seconds, self.reference_seconds)]


def run_rounds(cli, ops: list[Op], tally: Tally, seconds: float = 0.0, rounds: int = 0,
               on_op=None) -> Loop:
    """Run whole rounds until `seconds` have passed, or exactly `rounds`
    rounds, each between two timed reference_work() calls."""
    gc.collect()
    loop = Loop()
    latencies = loop.latencies
    start = perf_counter()
    while True:
        ref_start = perf_counter()
        reference_work()
        round_start = perf_counter()
        for op in ops:
            if on_op is not None:
                on_op(len(latencies))
            elapsed, problem = run_op(cli, op)
            tally.record(problem)
            latencies.append(elapsed)
        round_end = perf_counter()
        reference_work()
        loop.round_seconds.append(round_end - round_start)
        loop.reference_seconds.append((round_start - ref_start + perf_counter() - round_end) / 2)
        done = len(loop.round_seconds)
        if (rounds and done >= rounds) or (not rounds and perf_counter() - start >= seconds):
            return loop


class SetUp:
    """Timed set-ups: a fresh import of the program plus generating the
    inputs and loading the expected outputs, each between two timed
    reference_work() calls."""

    def __init__(self, workload: str, seed: int, input_dir: str):
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        self.relative: list[float] = []  # set-up time over reference time

    def run(self, times: int):
        """Set up `times` times; returns the last set-up's modules and ops.
        The caller must hold no earlier modules, so that only one copy of
        the program is loaded at a time."""
        for _ in range(times):
            modules = ops = None
            for name in [m for m in sys.modules if m == "cea" or m.startswith("cea.")]:
                del sys.modules[name]
            gc.collect()  # frees the previous import
            ref_start = perf_counter()
            reference_work()
            start = perf_counter()
            modules = cea_modules()
            ops = build_ops(self.workload, self.seed, self.input_dir)
            end = perf_counter()
            reference_work()
            reference = (start - ref_start + perf_counter() - end) / 2
            self.relative.append((end - start) / reference)
        return modules, ops

    def seconds(self) -> float:
        """Median set-up time in seconds at the reference speed."""
        return statistics.median(self.relative) * REFERENCE_SECONDS


def emit(correct: bool, tally: Tally, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def measure(args, modules, ops: list[Op]):
    """The untraced loop and, with --trace 1, the traced rounds; returns
    the tally and the metrics to report."""
    tally = Tally()
    if args.workload.startswith("eval-"):
        run_rounds(modules.cli, ops, tally, rounds=1)  # warm-up, checked
    loop = run_rounds(modules.cli, ops, tally, seconds=args.seconds)
    rounds = len(loop.round_seconds)
    query_rel_p50 = statistics.median(loop.relative_queries(len(ops)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)
        try:
            traced = run_rounds(modules.cli, ops, tally, rounds=rounds,
                                on_op=lambda i: setattr(tracer, "query", i))
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(WORK, f"{args.workload}-spans.jsonl"))
        metrics = tracing.layer_metrics(tracer, rounds)
        overhead = statistics.median(traced.relative_queries(len(ops))) / query_rel_p50
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        metrics["check.error_rate"] = (tally.failed / tally.attempted, "ratio")
    else:
        metrics = {
            "query_rel_p50": (query_rel_p50, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        latencies = loop.latencies
        print(f"queries: {len(latencies)} in {rounds} rounds")
        print(f"query_ms_p50: {statistics.median(latencies) * 1000:.6g} ms")
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[-1] * 1000
            print(f"query_ms_p90: {p90:.6g} ms over {len(latencies)} queries")
        print(f"queries_per_s: {len(latencies) / sum(loop.round_seconds):.6g}")
        print(f"reference_ms_p50: {statistics.median(loop.reference_seconds) * 1000:.6g} ms")
        print(f"error_rate: {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted})")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cea end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cea", "cli.py")):
        print(f"error: the program is missing: no {os.path.join(SRC, 'cea')}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    input_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        set_up = SetUp(args.workload, args.seed, input_dir)
        modules, ops = set_up.run(SETUP_REPEATS)
        tally, metrics = measure(args, modules, ops)
        if not args.trace:
            modules = ops = None
            set_up.run(SETUP_REPEATS)
            metrics = {"setup_s": (set_up.seconds(), "s"), **metrics}
    finally:
        shutil.rmtree(input_dir)
    emit(tally.failed == 0, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
