"""Output checks for the benchmark's commands.

Every command's result is checked; a command counts as failed on a
nonzero exit, any stderr output, or output that differs from what is
expected:

- `eval` stdout must equal, byte for byte, the output recorded in
  `expected.json`;
- the bundled cpl-uniform grades are also recomputed independently from
  `src/cea/data/golden/pipeline_form.json`: under the uniform measure a
  grade is |consequent mask| / |antecedent mask|;
- `oracle verify` must print every check as PASS, with the recorded
  check names and per-check case counts, and the closing summary line.
  A run that samples fewer cases fails the check; it is not a speedup.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_CHECK_LINE = re.compile(r"^  (PASS|FAIL) (\S+) \((\d+) cases\)(?: -- .*)?$")


def command_problem(code: int, stderr: str):
    if code != 0:
        return f"exit code {code}"
    if stderr:
        return f"stderr output {stderr[:200]!r}"
    return None


def check_eval(code: int, stdout: str, stderr: str, expected: str):
    """None when the eval command succeeded with the expected stdout,
    else a one-line description of the first problem."""
    problem = command_problem(code, stderr)
    if problem:
        return problem
    if stdout != expected:
        for got, want in zip(stdout.splitlines(), expected.splitlines()):
            if got != want:
                return f"stdout line {got!r}, expected {want!r}"
        return f"stdout has {len(stdout.splitlines())} lines, expected {len(expected.splitlines())}"
    return None


def golden_uniform_grades(golden_path: str) -> dict[str, str]:
    """Text-mode grades of the bundled cpl-uniform evaluation, computed
    from the recorded integrated-out masks rather than from the engine."""
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    grades = {}
    for value, masks in golden["values"].items():
        cons = int(masks["consequent_mask"], 16)
        ant = int(masks["antecedent_mask"], 16)
        grades[value] = f"{float(Fraction((cons & ant).bit_count(), ant.bit_count())):.12g}"
    return grades


def check_golden_grades(stdout: str, grades: dict[str, str]):
    """None when every `  value: grade` row matches the golden grades."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        value, _, grade = line.strip().partition(": ")
        rows[value] = grade
    if rows != grades:
        return f"cpl uniform grades {rows} differ from the golden masks' {grades}"
    return None


def parse_verify(stdout: str):
    """The (section, check, status, cases) rows and the summary line of
    `oracle verify` text output."""
    rows = []
    section = None
    lines = stdout.splitlines()
    for line in lines[1:-1]:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        match = _CHECK_LINE.match(line)
        if match is None:
            raise ValueError(f"unexpected verify line {line!r}")
        status, name, cases = match.groups()
        rows.append((section, name, status, int(cases)))
    return rows, (lines[-1] if lines else "")


def check_verify(code: int, stdout: str, stderr: str, header: str, expected_checks):
    """None when `oracle verify` passed every recorded check with the
    recorded case counts. expected_checks is a list of
    [section, check name, cases]."""
    problem = command_problem(code, stderr)
    if problem:
        return problem
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r}, expected {header!r}"
    try:
        rows, summary = parse_verify(stdout)
    except ValueError as exc:
        return str(exc)
    failed = [name for _, name, status, _ in rows if status != "PASS"]
    if failed:
        return f"checks failed: {', '.join(failed)}"
    got = [[section, name, cases] for section, name, _, cases in rows]
    if got != [list(c) for c in expected_checks]:
        for g, want in zip(got, expected_checks):
            if g != list(want):
                return f"check {g}, expected {list(want)}"
        return f"{len(got)} checks, expected {len(expected_checks)}"
    if summary != f"all {len(expected_checks)} checks passed":
        return f"summary {summary!r}"
    return None

