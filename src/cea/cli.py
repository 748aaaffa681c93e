"""Command-line front end.

Subcommands:
  eval              run a knowledge-base evaluation under one logic
  oracle verify     run the coset-oracle and law suites
  algebra selftest  run the event-algebra and implication-calculus suites
  lewis demo        show the gap between implication and conditioning

Exit codes: 0 success, 1 verification failure, 2 malformed input.
Identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

from .algebra import AtomSpace
from .coset import MAX_EXPAND_ATOMS
from .engine import (
    ALDP_TAGS,
    KnowledgeBase,
    Observation,
    build_space,
    evaluate,
    kb_from_json,
    observation_from_json,
)
from .semantics import (
    PossibilityAssignment,
    ProbabilityMeasure,
    lewis_gap,
    measure_from_json,
)
from .verify import algebra_suites, golden_check, oracle_suites


class InputError(Exception):
    """Bad flags or malformed input files; exits with code 2."""


def format_grade(grade) -> str:
    return f"{float(grade):.12g}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later one: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cea",
        description="Conditional event algebra: evaluation, verification, demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a knowledge base under one logic")
    p_eval.add_argument("--kb", required=True, help="knowledge base JSON file")
    p_eval.add_argument("--observe", required=True, help="observation JSON file")
    p_eval.add_argument("--aldp", required=True, choices=ALDP_TAGS,
                        help="logic: classical, fuzzy, probability, conditional probability")
    p_eval.add_argument("--query", help="diagnosis variable (default: first declared)")
    p_eval.add_argument("--measure", help='measure JSON file or "uniform" (pl, cpl)')
    p_eval.add_argument("--poss", help="possibility JSON file (fl)")
    p_eval.add_argument("--atom", help="joint assignment var=value,... (cl)")
    p_eval.add_argument("--format", choices=["text", "json"], default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_oracle = sub.add_parser("oracle", help="oracle suites")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_verify = oracle_sub.add_parser("verify", help="verify the calculus against cosets")
    p_verify.add_argument("--atoms", type=int, default=3)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=10000)
    p_verify.add_argument("--higher-order", action="store_true",
                          help="include the iterated-conditional suites")
    p_verify.add_argument("--golden", help="directory of recorded golden facts to re-check")
    p_verify.add_argument("--record", action="store_true",
                          help="write the golden fact files missing from --golden")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_oracle_verify)

    p_algebra = sub.add_parser("algebra", help="event algebra suites")
    algebra_sub = p_algebra.add_subparsers(dest="algebra_command", required=True)
    p_selftest = algebra_sub.add_parser("selftest", help="ring, lattice and implication laws")
    p_selftest.add_argument("--atoms", type=int, default=3)
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.add_argument("--samples", type=int, default=10000)
    p_selftest.add_argument("--format", choices=["text", "json"], default="text")
    p_selftest.set_defaults(func=cmd_algebra_selftest)

    p_lewis = sub.add_parser("lewis", help="implication vs conditioning")
    lewis_sub = p_lewis.add_subparsers(dest="lewis_command", required=True)
    p_demo = lewis_sub.add_parser("demo", help="construct a large implication/conditioning gap")
    p_demo.add_argument("--atoms", type=int, default=10)
    p_demo.add_argument("--format", choices=["text", "json"], default="text")
    p_demo.set_defaults(func=cmd_lewis_demo)

    return parser


@contextmanager
def _reading(path: str):
    """Turn a failure to read or parse the file at path into an
    InputError that names it."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to read") from None
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None
    except ValueError:  # json's int() past sys.get_int_max_str_digits()
        raise InputError(f"{path} holds a number too long to read") from None


def _load_json_file(path: str):
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_kb(path: str) -> KnowledgeBase:
    return kb_from_json(_load_json_file(path))


def load_observation(kb: KnowledgeBase, path: str) -> Observation:
    return observation_from_json(kb, _load_json_file(path))


# the flag naming what each logic grades at: an atom, a possibility or a measure
LOGIC_INPUT = {"cl": "atom", "fl": "poss", "pl": "measure", "cpl": "measure"}


def _parse_atom_assignment(text: str) -> dict[str, str]:
    assignment = {}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"--atom entries must be var=value, got {part!r}")
        var, value = part.split("=", 1)
        var = var.strip()
        if var in assignment:
            raise InputError(f"--atom names {var} twice")
        assignment[var] = value.strip()
    return assignment


def cmd_eval(args) -> int:
    kb = load_kb(args.kb)
    grounding = build_space(kb)
    obs = load_observation(kb, args.observe)

    query = args.query
    if query is None:
        diagnoses = kb.diagnosis_variables()
        if not diagnoses:
            raise InputError("knowledge base declares no diagnosis variable")
        query = diagnoses[0].name

    flag = LOGIC_INPUT[args.aldp]
    given = getattr(args, flag)
    if not given:
        raise InputError(f"--aldp {args.aldp} needs --{flag}")
    domains = [(v.name, v.domain) for v in kb.variables]
    if flag == "atom":
        sem_input = grounding.atom_of_assignment(_parse_atom_assignment(given))
    elif flag == "poss":
        sem_input = PossibilityAssignment.from_json(_load_json_file(given), domains)
    elif given == "uniform":
        sem_input = ProbabilityMeasure.uniform(grounding.space)
    else:
        sem_input = measure_from_json(grounding.space, _load_json_file(given), domains)

    rows = evaluate(grounding, obs, args.aldp, query, sem_input)

    if args.format == "json":
        results = []
        for row in rows:
            if row.error:
                result = {"value": row.value, "error": row.error}
            else:
                result = {"value": row.value, "grade": float(row.grade)}
            if isinstance(row.grade, Fraction):
                # str(Decimal(k)) is str(k) without the 4,300-digit limit of int to text
                result["exact"] = "/".join(str(Decimal(k)) for k in row.grade.as_integer_ratio())
            results.append(result)
        print(json.dumps({"query": query, "aldp": args.aldp, "results": results}))
    else:
        print(f"query {query} ({args.aldp})")
        for row in rows:
            print(f"  {row.value}: {row.error or format_grade(row.grade)}")
    return 0


# a sampled oracle verify sweeps about samples x 2^atoms events, and a
# sampled selftest or 3-atom higher-order section samples x atoms, each
# costing a few microseconds: this budget caps a run near two minutes
MAX_SWEEP_EVENTS = 1 << 23


def _check_atoms_bound(atoms: int) -> None:
    if atoms < 1:
        raise InputError("--atoms must be at least 1")
    if atoms > MAX_EXPAND_ATOMS:
        raise InputError(f"--atoms {atoms} exceeds the expansion bound of {MAX_EXPAND_ATOMS}")


def _run_suites(args, title: str, max_exhaustive: int, suites, header, sweep) -> int:
    """Check --atoms and --samples, and sweep(exhaustive), the events the
    sampled sections would visit, against MAX_SWEEP_EVENTS; then run
    suites(space, rng) (exhaustive up to max_exhaustive atoms, seeded
    otherwise) and print the sections under a header of the flags named
    in `header` and the mode: "mixed" when an exhaustive run's sweep is
    nonzero, since some section of it samples."""
    _check_atoms_bound(args.atoms)
    if args.samples < 1:
        raise InputError("--samples must be positive")
    exhaustive = args.atoms <= max_exhaustive
    events = sweep(exhaustive)
    if events > MAX_SWEEP_EVENTS:
        raise InputError(f"--atoms {args.atoms} --samples {args.samples} would sweep "
                         f"{events} events, over the budget of {MAX_SWEEP_EVENTS}")
    sections = suites(AtomSpace(args.atoms), None if exhaustive else random.Random(args.seed))
    extra = {k: getattr(args, k) for k in header}
    extra["mode"] = ("mixed" if events else "exhaustive") if exhaustive else "sampled"
    failed = [c for _, checks in sections for c in checks if not c.passed]
    if args.format == "json":
        payload = dict(extra)
        payload["command"] = title
        payload["passed"] = not failed
        payload["sections"] = [{"name": name, "checks": [c._asdict() for c in checks]}
                               for name, checks in sections]
        print(json.dumps(payload))
    else:
        settings = " ".join(f"{k}={v}" for k, v in extra.items())
        print(f"{title}: {settings}")
        for name, checks in sections:
            print(f"[{name}]")
            for c in checks:
                status = "PASS" if c.passed else "FAIL"
                line = f"  {status} {c.name} ({c.cases} cases)"
                if c.detail:
                    line += f" -- {c.detail}"
                print(line)
        total = sum(len(checks) for _, checks in sections)
        if failed:
            print(f"{len(failed)} of {total} checks FAILED")
        else:
            print(f"all {total} checks passed")
    return 1 if failed else 0


def cmd_oracle_verify(args) -> int:
    if args.record and not args.golden:
        raise InputError("--record needs --golden")
    if args.golden and not os.path.isdir(args.golden):
        if os.path.exists(args.golden):
            raise InputError(f"--golden {args.golden} is not a directory")
        if not args.record:
            raise InputError(f"golden directory {args.golden} does not exist"
                             " (--record creates it)")

    def suites(space, rng):
        sections = oracle_suites(space, rng, args.samples,
                                 higher_order=args.higher_order, seed=args.seed)
        if args.golden:
            sections.append(("golden facts", golden_check(args.golden, args.record)))
        return sections

    def sweep(exhaustive):
        if not exhaustive:
            return args.samples << args.atoms
        # exhaustive sections ignore --samples; on 3 atoms the higher-order one samples
        return args.samples * args.atoms if args.higher_order and args.atoms == 3 else 0

    return _run_suites(args, "oracle verify", 3, suites, ("atoms", "seed", "samples"), sweep)


def cmd_algebra_selftest(args) -> int:
    return _run_suites(args, "algebra selftest", 4,
                       lambda space, rng: algebra_suites(space, rng, args.samples),
                       ("atoms", "seed"),
                       lambda exhaustive: 0 if exhaustive else args.samples * args.atoms)


def cmd_lewis_demo(args) -> int:
    if args.atoms < 2:
        raise InputError("--atoms must be at least 2")
    _check_atoms_bound(args.atoms)
    space = AtomSpace(args.atoms)
    p = ProbabilityMeasure.uniform(space)
    b = space.atom(0)
    a = space.zero
    p_imp, p_cond, gap = lewis_gap(p, a, b)
    if args.format == "json":
        print(json.dumps({
            "atoms": args.atoms,
            "p_implies": float(p_imp),
            "p_cond": float(p_cond),
            "gap": float(gap),
        }))
    else:
        print(f"atoms: {args.atoms}")
        print("measure: uniform, antecedent: one atom, consequent: empty")
        print(f"p(b => a): {format_grade(p_imp)}")
        print(f"p(a|b):    {format_grade(p_cond)}")
        print(f"gap:       {format_grade(gap)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:  # KnowledgeBaseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
