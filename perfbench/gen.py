"""Seeded, deterministic input generator for the benchmark.

Writes the files one workload hands to `cea eval`: a knowledge base, an
observation, a `factors` measure (exact "p/q" weights or floats), a
`poss` possibility file and a joint assignment for the cl logic. The
same arguments always give byte-identical files.

Two knowledge bases are used:

- the bundled medical KB (486 atoms), copied unchanged;
- the chain KB(k): b1 -> a0 -> ... -> a(k-1) -> th, with b1 over two
  values, each a(i) and th over three, and the observation b1=x. Its
  joint space has 2 * 3^k * 3 atoms and the engine sweeps 3^k
  assignments per query value.

Run standalone to inspect the files:

    python3 perfbench/gen.py chain --k 7 --seed 1 --out some/dir
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUNDLED_KB = os.path.join(SRC, "cea", "data", "medical_kb.json")
BUNDLED_OBSERVATION = os.path.join(SRC, "cea", "data", "observation_fever.json")

# Chain KB(9) (118,098 atoms) is the largest the engine evaluates in
# under a minute per logic; KB(10) already takes several.
CHAIN_ATOM_BUDGET = 120_000


class GenerationError(ValueError):
    """A request the generator refuses before writing anything."""


def chain_atoms(k: int) -> int:
    return 2 * 3**k * 3


def check_chain_size(k: int) -> None:
    """Refuse chain sizes that the engine cannot ground or that would
    run far longer than a benchmark run."""
    from cea.engine import MAX_SPACE_ATOMS

    if k < 1:
        raise GenerationError(f"chain length k must be at least 1, got {k}")
    atoms = chain_atoms(k)
    if atoms > min(MAX_SPACE_ATOMS, CHAIN_ATOM_BUDGET):
        raise GenerationError(
            f"chain KB({k}) has {atoms} atoms, over the smaller of the atom budget"
            f" ({CHAIN_ATOM_BUDGET}) and the engine bound ({MAX_SPACE_ATOMS})")


def chain_kb(k: int) -> dict:
    aux = [f"a{i}" for i in range(k)]
    variables = [{"name": "b1", "kind": "data-attribute", "domain": ["x", "y"]}]
    variables += [{"name": a, "kind": "auxiliary-attribute", "domain": ["1", "2", "3"]}
                  for a in aux]
    variables.append({"name": "th", "kind": "diagnosis", "domain": ["t0", "t1", "t2"]})
    path = ["b1"] + aux + ["th"]
    rules = [{"id": f"r{i}", "if": {"var": src}, "then": {"var": dst}}
             for i, (src, dst) in enumerate(zip(path, path[1:]))]
    return {"variables": variables, "rules": rules}


def exact_factors(variables: list[dict], rng: random.Random) -> dict:
    """A product measure with strictly positive exact "p/q" weights."""
    out = {}
    for v in variables:
        raw = [rng.randint(1, 9) for _ in v["domain"]]
        total = sum(raw)
        out[v["name"]] = {val: str(Fraction(r, total)) for val, r in zip(v["domain"], raw)}
    return {"factors": out}


def float_factors(variables: list[dict], rng: random.Random) -> dict:
    """A product measure with strictly positive float weights."""
    out = {}
    for v in variables:
        raw = [rng.random() + 0.05 for _ in v["domain"]]
        total = sum(raw)
        out[v["name"]] = {val: r / total for val, r in zip(v["domain"], raw)}
    return {"factors": out}


def possibility(variables: list[dict], rng: random.Random) -> dict:
    return {"poss": {v["name"]: {val: rng.randint(0, 1000) / 1000 for val in v["domain"]}
                     for v in variables}}


def cl_atom(variables: list[dict], observed: dict, rng: random.Random) -> str:
    """One joint assignment in the `--atom var=value,...` form, drawn
    inside the observation: an atom outside it grades 0 on every value,
    which would check nothing."""
    return ",".join(f"{v['name']}={rng.choice(observed.get(v['name'], v['domain']))}"
                    for v in variables)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_bundled(out_dir: str, seed: int) -> dict:
    """The bundled KB and observation plus seeded exact factors, poss
    and cl atom. Returns the file paths and the atom string."""
    with open(BUNDLED_KB, "r", encoding="utf-8") as fh:
        kb_text = fh.read()
    with open(BUNDLED_OBSERVATION, "r", encoding="utf-8") as fh:
        obs_text = fh.read()
    variables = json.loads(kb_text)["variables"]
    observed = json.loads(obs_text)["observe"]
    rng = random.Random(f"bundled-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    files = {name: os.path.join(out_dir, name) for name in
             ("kb.json", "obs.json", "factors.json", "poss.json", "atom.txt")}
    for name, text in (("kb.json", kb_text), ("obs.json", obs_text)):
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    _write_json(files["factors.json"], exact_factors(variables, rng))
    _write_json(files["poss.json"], possibility(variables, rng))
    atom = cl_atom(variables, observed, rng)
    _write_text(files["atom.txt"], atom)
    return {"files": files, "atom": atom}


def write_chain(out_dir: str, k: int, seed: int) -> dict:
    """Chain KB(k), its observation, seeded float factors, poss and cl
    atom. Refuses an oversized k before writing anything."""
    check_chain_size(k)
    kb = chain_kb(k)
    observation = {"observe": {"b1": ["x"]}}
    rng = random.Random(f"chain-{k}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    files = {name: os.path.join(out_dir, name) for name in
             ("kb.json", "obs.json", "factors.json", "poss.json", "atom.txt")}
    _write_json(files["kb.json"], kb)
    _write_json(files["obs.json"], observation)
    _write_json(files["factors.json"], float_factors(kb["variables"], rng))
    _write_json(files["poss.json"], possibility(kb["variables"], rng))
    atom = cl_atom(kb["variables"], observation["observe"], rng)
    _write_text(files["atom.txt"], atom)
    return {"files": files, "atom": atom}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kb", choices=["bundled", "chain"])
    parser.add_argument("--k", type=int, default=7, help="chain length (chain only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    try:
        if args.kb == "chain":
            write_chain(args.out, args.k, args.seed)
        else:
            write_bundled(args.out, args.seed)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sys.exit(main())
