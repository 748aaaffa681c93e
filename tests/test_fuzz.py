"""Seeded fuzzing of `cea eval`'s four input files, in-process.

Each case mutates one of the bundled knowledge base, the bundled
observation, a product-measure `factors` file and a `poss` file: a key
dropped, a value swapped for one of the wrong type, NaN, a bool or a
400-digit integer, a value nested deeper, or, at the byte level, a byte
that is not UTF-8 or an integer of 5,000 digits. Whatever the input, the
command exits 0, or 2 with one line on stderr, nothing on stdout and no
file written; a file that cannot be read is named in that line.
"""

import json
import math
import random

import pytest

from cea.cli import main
from cea.data import bundled_kb_path, bundled_observation_path

FILES = ("kb", "observe", "measure", "poss")
WRONG_VALUES = [None, True, False, math.nan, -math.inf, 10 ** 400, -1, 0, 2.5,
                "", "x", "1/0", "106-reddish", [], {}, ["1"], {"var": "a1"}]
LONG_INT = "__long_int__"  # a string replaced, once serialized, by 5,000 digits


def bundled_inputs() -> dict:
    with open(bundled_kb_path(), encoding="utf-8") as fh:
        kb = json.load(fh)
    with open(bundled_observation_path(), encoding="utf-8") as fh:
        observe = json.load(fh)
    domains = {v["name"]: v["domain"] for v in kb["variables"]}
    factors = {var: {val: f"1/{len(dom)}" for val in dom} for var, dom in domains.items()}
    poss = {var: {val: round(0.1 + 0.8 * i / len(dom), 3) for i, val in enumerate(dom)}
            for var, dom in domains.items()}
    return {"kb": kb, "observe": observe, "measure": {"factors": factors},
            "poss": {"poss": poss}}


def _paths(node):
    """Every (container, key) pair in a JSON tree, the root's excepted."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _paths(child)


def mutate(data, rng: random.Random):
    """A copy of data with one seeded mutation (a list entry picked to be
    dropped is swapped instead), or the mutated file's text as bytes when
    the mutation is at the byte level."""
    data = json.loads(json.dumps(data))
    how = rng.choice(["drop", "swap", "swap", "swap", "nest", "utf8", "long"])
    if how == "utf8":
        text = json.dumps(data).encode()
        cut = rng.randrange(len(text) + 1)
        return text[:cut] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + text[cut:]
    container, key = rng.choice(list(_paths(data)))
    if how == "drop" and isinstance(container, dict):
        del container[key]
    elif how == "nest":
        for _ in range(rng.choice([1, 2, 120])):
            container[key] = rng.choice([[container[key]], {"args": container[key]}])
    elif how == "long":
        container[key] = LONG_INT
    else:
        container[key] = rng.choice(WRONG_VALUES)
    return data


def logic_for(name: str, rng: random.Random) -> str:
    if name == "measure":
        return rng.choice(["pl", "cpl"])
    if name == "poss":
        return "fl"
    return rng.choice(["cl", "fl", "pl", "cpl"])


def write(path, content) -> None:
    if not isinstance(content, bytes):
        content = json.dumps(content).replace(f'"{LONG_INT}"', "9" * 5000).encode()
    path.write_bytes(content)


@pytest.mark.parametrize("seed", range(6))
def test_mutated_input_files_exit_zero_or_two(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(f"fuzz-{seed}")
    inputs = bundled_inputs()
    atom = "a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=some"
    for case in range(60):
        name = FILES[case % len(FILES)]
        mutated = mutate(inputs[name], rng)
        unreadable = isinstance(mutated, bytes) or LONG_INT in json.dumps(mutated)
        files = dict(inputs, **{name: mutated})
        for flag, content in files.items():
            write(tmp_path / f"{flag}.json", content)
        aldp = logic_for(name, rng)
        argv = ["eval", "--kb", "kb.json", "--observe", "observe.json", "--aldp", aldp,
                "--atom", atom, "--poss", "poss.json", "--measure", "measure.json",
                "--format", rng.choice(["text", "json"])]
        before = sorted(p.name for p in tmp_path.iterdir())
        code = main(argv)
        out, err = capsys.readouterr()
        case_id = (seed, case, name, aldp)
        assert sorted(p.name for p in tmp_path.iterdir()) == before, case_id
        assert code in (0, 2), case_id
        if code == 0:
            assert out and not err, case_id
            continue
        assert out == "", case_id
        assert err.startswith("error: ") and err.count("\n") == 1, (case_id, err)
        assert "Traceback" not in err and "set_int_max_str_digits" not in err, (case_id, err)
        if unreadable:
            assert f"{name}.json" in err, (case_id, err)
