"""Seeded fuzzing of `cea eval`'s four input files, in-process.

Each case mutates one of the bundled knowledge base, the bundled
observation, a product-measure `factors` file and a `poss` file: a key
dropped, a value swapped for one of the wrong type, NaN, a bool or a
400-digit integer, a value nested deeper, or, at the byte level, a byte
that is not UTF-8 or an integer of 5,000 digits. Whatever the input, the
command exits 0, or 2 with one line on stderr, nothing on stdout and no
file written; a file that cannot be read is named in that line.

A fixed corpus of inputs that once broke the command checks each one's
recorded exit code and message.
"""

import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from cea.cli import main
from cea.data import bundled_kb_path, bundled_observation_path
from cea.engine import build_space, evaluate, kb_from_json, observation_from_json
from cea.semantics import measure_from_json

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


def _long_exact_factors(inputs):
    """Exact factors whose grades run past 4,300 digits: a variable's
    first value weighs (q-k+1)/q and every other 1/q, q = 10**2500 + 7."""
    q = 10 ** 2500 + 7
    inputs["measure"] = {"factors": {
        v["name"]: {val: f"{q - len(v['domain']) + 1 if i == 0 else 1}/{q}"
                    for i, val in enumerate(v["domain"])}
        for v in inputs["kb"]["variables"]}}


# Fixed cases, from inputs that once made `cea eval` misbehave: (id, edit
# of the bundled inputs, logic, format, exit code, the line on stderr).
CORPUS = [
    ("poss_undeclared_variable", lambda i: i["poss"]["poss"].update(zz={"x": 0.5}),
     "fl", "text", 2, "error: \"poss\" names undeclared variable 'zz'"),
    ("poss_misspelt_value",
     lambda i: i["poss"]["poss"].update(b1={"106-redish": 0.9, "98-normal": 0.1}),
     "fl", "text", 2, "error: \"poss\" entry for b1 names '106-redish', not in its domain"),
    ("factors_undeclared_variable", lambda i: i["measure"]["factors"].update(zz={"x": "1"}),
     "pl", "text", 2, "error: \"factors\" names undeclared variable 'zz'"),
    ("observe_not_json", lambda i: i.update(observe=b"{bad"), "cpl", "text", 2,
     "error: observe.json is not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ("observe_value_not_a_list", lambda i: i["observe"]["observe"].update(b1="98-normal"),
     "pl", "text", 2, "error: observation of b1 must be a list of strings, got '98-normal'"),
    ("domain_not_a_list", lambda i: i["kb"]["variables"][0].update(domain="ab"),
     "pl", "text", 2, "error: domain of a1 must be a list of strings, got 'ab'"),
    ("variables_not_a_list", lambda i: i["kb"].update(variables="xy"),
     "pl", "text", 2, "error: \"variables\" must be a list of objects, got 'xy'"),
    ("variable_not_an_object", lambda i: i["kb"].update(variables=[["x"]]),
     "pl", "text", 2, "error: \"variables\" must be a list of objects, got [['x']]"),
    ("rules_not_a_list", lambda i: i["kb"].update(rules="ab"),
     "pl", "text", 2, "error: \"rules\" must be a list of objects, got 'ab'"),
    ("long_exact_factors_text", _long_exact_factors, "pl", "text", 0, ""),
    ("long_exact_factors_json", _long_exact_factors, "pl", "json", 0, ""),
]


@pytest.mark.parametrize("case", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_input_exits_as_recorded(case, tmp_path, capsys, monkeypatch):
    _, edit, aldp, fmt, code, message = case
    monkeypatch.chdir(tmp_path)
    inputs = bundled_inputs()
    edit(inputs)
    for flag, content in inputs.items():
        write(tmp_path / f"{flag}.json", content)
    got = main(["eval", "--kb", "kb.json", "--observe", "observe.json", "--aldp", aldp,
                "--atom", "a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=some",
                "--poss", "poss.json", "--measure", "measure.json", "--format", fmt])
    out, err = capsys.readouterr()
    assert (got, err) == (code, message and message + "\n")
    assert bool(out) == (code == 0)


def test_json_exact_grades_past_the_int_digit_limit_equal_evaluate(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = bundled_inputs()
    _long_exact_factors(inputs)
    for flag in ("kb", "observe", "measure"):
        write(tmp_path / f"{flag}.json", inputs[flag])
    assert main(["eval", "--kb", "kb.json", "--observe", "observe.json", "--aldp", "pl",
                 "--measure", "measure.json", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    grounding = build_space(kb_from_json(inputs["kb"]))
    domains = [(v.name, v.domain) for v in grounding.kb.variables]
    rows = evaluate(grounding, observation_from_json(grounding.kb, inputs["observe"]), "pl", "th1",
                    measure_from_json(grounding.space, inputs["measure"], domains))
    assert [r["value"] for r in results] == [row.value for row in rows]
    assert max(len(r["exact"]) for r in results) > 4300
    for r, row in zip(results, rows):
        # Fraction(text) meets the same limit: read the digits as Decimals
        num, den = (int(Decimal(k)) for k in r["exact"].split("/"))
        assert Fraction(num, den) == row.grade
