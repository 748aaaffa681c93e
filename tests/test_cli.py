import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cea import cli, coset, verify
from cea.algebra import Event, _event
from cea.cli import build_parser, load_kb, load_observation, main
from cea.conditional import ConditionalObject, _make, cond
from cea.data import bundled_golden_dir, bundled_kb_path, bundled_observation_path
from cea.engine import build_space, evaluate
from cea.formulas import MAX_DEPTH
from cea.semantics import ProbabilityMeasure


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cea", *args],
        capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def kb_path():
    return bundled_kb_path()


@pytest.fixture(scope="module")
def obs_path():
    return bundled_observation_path()


def test_eval_cpl_uniform_text(kb_path, obs_path):
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", "cpl", "--measure", "uniform")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "query th1 (cpl)"
    assert len(lines) == 4
    for line in lines[1:]:
        value = float(line.split(":")[1])
        assert 0.0 <= value <= 1.0


def test_eval_json_schema(kb_path, obs_path):
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", "cpl", "--measure", "uniform", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["query"] == "th1"
    assert payload["aldp"] == "cpl"
    assert [r["value"] for r in payload["results"]] == ["none", "some", "prog"]
    for r in payload["results"]:
        assert "grade" in r or r.get("error") == "undefined"


@pytest.mark.parametrize("aldp", ["cpl", "pl"])
def test_eval_json_exact_grade(kb_path, obs_path, aldp):
    grounding = build_space(load_kb(kb_path))
    obs = load_observation(grounding.kb, obs_path)
    rows = evaluate(grounding, obs, aldp, "th1", ProbabilityMeasure.uniform(grounding.space))
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", aldp, "--measure", "uniform", "--format", "json")
    assert proc.returncode == 0
    results = json.loads(proc.stdout)["results"]
    assert [r["value"] for r in results] == [row.value for row in rows]
    for r, row in zip(results, rows):
        assert isinstance(row.grade, Fraction)
        assert Fraction(r["exact"]) == row.grade
        assert r["grade"] == float(row.grade)


def test_eval_classical_atom(kb_path, obs_path):
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", "cl",
                   "--atom", "a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=some",
                   "--format", "json")
    assert proc.returncode == 0
    grades = {r["value"]: r["grade"] for r in json.loads(proc.stdout)["results"]}
    assert grades == {"none": 0.0, "some": 1.0, "prog": 0.0}


FL_POSS = {"poss": {
    "a1": {"1": 0.5, "2": 0.5, "3": 0.5},
    "a2": {"1": 0.5, "2": 0.5, "3": 0.5},
    "a3": {"1": 0.5, "2": 0.5, "3": 0.5},
    "b1": {"106-reddish": 0.9, "98-normal": 0.2},
    "b2": {"1": 0.5, "2": 0.5, "3": 0.5},
    "th1": {"none": 0.1, "some": 0.6, "prog": 0.3},
}}


def test_eval_fuzzy(kb_path, obs_path, tmp_path):
    path = tmp_path / "poss.json"
    path.write_text(json.dumps(FL_POSS))
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", "fl", "--poss", str(path), "--format", "json")
    assert proc.returncode == 0
    for r in json.loads(proc.stdout)["results"]:
        assert 0.0 <= r["grade"] <= 1.0
        assert "exact" not in r


UNIFORM_FACTORS = {
    "a1": {"1": "1/3", "2": "1/3", "3": "1/3"},
    "a2": {"1": "1/3", "2": "1/3", "3": "1/3"},
    "a3": {"1": "1/3", "2": "1/3", "3": "1/3"},
    "b1": {"106-reddish": "1/2", "98-normal": "1/2"},
    "b2": {"1": "1/3", "2": "1/3", "3": "1/3"},
    "th1": {"none": "1/3", "some": "1/3", "prog": "1/3"},
}
ATOM = "a1=1,a2=1,a3=1,b1=106-reddish,b2=1,th1=none"
NAN = float("nan")


def test_eval_factor_measure(kb_path, obs_path, tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"factors": UNIFORM_FACTORS}))
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", "pl", "--measure", str(path), "--format", "json")
    assert proc.returncode == 0
    for r in json.loads(proc.stdout)["results"]:
        assert r["grade"] == pytest.approx(1 / 6)


def test_eval_atom_naming_a_variable_twice_exits_two(kb_path, obs_path):
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path, "--aldp", "cl",
                   "--atom", "a1=1,a1=2,a2=1,a3=1,b1=106-reddish,b2=1,th1=none")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --atom names a1 twice\n"


@pytest.mark.parametrize("atom,message", [
    ("a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=some,zz=1",
     "assignment names undeclared variable 'zz'"),
    ("a1=1,a2=1,a3=2,b1=106-reddish,b2=1", "assignment gives no value for th1"),
    ("a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=bogus",
     "assignment binds th1 to 'bogus', not in its domain"),
])
def test_eval_atom_fault_is_named(kb_path, obs_path, capsys, atom, message):
    assert main(["eval", "--kb", kb_path, "--observe", obs_path, "--aldp", "cl",
                 "--atom", atom]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("aldp", ["pl", "cpl"])
def test_eval_colliding_atom_labels_exit_two(tmp_path, aldp):
    """x=a with y="b,y=c" and x="a,y=b" with y=c share one label."""
    kb = tiny_kb(["a", "a,y=b"])
    kb["variables"][1] = {"name": "y", "kind": "diagnosis", "domain": ["b,y=c", "c"]}
    kb["rules"][0]["then"] = {"var": "y"}
    kb_file, obs_file = tmp_path / "kb.json", tmp_path / "obs.json"
    kb_file.write_text(json.dumps(kb))
    obs_file.write_text(json.dumps({"observe": {"x": ["a"]}}))
    proc = run_cli("eval", "--kb", str(kb_file), "--observe", str(obs_file),
                   "--aldp", aldp, "--measure", "uniform")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: atom labels must be unique\n"


def test_one_parser_serves_every_command_in_a_process(kb_path, obs_path, tmp_path,
                                                      monkeypatch, capsys):
    """main builds its argparse tree once; every later call, after a
    usage error too, answers as a fresh process does."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    poss = tmp_path / "poss.json"
    poss.write_text(json.dumps(FL_POSS))
    inputs = ["eval", "--kb", kb_path, "--observe", obs_path]
    bad = ["eval", "--aldp", "nonsense"]
    commands = [
        bad,
        inputs + ["--aldp", "cl", "--atom", ATOM],
        inputs + ["--aldp", "pl", "--measure", "uniform"],
        inputs + ["--aldp", "cpl", "--measure", "uniform", "--format", "json"],
        inputs + ["--aldp", "fl", "--poss", str(poss)],
        ["oracle", "verify", "--atoms", "2"],
        bad,
    ]
    parser = build_parser()
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        proc = run_cli(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is parser
    assert code == 2 and err.startswith("usage: cea eval")


def test_eval_missing_measure_names_flag(kb_path, obs_path):
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path, "--aldp", "pl")
    assert proc.returncode == 2
    assert "--measure" in proc.stderr


@pytest.mark.parametrize("aldp,flag", [
    ("cl", "atom"), ("fl", "poss"), ("pl", "measure"), ("cpl", "measure")])
def test_eval_without_its_logic_input_names_the_flag(kb_path, obs_path, capsys, aldp, flag):
    assert main(["eval", "--kb", kb_path, "--observe", obs_path, "--aldp", aldp]) == 2
    assert capsys.readouterr() == ("", f"error: --aldp {aldp} needs --{flag}\n")


def refusal_reading(flag, content, kb_path, obs_path, tmp_path, capsys):
    """The stderr of a `cea eval` that exits 2, with flag naming a file
    of these bytes and every other input valid."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    files = {"--kb": kb_path, "--observe": obs_path, "--measure": "uniform", flag: str(path)}
    logic = ["--aldp", "fl", "--poss", str(path)] if flag == "--poss" else [
        "--aldp", "cpl", "--measure", files["--measure"]]
    assert main(["eval", "--kb", files["--kb"], "--observe", files["--observe"], *logic]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return path, err


@pytest.mark.parametrize("flag", ["--kb", "--observe", "--measure", "--poss"])
def test_eval_file_not_utf8_is_named(kb_path, obs_path, tmp_path, capsys, flag):
    path, err = refusal_reading(flag, b'{"observe": {"b1": ["\xff"]}}',
                                kb_path, obs_path, tmp_path, capsys)
    assert err == f"error: {path} is not UTF-8 text\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on the digits int() reads")
@pytest.mark.parametrize("flag", ["--kb", "--observe", "--measure", "--poss"])
def test_eval_file_with_an_over_long_number_is_named(kb_path, obs_path, tmp_path, capsys,
                                                     flag):
    path, err = refusal_reading(flag, b"[" + b"9" * 5000 + b"]",
                                kb_path, obs_path, tmp_path, capsys)
    assert err == f"error: {path} holds a number too long to read\n"


def test_eval_malformed_kb(tmp_path, obs_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("eval", "--kb", str(bad), "--observe", obs_path,
                   "--aldp", "pl", "--measure", "uniform")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    missing = tmp_path / "nope.json"
    proc = run_cli("eval", "--kb", str(missing), "--observe", obs_path,
                   "--aldp", "pl", "--measure", "uniform")
    assert proc.returncode == 2


@pytest.mark.parametrize("aldp,flag,content", [
    ("fl", "--poss", {"poss": {"a1": [1]}}),
    ("fl", "--poss", {"poss": [1]}),
    ("fl", "--poss", {"poss": {"a1": {"1": [1]}}}),
    ("pl", "--measure", {"factors": {"a1": [1]}}),
    ("pl", "--measure", {"factors": {"a1": {"1": "1/0"}}}),
    ("pl", "--measure", {"atoms": [ATOM]}),
    ("cpl", "--measure", {"factors": {**UNIFORM_FACTORS,
                                      "a1": {"1": NAN, "2": "1/2", "3": "1/2"}}}),
    ("cpl", "--measure", {"atoms": {ATOM: NAN, ATOM.replace("none", "some"): 1}}),
    *(("fl", "--poss", {"poss": {**FL_POSS["poss"], "b1": {"106-reddish": g, "98-normal": 0.2}}})
      for g in (True, "0.5", "abc", 10 ** 400)),
])
def test_eval_malformed_value_map_exits_two(kb_path, obs_path, tmp_path, aldp, flag, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", aldp, flag, str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def tiny_kb(domain):
    return {
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": domain},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]},
        ],
        "rules": [{"id": "r", "if": {"var": "x"}, "then": {"var": "d"}}],
    }


@pytest.mark.parametrize("kb,observation", [
    (tiny_kb("01"), {"observe": {"x": ["0"]}}),
    (tiny_kb(["0", "1"]), {"observe": {"x": "0"}}),
    (tiny_kb(["0", "1"]), {"observe": {"x": "01"}}),
])
def test_eval_rejects_string_for_list(tmp_path, kb, observation):
    kb_file, obs_file = tmp_path / "kb.json", tmp_path / "obs.json"
    kb_file.write_text(json.dumps(kb))
    obs_file.write_text(json.dumps(observation))
    proc = run_cli("eval", "--kb", str(kb_file), "--observe", str(obs_file),
                   "--aldp", "pl", "--measure", "uniform")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "must be a list of strings" in proc.stderr


@pytest.mark.parametrize("kb,field", [
    ({"variables": "xy"}, "variables"),
    ({"variables": [["x"]]}, "variables"),
    ({**tiny_kb(["0", "1"]), "rules": "ab"}, "rules"),
    ({"variables": [{"name": ["x"], "kind": "data-attribute", "domain": ["0"]}]}, "name"),
    ({**tiny_kb(["0", "1"]),
      "rules": [{"id": 7, "if": {"var": "x"}, "then": {"var": "d"}}]}, "id"),
])
def test_eval_rejects_malformed_kb_sections(tmp_path, kb, field):
    kb_file, obs_file = tmp_path / "kb.json", tmp_path / "obs.json"
    kb_file.write_text(json.dumps(kb))
    obs_file.write_text(json.dumps({"observe": {}}))
    proc = run_cli("eval", "--kb", str(kb_file), "--observe", str(obs_file),
                   "--aldp", "pl", "--measure", "uniform")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    expected = {"name": "variable name must be a string",
                "id": "rule id must be a string"}
    assert expected.get(field, f'"{field}" must be a list of objects') in proc.stderr


def _kb_with(**changes):
    """tiny_kb(["0", "1"]) with some of its top-level fields replaced."""
    return {**tiny_kb(["0", "1"]), **changes}


TINY = ["eval", "--kb", "kb.json", "--observe", "obs.json"]
FEVER = ["eval", "--kb", "fever_kb.json", "--observe", "fever_obs.json"]
X = {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]}
D = {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]}


# (id, files written besides the defaults, argv, the stderr message)
EXIT_TWO_MESSAGES = [
    ("duplicate-variables", {"kb.json": _kb_with(variables=[X, D, X])},
     TINY + ["--aldp", "pl", "--measure", "uniform"], "duplicate variable names"),
    ("duplicate-rule-ids", {"kb.json": _kb_with(rules=tiny_kb(["0"])["rules"] * 2)},
     TINY + ["--aldp", "pl", "--measure", "uniform"], "duplicate rule ids"),
    ("duplicate-domain-values", {"kb.json": tiny_kb(["0", "0"])},
     TINY + ["--aldp", "pl", "--measure", "uniform"],
     "variable x has duplicate domain values"),
    ("unknown-kind", {"kb.json": _kb_with(variables=[{**X, "kind": "weird"}, D])},
     TINY + ["--aldp", "pl", "--measure", "uniform"], "unknown variable kind 'weird' for x"),
    ("kb-not-an-object", {"kb.json": []},
     TINY + ["--aldp", "pl", "--measure", "uniform"],
     "knowledge base file must be a JSON object"),
    ("no-variables", {"kb.json": {"variables": [], "rules": []}},
     TINY + ["--aldp", "pl", "--measure", "uniform"], "knowledge base declares no variables"),
    ("no-diagnosis", {"kb.json": _kb_with(variables=[X], rules=[])},
     TINY + ["--aldp", "pl", "--measure", "uniform"],
     "knowledge base declares no diagnosis variable"),
    ("empty-observation", {"obs.json": {"observe": {}}},
     TINY + ["--aldp", "pl", "--measure", "uniform"], "observation is empty"),
    ("empty-observed-values", {"obs.json": {"observe": {"x": []}}},
     TINY + ["--aldp", "pl", "--measure", "uniform"], "observation of x is empty"),
    ("atom-entry", {}, TINY + ["--aldp", "cl", "--atom", "x"],
     "--atom entries must be var=value, got 'x'"),
    ("golden-file", {"afile": ""}, ["oracle", "verify", "--atoms", "2", "--golden", "afile"],
     "--golden afile is not a directory"),
    ("verify-atoms", {}, ["oracle", "verify", "--atoms", "0"], "--atoms must be at least 1"),
    ("selftest-atoms", {}, ["algebra", "selftest", "--atoms", "0"],
     "--atoms must be at least 1"),
    ("lewis-atoms", {}, ["lewis", "demo", "--atoms", "1"], "--atoms must be at least 2"),
    ("verify-samples", {}, ["oracle", "verify", "--samples", "0"],
     "--samples must be positive"),
    ("selftest-samples", {}, ["algebra", "selftest", "--samples", "0"],
     "--samples must be positive"),
    ("poss-shape", {"poss.json": {}}, TINY + ["--aldp", "fl", "--poss", "poss.json"],
     'possibility file must look like {"poss": {...}}'),
    ("poss-grade-range",
     {"poss.json": {"poss": {**FL_POSS["poss"],
                             "b1": {"106-reddish": 0.9, "98-normal": 1.5}}}},
     FEVER + ["--aldp", "fl", "--poss", "poss.json"],
     "grade for ('b1', '98-normal') outside [0, 1]: 1.5"),
    ("measure-not-an-object", {"measure.json": []},
     TINY + ["--aldp", "pl", "--measure", "measure.json"],
     "measure file must be a JSON object"),
    ("unknown-atom-labels", {"measure.json": {"atoms": {"x=2,d=p": 1, "x=0,d=r": 0}}},
     TINY + ["--aldp", "cpl", "--measure", "measure.json"],
     "unknown atom labels: ['x=0,d=r', 'x=2,d=p']"),
    ("unreadable-file", {}, ["eval", "--kb", "nope.json", "--observe", "obs.json",
                             "--aldp", "pl", "--measure", "uniform"],
     "cannot read nope.json: [Errno 2] No such file or directory: 'nope.json'"),
    ("space-bound",
     {"kb.json": _kb_with(variables=[{**X, "domain": [str(i) for i in range(1025)]},
                                     {**D, "domain": [str(i) for i in range(1024)]}])},
     TINY + ["--aldp", "pl", "--measure", "uniform"],
     "joint domain product exceeds the space bound"),
    # within the space bound, but 65,539 masks of 131,074 bits each
    ("primitive-bound",
     {"kb.json": _kb_with(variables=[{**X, "domain": [str(i) for i in range(65537)]}, D])},
     TINY + ["--aldp", "pl", "--measure", "uniform"],
     "primitive table of 131074 atoms x 65539 values exceeds the bound of 4294967296 bits"),
]


@pytest.mark.parametrize("files, argv, message",
                         [case[1:] for case in EXIT_TWO_MESSAGES],
                         ids=[case[0] for case in EXIT_TWO_MESSAGES])
def test_exit_two_message_is_pinned(files, argv, message, kb_path, obs_path, tmp_path,
                                    monkeypatch, capsys):
    """Each refusal exits 2 with nothing on stdout and exactly this one
    line on stderr. The inputs are files in the working directory, so the
    messages that name a file name it as given."""
    monkeypatch.chdir(tmp_path)
    with open(kb_path, encoding="utf-8") as kb, open(obs_path, encoding="utf-8") as obs:
        defaults = {"kb.json": tiny_kb(["0", "1"]), "obs.json": {"observe": {"x": ["0"]}},
                    "fever_kb.json": json.load(kb), "fever_obs.json": json.load(obs)}
    for name, content in {**defaults, **files}.items():
        (tmp_path / name).write_text(content if isinstance(content, str)
                                     else json.dumps(content))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("aldp,leaf,message", [
    pytest.param("pl", {"var": ["b1"]}, "leaf var must be a string: {'var': ['b1']}",
                 id="var-not-a-string"),
    pytest.param("cpl", {"var": "b1", "vals": []},
                 "leaf vals must be a nonempty list of strings: {'var': 'b1', 'vals': []}",
                 id="empty-vals"),
    # each logic used to fail its own way, or not at all
    *[pytest.param(aldp, {"var": "b1", "vals": ["nope"]},
                   "rule symptom-suggests-a1 binds b1 to 'nope', not in its domain",
                   id=f"value-outside-domain-{aldp}") for aldp in ("cl", "fl", "pl", "cpl")],
])
def test_eval_rejects_malformed_leaf(tmp_path, kb_path, obs_path, aldp, leaf, message):
    with open(kb_path, encoding="utf-8") as fh:
        kb = json.load(fh)
    kb["rules"][0]["if"] = leaf
    kb_file = tmp_path / "kb.json"
    kb_file.write_text(json.dumps(kb))
    (tmp_path / "poss.json").write_text(json.dumps({"poss": {"b1": {"nope": 1}}}))
    semantics = {"cl": ["--atom", "a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=some"],
                 "fl": ["--poss", str(tmp_path / "poss.json")],
                 "pl": ["--measure", "uniform"], "cpl": ["--measure", "uniform"]}[aldp]
    proc = run_cli("eval", "--kb", str(kb_file), "--observe", obs_path,
                   "--aldp", aldp, *semantics)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]


def nested_kb(kb_path, tmp_path, levels):
    """The bundled KB with its first rule's "if" (a lone leaf) wrapped in
    `levels` one-argument ands, which leave its meaning unchanged."""
    with open(kb_path, encoding="utf-8") as fh:
        kb = json.load(fh)
    leaf = json.dumps(kb["rules"][0]["if"])
    kb["rules"][0]["if"] = "IF"  # spliced in as text: json.dumps would overflow too
    nested = '{"op": "and", "args": [' * levels + leaf + "]}" * levels
    path = tmp_path / f"kb{levels}.json"
    path.write_text(json.dumps(kb).replace('"IF"', nested))
    return str(path)


def test_eval_formula_at_the_depth_bound_evaluates(kb_path, obs_path, tmp_path):
    (tmp_path / "poss.json").write_text(json.dumps(FL_POSS))
    deep = nested_kb(kb_path, tmp_path, MAX_DEPTH - 1)
    for semantics in (["--aldp", "fl", "--poss", str(tmp_path / "poss.json")],
                      ["--aldp", "cpl", "--measure", "uniform"]):
        flat = run_cli("eval", "--kb", kb_path, "--observe", obs_path, *semantics)
        proc = run_cli("eval", "--kb", deep, "--observe", obs_path, *semantics)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == flat.stdout


@pytest.mark.parametrize("levels", [MAX_DEPTH, 600])
def test_eval_refuses_deep_formula(kb_path, obs_path, tmp_path, levels):
    deep = nested_kb(kb_path, tmp_path, levels)
    proc = run_cli("eval", "--kb", deep, "--observe", obs_path,
                   "--aldp", "pl", "--measure", "uniform")
    assert proc.returncode == 2
    assert proc.stdout == ""
    refused = f"error: formula nests deeper than {MAX_DEPTH} levels"
    if levels == MAX_DEPTH:
        assert proc.stderr.splitlines() == [refused]
    else:  # whether json or the bound gives up first depends on the Python version
        assert proc.stderr.splitlines() in (
            [refused], [f"error: {deep} nests too deeply to read"])


@pytest.mark.parametrize("flag", ["--observe", "--measure", "--poss"])
def test_eval_deeply_nested_input_file_exits_two(kb_path, obs_path, tmp_path, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    files = {"--observe": obs_path, "--measure": "uniform", "--poss": None}
    files[flag] = str(deep)
    aldp = ["--aldp", "fl", "--poss", files["--poss"]] if flag == "--poss" else [
        "--aldp", "pl", "--measure", files["--measure"]]
    proc = run_cli("eval", "--kb", kb_path, "--observe", files["--observe"], *aldp)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {deep} nests too deeply to read"]


@pytest.mark.parametrize("flag", ["--kb", "--observe"])
def test_eval_malformed_kb_or_observation_names_the_file(kb_path, obs_path, tmp_path, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    files = {"--kb": kb_path, "--observe": obs_path, flag: str(bad)}
    proc = run_cli("eval", "--kb", files["--kb"], "--observe", files["--observe"],
                   "--aldp", "pl", "--measure", "uniform")
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {bad} is not valid JSON: Expecting property name")


@pytest.mark.parametrize("aldp,flag,section", [
    pytest.param("fl", "--poss", {"poss": FL_POSS["poss"]}, id="poss"),
    pytest.param("pl", "--measure", {"factors": UNIFORM_FACTORS}, id="factors"),
])
# each case is a valid grade and a valid factor, silently ignored if not checked
@pytest.mark.parametrize("var,vals,message", [
    pytest.param("zz", {"1": 1}, "names undeclared variable 'zz'", id="undeclared-variable"),
    pytest.param("b1", {"106-reddish": 0.5, "98-normal": 0.5, "106-redish": 0},
                 "entry for b1 names '106-redish', not in its domain", id="value-outside-domain"),
])
def test_eval_value_maps_checked_against_kb(kb_path, obs_path, tmp_path, aldp, flag, section,
                                            var, vals, message):
    [(name, maps)] = section.items()
    (tmp_path / "input.json").write_text(json.dumps({name: {**maps, var: vals}}))
    proc = run_cli("eval", "--kb", kb_path, "--observe", obs_path,
                   "--aldp", aldp, flag, str(tmp_path / "input.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f'error: "{name}" {message}']


@pytest.mark.parametrize("missing,named", [
    pytest.param([("a3", "2")], "a3[2]", id="one"),
    pytest.param([("a1", "2"), ("a2", "1")], "a2[1]", id="two"),
    pytest.param([("th1", "some"), ("th1", "prog")], "th1[some]", id="two-query-values"),
])
def test_eval_fl_missing_grade_names_the_first_one_read(kb_path, obs_path, tmp_path, capsys,
                                                        missing, named):
    """A poss file that lacks needed grades exits 2 naming the first one
    the grading reads: the forms share sub-trees, so which one that is
    depends on the order in which their nodes are visited."""
    with open(os.path.join(SNAPSHOT_DIR, "eval_fever_poss.json")) as fh:
        poss = json.load(fh)
    for var, val in missing:
        del poss["poss"][var][val]
    (tmp_path / "poss.json").write_text(json.dumps(poss))
    assert main(["eval", "--kb", kb_path, "--observe", obs_path, "--aldp", "fl",
                 "--poss", str(tmp_path / "poss.json")]) == 2
    assert capsys.readouterr() == ("", f"error: no possibility grade for {named}\n")


def test_eval_refuses_elimination_over_budget(kb_path, obs_path):
    # A KB over the real bound has more than 65,536 atoms to ground, so
    # the bound is lowered to just under the bundled KB's largest table.
    code = ("import sys, cea.cli, cea.engine; cea.engine.MAX_ELIMINATION_TABLE = 26; "
            "sys.exit(cea.cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "eval", "--kb", kb_path, "--observe", obs_path,
         "--aldp", "cpl", "--measure", "uniform"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: eliminating the swept variables needs a table of 27 entries,"
        " over the bound of 26"]


def test_elimination_bound_counts_the_query_dimension(tmp_path):
    # Eliminating a with d pinned builds a 3-entry table; with d kept in
    # the scopes the one table built is over (a, d), 9 entries.
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "a", "kind": "auxiliary-attribute", "domain": ["1", "2", "3"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q", "r"]},
        ],
        "rules": [{"id": "r", "if": {"var": "x"}, "then": {"var": "a"}},
                  {"id": "s", "if": {"var": "a"}, "then": {"var": "d"}}],
    }))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"observe": {"x": ["0"]}}))
    for bound, code, stderr in (
            (8, 2, ["error: eliminating the swept variables needs a table of 9 entries,"
                    " over the bound of 8"]),
            (9, 0, [])):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, cea.cli, cea.engine; cea.engine.MAX_ELIMINATION_TABLE = {bound}; "
             "sys.exit(cea.cli.main(sys.argv[1:]))",
             "eval", "--kb", str(kb), "--observe", str(obs), "--aldp", "pl",
             "--measure", "uniform"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr.splitlines()) == (code, stderr)
        assert (proc.stdout == "") == (code == 2)


def test_oracle_verify_small():
    proc = run_cli("oracle", "verify", "--atoms", "2", "--higher-order")
    assert proc.returncode == 0
    assert "all " in proc.stdout and " checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_oracle_verify_json():
    proc = run_cli("oracle", "verify", "--atoms", "2", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["mode"] == "exhaustive"
    names = [c["name"] for s in payload["sections"] for c in s["checks"]]
    assert "coset_extension_meet" in names


def test_oracle_verify_atoms_bound():
    proc = run_cli("oracle", "verify", "--atoms", "13")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --atoms 13 exceeds the expansion bound of 12\n"


@pytest.mark.parametrize("command", [["oracle", "verify"], ["algebra", "selftest"],
                                     ["lewis", "demo"]], ids=" ".join)
def test_atoms_past_expansion_bound_exits_two(command, capsys):
    assert main([*command, "--atoms", "13"]) == 2
    assert capsys.readouterr() == ("", "error: --atoms 13 exceeds the expansion bound of 12\n")


def test_oracle_verify_sweep_budget_refuses_up_front(capsys):
    """samples x 2^atoms past MAX_SWEEP_EVENTS exits 2 before any section runs."""
    assert main(["oracle", "verify", "--atoms", "12"]) == 2
    assert capsys.readouterr() == ("", "error: --atoms 12 --samples 10000 would sweep "
                                       "40960000 events, over the budget of 8388608\n")


@pytest.mark.parametrize("argv, code, err", [
    (["--atoms", "4", "--samples", "8"], 0, ""),
    (["--atoms", "4", "--samples", "9"], 2,
     "error: --atoms 4 --samples 9 would sweep 144 events, over the budget of 128\n"),
    # exhaustive runs ignore --samples, and the flag checks come first
    (["--atoms", "3", "--samples", "1000"], 0, ""),
    (["--atoms", "4", "--samples", "9", "--record"], 2, "error: --record needs --golden\n"),
], ids=["at-budget", "over-budget", "exhaustive", "flags-first"])
def test_oracle_verify_sweep_budget_edges(argv, code, err, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SWEEP_EVENTS", 4 << 5)
    assert main(["oracle", "verify", *argv]) == code
    out, got = capsys.readouterr()
    assert (bool(out), got) == (code == 0, err)


@pytest.mark.parametrize("argv, code, err", [
    # a sampled selftest (over 4 atoms) sweeps samples x atoms
    (["algebra", "selftest", "--atoms", "5", "--samples", "24"], 0, ""),
    (["algebra", "selftest", "--atoms", "5", "--samples", "25"], 2,
     "error: --atoms 5 --samples 25 would sweep 125 events, over the budget of 120\n"),
    (["algebra", "selftest", "--atoms", "4", "--samples", "1000"], 0, ""),
    # a 3-atom higher-order section samples, under a mixed header
    (["oracle", "verify", "--atoms", "3", "--higher-order", "--samples", "40"], 0, ""),
    (["oracle", "verify", "--atoms", "3", "--higher-order", "--samples", "41"], 2,
     "error: --atoms 3 --samples 41 would sweep 123 events, over the budget of 120\n"),
    (["oracle", "verify", "--atoms", "2", "--higher-order", "--samples", "1000"], 0, ""),
], ids=["selftest-at-budget", "selftest-over-budget", "selftest-exhaustive",
        "higher-order-at-budget", "higher-order-over-budget", "higher-order-exhaustive"])
def test_sampled_verifier_budget_edges(argv, code, err, monkeypatch, capsys):
    """Every sampled verifier path checks its sweep against the budget
    before any section runs, not only oracle verify past 3 atoms."""
    monkeypatch.setattr(cli, "MAX_SWEEP_EVENTS", 120)
    assert main(argv) == code
    out, got = capsys.readouterr()
    assert (bool(out), got) == (code == 0, err)


@pytest.mark.parametrize("argv, mode", [
    (["oracle", "verify", "--atoms", "2", "--higher-order"], "exhaustive"),
    (["oracle", "verify", "--atoms", "3", "--higher-order", "--samples", "8"], "mixed"),
    (["oracle", "verify", "--atoms", "4", "--samples", "8"], "sampled"),
    (["algebra", "selftest", "--atoms", "2"], "exhaustive"),
    (["algebra", "selftest", "--atoms", "5", "--samples", "8"], "sampled"),
], ids=["verify-exhaustive", "verify-mixed", "verify-sampled", "selftest-exhaustive",
        "selftest-sampled"])
def test_verifier_header_names_the_mode(argv, mode, capsys):
    """The header says "exhaustive" only when no section samples: on 3
    atoms the higher-order section samples beside exhaustive ones."""
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(f" mode={mode}")
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == mode


def test_oracle_verify_golden_roundtrip(tmp_path):
    golden = tmp_path / "golden"
    proc = run_cli("oracle", "verify", "--atoms", "2", "--golden", str(golden), "--record")
    assert proc.returncode == 0
    assert "recorded" in proc.stdout
    proc = run_cli("oracle", "verify", "--atoms", "2", "--golden", str(golden))
    assert proc.returncode == 0
    assert "recorded" not in proc.stdout


def test_oracle_verify_golden_mistyped_dir_exits_two(tmp_path):
    golden = tmp_path / "goldne"
    proc = run_cli("oracle", "verify", "--atoms", "2", "--golden", str(golden))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: golden directory {golden} does not exist (--record creates it)"]
    assert not golden.exists()


def test_oracle_verify_golden_missing_fact_fails(tmp_path):
    golden = tmp_path / "golden"
    golden.mkdir()
    proc = run_cli("oracle", "verify", "--atoms", "2", "--golden", str(golden))
    assert proc.returncode == 1
    assert "FAIL golden_pipeline_form" in proc.stdout
    assert "recorded" not in proc.stdout
    assert list(golden.iterdir()) == []


@pytest.mark.parametrize("make_file", [False, True])
def test_oracle_verify_record_needs_a_directory(tmp_path, make_file):
    args = ["oracle", "verify", "--atoms", "2", "--record"]
    if make_file:
        path = tmp_path / "golden"
        path.write_text("")
        args += ["--golden", str(path)]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1


def golden_with_fact(tmp_path, write_fact):
    """A copy of the bundled golden directory whose pipeline_form fact
    write_fact replaces; returns the directory and the fact's path."""
    golden = tmp_path / "golden"
    golden.mkdir()
    for name in os.listdir(bundled_golden_dir()):
        if name != "pipeline_form.json":
            with open(os.path.join(bundled_golden_dir(), name), "rb") as fh:
                (golden / name).write_bytes(fh.read())
    fact = golden / "pipeline_form.json"
    write_fact(fact)
    return golden, fact


@pytest.mark.parametrize("write_fact, message", [
    (lambda fact: fact.mkdir(), "[Errno 21] Is a directory: '{fact}'"),
    (lambda fact: fact.write_text("{bad"),
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (lambda fact: fact.write_bytes(b'{"x": "\xff"}'),
     "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
], ids=["directory", "not_json", "not_utf8"])
def test_oracle_verify_unreadable_golden_fact_exits_two(tmp_path, capsys, write_fact, message):
    golden, fact = golden_with_fact(tmp_path, write_fact)
    assert main(["oracle", "verify", "--atoms", "2", "--golden", str(golden)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot use {fact}: {message.format(fact=fact)}\n")


def test_oracle_verify_record_under_a_file_exits_two(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    golden = afile / "sub"
    assert main(["oracle", "verify", "--atoms", "2", "--golden", str(golden), "--record"]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot use {golden}: [Errno 20] Not a directory: '{golden}'\n")


def test_oracle_verify_golden_mismatch_fails(tmp_path):
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "sum_of_implications_parity.json").write_text(
        json.dumps({"odd": "wrong", "even": "wrong"}))
    proc = run_cli("oracle", "verify", "--atoms", "2", "--golden", str(golden))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_bundled_golden_facts_verify():
    proc = run_cli("oracle", "verify", "--atoms", "2", "--golden", bundled_golden_dir())
    assert proc.returncode == 0
    assert "recorded" not in proc.stdout


def test_algebra_selftest():
    proc = run_cli("algebra", "selftest", "--atoms", "2")
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


SNAPSHOT_DIR = os.path.join(os.path.dirname(__file__), "snapshots")


SNAPSHOTS = {
    "oracle_verify_atoms3_higher_order.txt": ["oracle", "verify", "--atoms", "3", "--higher-order"],
    "oracle_verify_atoms4_seed7_samples300.txt":
        ["oracle", "verify", "--atoms", "4", "--seed", "7", "--samples", "300"],
    "oracle_verify_atoms4_seed7_samples300.json":
        ["oracle", "verify", "--atoms", "4", "--seed", "7", "--samples", "300", "--format", "json"],
    "oracle_verify_atoms2_golden.txt":
        ["oracle", "verify", "--atoms", "2", "--golden", bundled_golden_dir()],
    # one command per table regime: events and conditionals tabled (the
    # verify-higher benchmark command), events only, no table
    "oracle_verify_atoms2_higher_order_seed3.txt":
        ["oracle", "verify", "--atoms", "2", "--higher-order", "--seed", "3"],
    "oracle_verify_atoms7_seed1_samples60.txt":
        ["oracle", "verify", "--atoms", "7", "--seed", "1", "--samples", "60"],
    "oracle_verify_atoms9_seed2_samples40.txt":
        ["oracle", "verify", "--atoms", "9", "--seed", "2", "--samples", "40"],
    "algebra_selftest_atoms3.txt": ["algebra", "selftest", "--atoms", "3"],
    "algebra_selftest_atoms5_seed3_samples200.txt":
        ["algebra", "selftest", "--atoms", "5", "--seed", "3", "--samples", "200"],
}


@pytest.mark.parametrize("snapshot", SNAPSHOTS)
def test_verifier_stdout_matches_snapshot(snapshot):
    """Check names, order, case counts and settings lines are pinned:
    each file is the full stdout of the command, recorded once."""
    with open(os.path.join(SNAPSHOT_DIR, snapshot), encoding="utf-8") as fh:
        expected = fh.read()
    proc = run_cli(*SNAPSHOTS[snapshot])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


EVAL_LOGICS = {
    "cl": ["cl", "--atom", "a1=1,a2=1,a3=2,b1=106-reddish,b2=1,th1=some"],
    "cl_first": ["cl", "--atom", "a1=1,a2=1,a3=1,b1=106-reddish,b2=1,th1=none"],
    "cl_last": ["cl", "--atom", "a1=3,a2=3,a3=3,b1=98-normal,b2=3,th1=prog"],
    "pl_uniform": ["pl", "--measure", "uniform"],
    "cpl_uniform": ["cpl", "--measure", "uniform"],
    "fl": ["fl", "--poss", os.path.join(SNAPSHOT_DIR, "eval_fever_poss.json")],
    "pl_float": ["pl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_float.json")],
    "cpl_float": ["cpl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_float.json")],
    "pl_exact": ["pl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_exact.json")],
    "cpl_exact": ["cpl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_exact.json")],
    "pl_mixed": ["pl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_mixed.json")],
    "cpl_mixed": ["cpl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_mixed.json")],
    "chain6_cl": ["cl", "--atom", "b1=x,a0=2,a1=3,a2=1,a3=1,a4=3,a5=3,th=t1"],
    "chain6_pl": ["pl", "--measure", os.path.join(SNAPSHOT_DIR, "chain6_factors_float.json")],
    "chain6_cpl": ["cpl", "--measure", os.path.join(SNAPSHOT_DIR, "chain6_factors_float.json")],
    "chain6_fl": ["fl", "--poss", os.path.join(SNAPSHOT_DIR, "chain6_poss.json")],
    "bound_cl": ["cl", "--atom", "a1=1,a2=1,a3=1,b1=106-reddish,b2=1,th1=none"],
    "bound_pl_uniform": ["pl", "--measure", "uniform"],
    "bound_cpl_uniform": ["cpl", "--measure", "uniform"],
    "bound_pl_exact":
        ["pl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_exact.json")],
    "bound_cpl_exact":
        ["cpl", "--measure", os.path.join(SNAPSHOT_DIR, "eval_fever_factors_exact.json")],
    "bound_fl": ["fl", "--poss", os.path.join(SNAPSHOT_DIR, "eval_fever_poss.json")],
    "chain6_bound_cl": ["cl", "--atom", "b1=x,a0=1,a1=1,a2=1,a3=1,a4=1,a5=1,th=t0"],
    "chain6_bound_pl":
        ["pl", "--measure", os.path.join(SNAPSHOT_DIR, "chain6_factors_float.json")],
    "chain6_bound_cpl":
        ["cpl", "--measure", os.path.join(SNAPSHOT_DIR, "chain6_factors_float.json")],
    "chain6_bound_fl": ["fl", "--poss", os.path.join(SNAPSHOT_DIR, "chain6_poss.json")],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("logic", EVAL_LOGICS)
def test_eval_stdout_matches_snapshot(kb_path, obs_path, capsys, logic, fmt):
    """Each file is the full stdout of one `cea eval`. The plain rows run
    on the bundled KB and observation; cl_first and cl_last grade at its
    first and last atom, the lowest and highest bit of the atom lookup;
    the fl run reads the committed poss file, the pl_float and cpl_float
    runs the committed float factors file, the pl_exact and cpl_exact
    runs the committed "p/q" factors file, and the pl_mixed and
    cpl_mixed runs a factors file that mixes "p/q" strings and floats,
    within one factor too. The chain6_ rows run on the committed inputs of
    `perfbench/gen.py chain --k 6 --seed 1` (chain6_*.json), whose
    elimination sweeps six buckets and sums floats that json prints in
    full. The bound_ rows run the same logics on fever_bound_kb.json and
    chain6_bound_kb.json, whose rules bind values, so that the rules are
    not vacuous under the join and each logic's reading of a rule shows
    in the grades (`test_bound_inputs_grade_rules_that_matter`)."""
    stem = f"fever_{logic}"
    if logic.startswith("chain6_"):
        stem = logic
        kb_path, obs_path = (os.path.join(SNAPSHOT_DIR, f"chain6_{name}.json")
                             for name in ("kb", "obs"))
        if logic.startswith("chain6_bound_"):
            kb_path = os.path.join(SNAPSHOT_DIR, "chain6_bound_kb.json")
    elif logic.startswith("bound_"):
        kb_path = os.path.join(SNAPSHOT_DIR, "fever_bound_kb.json")
    snapshot = f"eval_{stem}.{'txt' if fmt == 'text' else 'json'}"
    with open(os.path.join(SNAPSHOT_DIR, snapshot), encoding="utf-8") as fh:
        expected = fh.read()
    assert main(["eval", "--kb", kb_path, "--observe", obs_path,
                 "--aldp", *EVAL_LOGICS[logic], "--format", fmt]) == 0
    assert capsys.readouterr() == (expected, "")


def union_antecedent_meet(self, other):
    """The conditional meet with its antecedent term (a1 & a2) made (a1 | a2)."""
    c1, a1, c2, a2 = self.cons, self.ant, other.cons, other.ant
    return _make(self.space, c1 & c2, (a1 & ~c1) | (a2 & ~c2) | (a1 | a2), other.space)


def sum_clearing_atom_0(self, other):
    """The event sum with atom 0 cleared from its result."""
    return _event(self.space, (self.mask ^ other.mask) & ~1, other.space)


def member_clearing_atom_0(space, mask, peer=None):
    """The oracle's member constructor with atom 0 cleared from every
    member that holds atoms 1 and 2; the compact calculus is intact."""
    return _event(space, mask & ~1 if mask & 6 == 6 else mask, peer)


FAILING_SNAPSHOTS = {
    "oracle_verify_atoms4_seed7_samples300_union_meet.txt":
        (ConditionalObject, "__and__", union_antecedent_meet,
         ["oracle", "verify", "--atoms", "4", "--seed", "7", "--samples", "300"]),
    "oracle_verify_atoms7_seed1_samples60_union_meet.txt":
        (ConditionalObject, "__and__", union_antecedent_meet,
         ["oracle", "verify", "--atoms", "7", "--seed", "1", "--samples", "60"]),
    "algebra_selftest_atoms9_seed5_samples200_sum_atom0.txt":
        (Event, "__xor__", sum_clearing_atom_0,
         ["algebra", "selftest", "--atoms", "9", "--seed", "5", "--samples", "200"]),
    "oracle_verify_atoms3_higher_order_member_atom0.txt":
        (coset, "_event", member_clearing_atom_0,
         ["oracle", "verify", "--atoms", "3", "--higher-order"]),
    "oracle_verify_atoms4_seed7_samples300_member_atom0.txt":
        (coset, "_event", member_clearing_atom_0,
         ["oracle", "verify", "--atoms", "4", "--seed", "7", "--samples", "300"]),
}


@pytest.mark.parametrize("snapshot", FAILING_SNAPSHOTS)
def test_failing_verifier_stdout_matches_snapshot(snapshot, monkeypatch, capsys):
    """With one operator broken, each sampled row that fails prints its
    first witness, so these files pin the seeded stream tuple for tuple
    (the passing snapshots only pin the case counts)."""
    owner, name, broken, argv = FAILING_SNAPSHOTS[snapshot]
    with open(os.path.join(SNAPSHOT_DIR, snapshot), encoding="utf-8") as fh:
        expected = fh.read()
    monkeypatch.setattr(owner, name, broken)
    assert main(argv) == 1
    assert capsys.readouterr().out == expected


def test_predicate_exception_is_a_failed_check(monkeypatch, capsys):
    """A law whose predicate raises fails with its witness and the
    exception; the rows and sections after it still run."""
    def broken(self, other):
        raise RuntimeError("sum is broken")

    monkeypatch.setattr(ConditionalObject, "__xor__", broken)
    assert main(["oracle", "verify", "--atoms", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("  FAIL coset_extension_sum (1 cases) -- witness (({}|{}), ({}|{})) "
            "raised RuntimeError: sum is broken") in lines
    assert "  PASS coset_extension_join (81 cases)" in lines
    assert "[algebraic laws]" in lines
    assert lines[-1].endswith("checks FAILED")


def failed_verify(argv, capsys, fail_line, summary):
    """Run a verifier command that must fail: the fail line is printed,
    and so is every later row and section, up to the summary line."""
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert fail_line in lines
    assert lines[-1] == summary
    return lines[lines.index(fail_line) + 1:]


def test_iterated_family_exception_is_a_failed_check(monkeypatch, capsys):
    def broken(self, other):
        raise RuntimeError("meet is broken")

    monkeypatch.setattr(ConditionalObject, "__and__", broken)
    later = failed_verify(
        ["oracle", "verify", "--atoms", "2", "--higher-order"], capsys,
        "  FAIL triple_equality_matches_member_sets (0 cases) -- "
        "drawing case 1 raised RuntimeError: meet is broken",
        "38 of 82 checks FAILED")
    assert [line.split(" (")[0] for line in later[:-1]] == [
        "  FAIL reduction_homomorphism_complement", "  FAIL reduction_homomorphism_join",
        "  FAIL reduction_homomorphism_meet", "  FAIL restriction_bijective_event_denominator",
        "  FAIL restriction_bijective_shared_antecedent"]


def test_case_drawing_exception_is_a_failed_check(monkeypatch, capsys):
    """An exception raised while a row's cases are drawn fails that row."""
    def broken(self, other):
        raise RuntimeError("join is broken")

    monkeypatch.setattr(ConditionalObject, "__or__", broken)
    later = failed_verify(
        ["oracle", "verify", "--atoms", "4", "--seed", "7", "--samples", "50"], capsys,
        "  FAIL ops_monotone_in_both_arguments (0 cases) -- "
        "drawing case 1 raised RuntimeError: join is broken",
        "21 of 62 checks FAILED")
    assert "  PASS event_sandwich (50 cases)" in later
    assert [line for line in later if line.startswith("[")] == [
        "[identity calculus]", "[implication comparison]", "[coset intersection]"]


def test_golden_fact_exception_fails_its_row(monkeypatch, capsys, tmp_path):
    """A golden fact that raises fails its own row, the other facts
    still run, and --record does not write it."""
    def broken_antecedent(self, other):
        return _make(self.space, self.cons & other.cons, self.ant | other.ant, other.space)

    monkeypatch.setattr(ConditionalObject, "__and__", broken_antecedent)
    later = failed_verify(
        ["oracle", "verify", "--atoms", "2", "--golden", bundled_golden_dir()], capsys,
        "  FAIL golden_iterated_example (1 cases) -- raised ReductionMismatchError: "
        "literal union ({}|{}) differs from closed form ({}|{0,1})",
        "18 of 73 checks FAILED")
    assert later[0] == "  PASS golden_pipeline_form (1 cases)"
    assert later[2] == "  PASS golden_sum_of_implications_parity (1 cases)"

    assert main(["oracle", "verify", "--atoms", "2", "--golden", str(tmp_path), "--record"]) == 1
    assert "  FAIL golden_iterated_example" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == [
        "pipeline_form.json", "reduction_antecedent.json", "sum_of_implications_parity.json"]


def test_shared_coset_fails_with_its_witness(monkeypatch, capsys):
    real = verify.expand

    def merged(c):  # every (x|{0}) gets the coset of (0|0)
        return real(cond(c.space.zero, c.space.zero) if c.ant == 1 else c)

    monkeypatch.setattr(verify, "expand", merged)
    later = failed_verify(
        ["oracle", "verify", "--atoms", "2"], capsys,
        "  FAIL distinct_pairs_have_distinct_cosets (2 cases) -- "
        "witness (({}|{0}),): shares a coset with ({}|{})",
        "10 of 69 checks FAILED")
    assert later[0] == ("  FAIL fixed_antecedent_classes_partition (2 cases) -- "
                        "witness ({0},): overlapping classes")


def test_constant_reduction_fails_both_restriction_rows(monkeypatch, capsys):
    monkeypatch.setattr(verify, "reduce_u", lambda x: cond(x.beta.space.zero, x.beta.space.zero))
    later = failed_verify(
        ["oracle", "verify", "--atoms", "2", "--higher-order"], capsys,
        "  FAIL restriction_bijective_event_denominator (2 cases) -- "
        "witness ({0},): not injective",
        "11 of 82 checks FAILED")
    assert later[0] == ("  FAIL restriction_bijective_shared_antecedent (2 cases) -- "
                        "witness ({0},): not injective")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lewis_demo_stdout_matches_snapshot(fmt, capsys):
    snapshot = f"lewis_demo_atoms10.{'txt' if fmt == 'text' else 'json'}"
    with open(os.path.join(SNAPSHOT_DIR, snapshot), encoding="utf-8") as fh:
        expected = fh.read()
    assert main(["lewis", "demo", "--atoms", "10", "--format", fmt]) == 0
    assert capsys.readouterr() == (expected, "")


def test_lewis_demo_text():
    proc = run_cli("lewis", "demo", "--atoms", "10")
    assert proc.returncode == 0
    assert "gap:       0.9" in proc.stdout


def test_lewis_demo_json():
    proc = run_cli("lewis", "demo", "--atoms", "2", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload == {"atoms": 2, "p_implies": 0.5, "p_cond": 0.0, "gap": 0.5}


def test_determinism_small():
    first = run_cli("oracle", "verify", "--atoms", "2", "--seed", "7")
    second = run_cli("oracle", "verify", "--atoms", "2", "--seed", "7")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_bad_flags_exit_two():
    proc = run_cli("eval", "--aldp", "nonsense")
    assert proc.returncode == 2
    proc = run_cli("oracle")
    assert proc.returncode == 2
