"""Tests of the benchmark itself: generator, metric names, output
checks and trace nesting. Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re

import pytest

import checks
import gen
import run
import tracer as tracing

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _read_tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("write", [
    lambda d, seed: gen.write_chain(d, 7, seed),
    lambda d, seed: gen.write_bundled(d, seed),
])
def test_generator_is_deterministic(tmp_path, write):
    write(tmp_path / "a", 5)
    write(tmp_path / "b", 5)
    write(tmp_path / "c", 6)
    first = _read_tree(tmp_path / "a")
    assert first == _read_tree(tmp_path / "b")
    assert first["factors.json"] != _read_tree(tmp_path / "c")["factors.json"]


def test_generator_refuses_oversized_chains(tmp_path, capsys):
    with pytest.raises(gen.GenerationError, match="atom budget .* engine bound"):
        gen.write_chain(tmp_path / "k10", 10, 0)
    assert gen.main(["chain", "--k", "10", "--out", str(tmp_path / "cli")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "KB(10)" in err
    assert not os.listdir(tmp_path)


def test_metric_names_are_well_formed_and_declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_layers = {m["name"] for m in bench["per_layer"]}
    emitted_layers = set(tracing.layer_metrics(tracing.Tracer(), 1))
    emitted_layers |= {"trace.overhead_ratio", "check.error_rate"}
    assert declared_layers == emitted_layers
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "query_rel_p50", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for name in declared_layers | {m["name"] for m in bench["end_to_end"]}:
        assert NAME.match(name), name


def _bundled_ops(tmp_path):
    modules = run.cea_modules()
    commands = run.eval_commands("eval-bundled", 0, str(tmp_path))
    return modules, commands


def test_checker_counts_a_corrupted_grade(tmp_path):
    modules, commands = _bundled_ops(tmp_path)
    with open(run.EXPECTED, encoding="utf-8") as fh:
        recorded = json.load(fh)["eval-bundled"][0]
    label, argv = next(c for c in commands if c[0] == "cpl-factors")
    good = recorded[label]
    corrupted = good.replace("0.0", "0.1", 1)
    assert corrupted != good
    tally = run.Tally()
    for want in (good, corrupted):
        op = run.Op(label, argv, lambda code, out, err, want=want:
                    checks.check_eval(code, out, err, want))
        tally.record(run.run_op(modules.cli, op)[1])
    assert (tally.attempted, tally.failed) == (2, 1)

    golden = checks.golden_uniform_grades(run.GOLDEN_PIPELINE)
    uniform = recorded["cpl-uniform"]
    assert checks.check_golden_grades(uniform, golden) is None
    wrong = dict(golden, none="0.2")
    assert checks.check_golden_grades(uniform, wrong) is not None


def _verify_stdout(header, rows):
    lines = [header]
    section = None
    for sec, name, cases in rows:
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"  PASS {name} ({cases} cases)")
    lines.append(f"all {len(rows)} checks passed")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", ["verify-sampled", "verify-higher"])
def test_checker_counts_a_dropped_verify_case(workload):
    with open(run.EXPECTED, encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    _, header = run.verify_command(workload, 7)
    assert checks.check_verify(0, _verify_stdout(header, recorded), "", header, recorded) is None

    fewer = [list(r) for r in recorded]
    fewer[3][2] -= 1
    dropped = recorded[:2] + recorded[3:]
    failing = _verify_stdout(header, recorded).replace("  PASS", "  FAIL", 1)
    for stdout in (_verify_stdout(header, fewer), _verify_stdout(header, dropped), failing):
        assert checks.check_verify(0, stdout, "", header, recorded) is not None
    good = _verify_stdout(header, recorded)
    assert checks.check_verify(1, good, "", header, recorded) is not None
    assert checks.check_verify(0, good, "warning\n", header, recorded) is not None


def _assert_nested(spans):
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    for span_id, name, start, end, parent, query in spans:
        assert start <= end
        if parent is None:
            assert name == "cli.main"
            continue
        _, _, p_start, p_end, _, p_query = by_id[parent]
        assert p_start <= start and end <= p_end, name
        assert query == p_query


def test_traced_run_nests_spans(tmp_path):
    modules, commands = _bundled_ops(tmp_path)
    originals = {name: getattr(modules.engine, name) for name in ("integrate_out", "ground")}
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    try:
        for i, (label, argv) in enumerate(commands + [
                ("verify", ["oracle", "verify", "--atoms", "2", "--higher-order"])]):
            tracer.query = i
            assert run.run_op(modules.cli, run.Op(label, argv, lambda *a: None))[1] is None
    finally:
        tracer.uninstall()
    assert {n: getattr(modules.engine, n) for n in originals} == originals

    _assert_nested(tracer.spans)
    names = {s[1] for s in tracer.spans}
    assert {"engine.build_space", "engine.integrate_out", "semantics.cpl_eval",
            "verify.coset_extension", "verify.higher_order"} <= names
    layers = tracing.layer_metrics(tracer, 1)
    assert layers["engine.atoms"][0] == 486
    assert layers["engine.integrate_out_calls"][0] == 3 * len(commands)
    assert layers["coset.expand_calls"][0] > 0
    assert layers["higher.reduce_u_calls"][0] > 0
    assert layers["verify.class_structure_cases"][0] > 0

    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert [s["id"] for s in written] == sorted(s[0] for s in tracer.spans)
