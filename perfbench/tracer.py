"""Span tracing from outside the program.

The tracer wraps public functions of the `cea` modules by replacing the
module (or class) attributes their callers look up at call time, such as
`cea.cli.build_space` or `cea.engine.integrate_out`. Nothing under
`src/` changes, and `uninstall` puts every original attribute back.

Each wrapped call is one span: name, start, end, parent span and query
id. Spans are kept in memory and written out by `write`. Functions
called hundreds of thousands of times per command (grounding a formula,
one coset expansion) are "hot": they are timed and counted, and their
time is charged to the enclosing span, but they are not stored one by
one. Per-operator methods (`ConditionalObject.__and__`, `Event`
operators) are never wrapped; they run millions of times and a wrapper
would dominate what it measures.

Self time of a span is its duration minus the time its direct child
spans (hot or not) cover.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# verify.oracle_suites calls these by module-global name, one per section.
VERIFY_SECTIONS = {
    "oracle_equivalence_suite": "coset_extension",
    "conditional_law_suite": "algebraic_laws",
    "nary_consistency_suite": "nary_forms",
    "partial_order_suite": "partial_order",
    "identity_suite": "identity_calculus",
    "comparison_suite": "implication_comparison",
    "intersection_suite": "coset_intersection",
    "characterization_suite": "class_structure",
    "higher_order_suite": "higher_order",
}


class Tracer:
    """Collects spans, per-name totals and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, query id)
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counters: dict[str, int] = {}
        self.query = None
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._patches: list[tuple] = []
        self._next_id = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def wrap(self, name: str, fn, hot: bool = False, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = None
            parent = None
            if not hot:
                parent = tracer._parent_span()
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                total = tracer.totals.get(name)
                if total is None:
                    total = tracer.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[2]
                if span_id is not None:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.query))
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hot: bool = False, on_result=None) -> None:
        """Replace owner.attr (a module or class attribute) by a traced
        wrapper. Class methods stay class methods."""
        raw = vars(owner)[attr]
        wrapped = self.wrap(name, getattr(owner, attr), hot, on_result)
        if isinstance(raw, classmethod):
            wrapped = staticmethod(wrapped)  # getattr already bound the class
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Spans as JSON lines, ordered by span id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, query in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "query": query}))
                fh.write("\n")


def _count_atoms(tracer: Tracer, grounding) -> None:
    tracer.counters["engine.atoms"] = grounding.space.atom_count


def _count_rules(tracer: Tracer, rules) -> None:
    tracer.count("engine.rules_fired", len(rules))


def _count_undefined(tracer: Tracer, rows) -> None:
    tracer.count("semantics.undefined_rows", sum(1 for r in rows if r.error))


def _section_counter(section: str):
    def count_cases(tracer: Tracer, checks) -> None:
        tracer.count(f"verify.{section}_cases", sum(c.cases for c in checks))
    return count_cases


def install(tracer: Tracer, modules) -> None:
    """Wrap the layer boundaries of the given `cea` modules: a namespace
    with attributes cli, engine, semantics, verify, coset and higher."""
    cli, engine, semantics = modules.cli, modules.engine, modules.semantics
    verify, coset, higher = modules.verify, modules.coset, modules.higher

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_kb", "engine.load")
    tracer.patch(cli, "load_observation", "engine.load")
    tracer.patch(cli, "build_space", "engine.build_space", on_result=_count_atoms)
    tracer.patch(cli, "measure_from_json", "semantics.measure_build")
    tracer.patch(semantics.ProbabilityMeasure, "uniform", "semantics.measure_build")
    tracer.patch(semantics.PossibilityAssignment, "from_json", "semantics.measure_build")
    tracer.patch(cli, "evaluate", "engine.evaluate", on_result=_count_undefined)

    tracer.patch(engine, "integrate_out", "engine.integrate_out")
    tracer.patch(engine, "relevant_rules", "engine.relevant_rules", on_result=_count_rules)
    tracer.patch(engine, "conjoin_f", "engine.conjoin_f", hot=True)
    tracer.patch(engine, "ground", "formulas.ground", hot=True)
    tracer.patch(engine, "conjoin_all", "conditional.conjoin_all", hot=True)
    tracer.patch(engine, "disjoin_all", "conditional.disjoin_all")
    for logic in ("cl", "pl", "cpl", "fl"):
        tracer.patch(engine, f"{logic}_eval", f"semantics.{logic}_eval")
    tracer.patch(semantics.ProbabilityMeasure, "__call__", "semantics.measure_call", hot=True)

    for fn_name, section in VERIFY_SECTIONS.items():
        tracer.patch(verify, fn_name, f"verify.{section}",
                     on_result=_section_counter(section))
    for owner in (coset, higher, verify):
        tracer.patch(owner, "expand", "coset.expand", hot=True)
        tracer.patch(owner, "recognize", "coset.recognize", hot=True)
    tracer.patch(verify, "classwise", "coset.classwise", hot=True)
    tracer.patch(verify, "classwise_unary", "coset.classwise", hot=True)
    tracer.patch(verify, "class_intersect", "coset.class_intersect", hot=True)
    tracer.patch(verify, "iter_cond", "higher.iter_cond", hot=True)
    tracer.patch(verify, "reduce_u", "higher.reduce_u", hot=True)
    for owner in (higher, verify):
        tracer.patch(owner, "iter_equal", "higher.iter_equal", hot=True)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round of the workload's command list:
    name -> (value, unit). A layer the workload never reaches reads 0."""
    totals = tracer.totals

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / rounds

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / rounds

    def self_seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / rounds

    def counter(name):
        return tracer.counters.get(name, 0) / rounds

    out = {
        "engine.load_s": (seconds("engine.load"), "s"),
        "engine.build_space_s": (seconds("engine.build_space"), "s"),
        "engine.atoms": (tracer.counters.get("engine.atoms", 0), "count"),
        "engine.integrate_out_s": (seconds("engine.integrate_out"), "s"),
        "engine.integrate_out_calls": (calls("engine.integrate_out"), "count"),
        "engine.relevant_rules_s": (seconds("engine.relevant_rules"), "s"),
        "engine.rules_fired": (counter("engine.rules_fired"), "count"),
        "engine.conjoin_f_s": (seconds("engine.conjoin_f"), "s"),
        "engine.conjoin_f_calls": (calls("engine.conjoin_f"), "count"),
        "formulas.ground_calls": (calls("formulas.ground"), "count"),
        "conditional.conjoin_all_s": (seconds("conditional.conjoin_all"), "s"),
        "conditional.conjoin_all_calls": (calls("conditional.conjoin_all"), "count"),
        "conditional.disjoin_all_s": (seconds("conditional.disjoin_all"), "s"),
        "conditional.disjoin_all_calls": (calls("conditional.disjoin_all"), "count"),
        "semantics.measure_build_s": (seconds("semantics.measure_build"), "s"),
        "semantics.measure_calls": (calls("semantics.measure_call"), "count"),
        "semantics.measure_call_s": (seconds("semantics.measure_call"), "s"),
        "semantics.cl_eval_s": (seconds("semantics.cl_eval"), "s"),
        "semantics.pl_eval_s": (seconds("semantics.pl_eval"), "s"),
        "semantics.cpl_eval_s": (seconds("semantics.cpl_eval"), "s"),
        "semantics.fl_eval_s": (seconds("semantics.fl_eval"), "s"),
        "semantics.undefined_rows": (counter("semantics.undefined_rows"), "count"),
        "cli.self_s": (self_seconds("cli.main"), "s"),
    }
    for section in VERIFY_SECTIONS.values():
        out[f"verify.{section}_s"] = (self_seconds(f"verify.{section}"), "s")
        out[f"verify.{section}_cases"] = (counter(f"verify.{section}_cases"), "count")
    out.update({
        "coset.expand_calls": (calls("coset.expand"), "count"),
        "coset.expand_s": (seconds("coset.expand"), "s"),
        "coset.classwise_calls": (calls("coset.classwise"), "count"),
        "coset.classwise_s": (seconds("coset.classwise"), "s"),
        "coset.recognize_calls": (calls("coset.recognize"), "count"),
        "coset.class_intersect_calls": (calls("coset.class_intersect"), "count"),
        "higher.iter_cond_calls": (calls("higher.iter_cond"), "count"),
        "higher.iter_cond_s": (seconds("higher.iter_cond"), "s"),
        "higher.reduce_u_calls": (calls("higher.reduce_u"), "count"),
        "higher.reduce_u_s": (seconds("higher.reduce_u"), "s"),
        "higher.iter_equal_calls": (calls("higher.iter_equal"), "count"),
    })
    return out
