import gc
import itertools
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction
from functools import partial, reduce
from operator import and_, or_

import pytest

from cea import engine
from cea.algebra import AtomSpace
from cea.conditional import disjoin_all
from cea.data import load_bundled_kb, load_bundled_observation
from cea.engine import (
    KnowledgeBase,
    KnowledgeBaseError,
    Observation,
    Rule,
    VariableDecl,
    build_space,
    conjoin_f,
    elimination_order,
    evaluate,
    integrate_out,
    kb_from_json,
    observation_from_json,
    relevant_rules,
)
from cea.formulas import (And, Implies, Leaf, NaryOp, Not, Or, bind_leaves, from_json,
                          to_json)
from cea.semantics import (
    PossibilityAssignment,
    ProbabilityMeasure,
    fl_eval,
    measure_from_json,
    parse_weight,
    random_measure,
)


def sweep_variables(kb, rules, obs, query_var):
    """The reference sweep: every unobserved, non-query variable the
    rules mention, free or bound, in declaration order."""
    mentioned = set().union(*(r.variables for r in rules))
    return [v for v in kb.variables
            if v.name in mentioned and v.name not in obs and v.name != query_var]


def enumerate_integrate_out(grounding, obs, aldp, query_var, query_value):
    """The reference integrator: the join of the conjunction form over
    every assignment of the swept variables, one by one."""
    kb = grounding.kb
    rules = relevant_rules(kb, obs)
    sweep = sweep_variables(kb, rules, obs, query_var)
    forms = []
    for combo in itertools.product(*(v.domain for v in sweep)):
        assignment = dict(zip((v.name for v in sweep), combo))
        assignment[query_var] = query_value
        forms.append(conjoin_f(grounding, obs, rules, aldp, assignment))
    if aldp == "fl":
        return Or(forms)
    if aldp == "cpl":
        return disjoin_all(forms)
    return reduce(or_, forms)


def reference_elimination_order(scopes, domains, keep=None):
    """The reference greedy order: every remaining variable's joint
    scope, the union of the scopes that name it, recomputed at every
    step, and the cheapest eliminated, the first in `domains` order on a
    tie."""
    scopes = [set(s) for s in scopes]
    remaining = [v for v in domains if v != keep and any(v in s for s in scopes)]
    order = []

    def size(names):
        return math.prod(len(domains[v]) for v in names)

    def joint(var):
        return set().union(*(s for s in scopes if var in s))

    largest = max([1] + [size(s) for s in scopes])
    while remaining:
        var = min(remaining, key=lambda v: size(joint(v) - {v}))
        merged = joint(var)
        largest = max(largest, size(merged))
        scopes = [s for s in scopes if var not in s] + [merged - {var}]
        remaining.remove(var)
        order.append(var)
    return order, largest


def _free_variables(f):
    """The variables of the free leaves of f."""
    return {var for var, vals in f.leaves() if vals is None}


def scan_assignments(kb):
    """The reference atom table: one assignment dict per atom, in
    itertools.product order over the declaration order."""
    names = [v.name for v in kb.variables]
    return [dict(zip(names, combo))
            for combo in itertools.product(*(v.domain for v in kb.variables))]


def scan_factor_weights(assignments, factors):
    """The reference product measure: per atom, the factor weights of
    its assignment multiplied left to right from Fraction(1)."""
    factors = {var: {val: parse_weight(w) for val, w in vals.items()}
               for var, vals in factors.items()}
    weights = []
    for assignment in assignments:
        w = Fraction(1)
        for var, val in assignment.items():
            if var not in factors:
                raise ValueError(f"measure file missing factor for {var}")
            if val not in factors[var]:
                raise ValueError(f"factor for {var} missing value {val!r}")
            w = w * factors[var][val]
        weights.append(w)
    return weights


def scan_measure(p, e):
    """The reference measure call: a loop over every atom."""
    total = Fraction(0) if p.exact else 0.0
    for i, w in enumerate(p.weights):
        if e.mask >> i & 1:
            total += w
    return total


@pytest.fixture(scope="module")
def bundled():
    kb = load_bundled_kb()
    grounding = build_space(kb)
    obs = load_bundled_observation(kb)
    return kb, grounding, obs


TINY_KB = {
    "variables": [
        {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
        {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]},
    ],
    "rules": [
        {"id": "r", "if": {"var": "d"}, "then": {"var": "x"}},
    ],
}


def test_build_space(bundled):
    kb, grounding, _ = bundled
    assert grounding.space.atom_count == 486
    # primitive events slice the space by one variable's value
    assert grounding.values_event("b1", ["106-reddish"]).mask.bit_count() == 243
    assert grounding.values_event("th1", ["some"]).mask.bit_count() == 162
    with pytest.raises(KnowledgeBaseError, match=r"^unknown primitive event b1\[nonsense\]$"):
        grounding.values_event("b1", ["nonsense"])


def test_atom_of_assignment(bundled):
    _, grounding, _ = bundled
    assignment = {"a1": "1", "a2": "1", "a3": "1", "b1": "106-reddish",
                  "b2": "1", "th1": "none"}
    idx = grounding.atom_of_assignment(assignment)
    assert scan_assignments(grounding.kb)[idx] == assignment
    for idx, assignment in enumerate(scan_assignments(grounding.kb)):
        assert grounding.atom_of_assignment(assignment) == idx
    with pytest.raises(KnowledgeBaseError):
        grounding.atom_of_assignment({"a1": "1"})


def test_grounding_commutes_with_connectives(bundled):
    _, grounding, _ = bundled
    f = from_json({"op": "or", "args": [
        {"var": "a1", "vals": ["1"]}, {"var": "a2", "vals": ["2", "3"]}]})
    direct = grounding.values_event("a1", ["1"]) | grounding.values_event("a2", ["2", "3"])
    assert grounding.ground_formula(f) == direct
    g = from_json({"op": "not", "args": [{"var": "b2", "vals": ["1"]}]})
    assert grounding.ground_formula(g) == ~grounding.values_event("b2", ["1"])


def test_relevant_rules_closure(bundled):
    kb, _, obs = bundled
    # the two rules naming the observed symptom pull in the two rules
    # chained to them through shared attribute variables
    assert [r.id for r in relevant_rules(kb, obs)] == [
        "symptom-suggests-a1",
        "symptom-or-history-suggests-a2-a3",
        "history-indicates-diagnosis",
        "attributes-indicate-diagnosis",
    ]


def test_relevant_rules_empty_and_full():
    data = {
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "lonely", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]},
        ],
        "rules": [{"id": "r", "if": {"var": "x"}, "then": {"var": "d"}}],
    }
    kb = kb_from_json(data)
    assert relevant_rules(kb, Observation(kb, {"lonely": ["0"]})) == []
    assert [r.id for r in relevant_rules(kb, Observation(kb, {"x": ["1"]}))] == ["r"]


def test_conjoin_event_form(bundled):
    """At one assignment the rule conjunction collapses to the symptom
    meet the first attribute meet the alternative attributes meet the
    diagnosis slice."""
    kb, grounding, obs = bundled
    rules = relevant_rules(kb, obs)
    assignment = {"a1": "2", "a2": "1", "a3": "3", "b2": "1", "th1": "some"}
    f = conjoin_f(grounding, obs, rules, "pl", assignment)
    y = grounding.values_event("b1", ["106-reddish"])
    eta = grounding.values_event("a1", ["2"]) & (
        grounding.values_event("a2", ["1"]) | grounding.values_event("a3", ["3"]))
    assert f == y & eta & grounding.values_event("th1", ["some"])


def test_conjoin_conditional_form(bundled):
    kb, grounding, obs = bundled
    rules = relevant_rules(kb, obs)
    assignment = {"a1": "2", "a2": "1", "a3": "3", "b2": "1", "th1": "some"}
    event_form = conjoin_f(grounding, obs, rules, "pl", assignment)
    cond_form = conjoin_f(grounding, obs, rules, "cpl", assignment)
    assert cond_form.consequent == event_form & cond_form.antecedent


def test_conjoin_single_rule_vacuous_antecedent():
    # a rule whose antecedent covers the whole space contributes only
    # its consequent to the conjunction
    kb = kb_from_json({
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]},
        ],
        "rules": [{"id": "r", "if": {"var": "x", "vals": ["0", "1"]},
                   "then": {"var": "d"}}],
    })
    grounding = build_space(kb)
    assert grounding.space.atom_count == 4
    obs = Observation(kb, {"x": ["0"]})
    rules = relevant_rules(kb, obs)
    y = grounding.values_event("x", ["0"])
    f = conjoin_f(grounding, obs, rules, "pl", {"d": "p"})
    assert f == y & grounding.values_event("d", ["p"])


def test_conjoin_requires_complete_assignment(bundled):
    kb, grounding, obs = bundled
    rules = relevant_rules(kb, obs)
    with pytest.raises(KnowledgeBaseError):
        conjoin_f(grounding, obs, rules, "pl", {"a1": "1"})


def test_integrate_out_event_identity(bundled):
    """The integrated-out event is the symptom meet the diagnosis slice
    meet the domain-join factor, computed here independently."""
    kb, grounding, obs = bundled
    y = grounding.values_event("b1", ["106-reddish"])

    def dom_join(var):
        decl = kb.variable(var)
        return reduce(lambda x, z: x | z,
                      (grounding.values_event(var, [v]) for v in decl.domain))

    eta0 = dom_join("a1") & (dom_join("a2") | dom_join("a3"))
    for value in kb.variable("th1").domain:
        expected = eta0 & grounding.values_event("th1", [value]) & y
        assert integrate_out(grounding, obs, "pl", "th1", value) == expected
        assert integrate_out(grounding, obs, "cl", "th1", value) == expected


def test_integrate_out_conditional_parallels_event(bundled):
    kb, grounding, obs = bundled
    for value in kb.variable("th1").domain:
        event_form = integrate_out(grounding, obs, "pl", "th1", value)
        cond_form = integrate_out(grounding, obs, "cpl", "th1", value)
        assert cond_form.consequent == event_form


def test_integrate_out_rule_order_irrelevant(bundled):
    from cea.engine import KnowledgeBase

    kb, grounding, obs = bundled
    kb_rev = KnowledgeBase(kb.variables, list(reversed(kb.rules)))
    grounding_rev = build_space(kb_rev)
    obs_rev = observation_from_json(kb_rev, {"observe": {"b1": ["106-reddish"]}})
    for value in ("none", "some"):
        assert (integrate_out(grounding_rev, obs_rev, "cpl", "th1", value)
                == integrate_out(grounding, obs, "cpl", "th1", value))


def test_integrate_out_single_assignment_equals_conjoin():
    data = {
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "w", "kind": "auxiliary-attribute", "domain": ["only"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]},
        ],
        "rules": [
            {"id": "r", "if": {"op": "and", "args": [{"var": "x"}, {"var": "w"}]},
             "then": {"var": "d"}},
        ],
    }
    kb = kb_from_json(data)
    grounding = build_space(kb)
    obs = Observation(kb, {"x": ["0"]})
    rules = relevant_rules(kb, obs)
    direct = conjoin_f(grounding, obs, rules, "pl", {"w": "only", "d": "p"})
    assert integrate_out(grounding, obs, "pl", "d", "p") == direct


def test_query_must_be_diagnosis(bundled):
    kb, grounding, obs = bundled
    with pytest.raises(KnowledgeBaseError):
        integrate_out(grounding, obs, "pl", "a1", "1")
    with pytest.raises(KnowledgeBaseError):
        integrate_out(grounding, obs, "pl", "th1", "nonsense")


def test_evaluate_probability_logics(bundled):
    kb, grounding, obs = bundled
    p = ProbabilityMeasure.uniform(grounding.space)
    pl_rows = evaluate(grounding, obs, "pl", "th1", p)
    cpl_rows = evaluate(grounding, obs, "cpl", "th1", p)
    for pl_row, cpl_row in zip(pl_rows, cpl_rows):
        assert pl_row.grade == Fraction(1, 6)
        # the bundled antecedent covers the space, so the logics agree
        assert cpl_row.grade == pl_row.grade


def test_evaluate_classical_matches_point_mass(bundled):
    kb, grounding, obs = bundled
    for idx in (0, 111, 485):
        weights = [Fraction(0)] * grounding.space.atom_count
        weights[idx] = Fraction(1)
        point_mass = ProbabilityMeasure(grounding.space, weights)
        cl_rows = evaluate(grounding, obs, "cl", "th1", idx)
        pl_rows = evaluate(grounding, obs, "pl", "th1", point_mass)
        for cl_row, pl_row in zip(cl_rows, pl_rows):
            assert cl_row.grade in (0, 1)
            assert Fraction(cl_row.grade) == pl_row.grade


def test_evaluate_fuzzy_tiny_kb():
    kb = kb_from_json({
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q"]},
        ],
        "rules": [{"id": "r", "if": {"var": "x"}, "then": {"var": "d"}}],
    })
    grounding = build_space(kb)
    obs = Observation(kb, {"x": ["0"]})
    poss = PossibilityAssignment({("x", "0"): 0.6, ("d", "p"): 0.3, ("d", "q"): 0.9})
    rows = evaluate(grounding, obs, "fl", "d", poss)
    # min(symptom, max(1 - symptom, diagnosis))
    assert rows[0].value == "p" and rows[0].grade == pytest.approx(0.4)
    assert rows[1].value == "q" and rows[1].grade == pytest.approx(0.6)


def test_evaluate_fuzzy_bundled(bundled):
    kb, grounding, obs = bundled
    grades = {}
    for var in kb.variables:
        for val in var.domain:
            grades[(var.name, val)] = 0.5
    grades[("b1", "106-reddish")] = 0.9
    rows = evaluate(grounding, obs, "fl", "th1", PossibilityAssignment(grades))
    for row in rows:
        assert 0.0 <= row.grade <= 1.0


def test_evaluate_undefined_conditional_reported_per_value():
    kb = kb_from_json(TINY_KB)
    grounding = build_space(kb)
    obs = Observation(kb, {"x": ["0"]})
    p = measure_from_json(grounding.space, {"atoms": {"x=0,d=q": 1}})
    rows = evaluate(grounding, obs, "cpl", "d", p)
    by_value = {r.value: r for r in rows}
    assert by_value["p"].error == "undefined"
    assert by_value["q"].grade == 1


def test_evidence_growth_grows_antecedent(bundled):
    kb, grounding, _ = bundled
    narrow = Observation(kb, {"b1": ["106-reddish"]})
    wide = Observation(kb, {"b1": ["106-reddish", "98-normal"]})
    for value in kb.variable("th1").domain:
        small = integrate_out(grounding, narrow, "cpl", "th1", value)
        large = integrate_out(grounding, wide, "cpl", "th1", value)
        assert small.antecedent <= large.antecedent


def _seeded_poss(kb):
    rng = random.Random("poss")
    return PossibilityAssignment({(v.name, val): rng.random()
                                  for v in kb.variables for val in v.domain})


def _assert_oracle_form(grounding, obs, aldp, query, value, poss):
    got = integrate_out(grounding, obs, aldp, query, value)
    want = enumerate_integrate_out(grounding, obs, aldp, query, value)
    if aldp == "fl":
        assert fl_eval(poss, got) == fl_eval(poss, want)
    else:
        assert got == want


def test_stored_forms_never_go_stale(bundled):
    """One grounding serves interleaved logics, query values in reverse
    and two observations of different width; every call matches the
    enumerating oracle."""
    kb, grounding, _ = bundled
    poss = _seeded_poss(kb)
    narrow = Observation(kb, {"b1": ["106-reddish"]})
    wide = Observation(kb, {"b1": ["106-reddish", "98-normal"]})
    for value in reversed(kb.variable("th1").domain):
        for aldp in ("cl", "fl", "pl", "cpl"):
            for obs in (narrow, wide, narrow):
                _assert_oracle_form(grounding, obs, aldp, "th1", value, poss)


def test_observed_query_gets_one_form_for_every_value(bundled):
    kb, grounding, _ = bundled
    poss = _seeded_poss(kb)
    obs = Observation(kb, {"b1": ["106-reddish"], "th1": ["some", "prog"]})
    for aldp in ("cl", "fl", "pl", "cpl"):
        forms = [integrate_out(grounding, obs, aldp, "th1", value)
                 for value in kb.variable("th1").domain]
        if aldp == "fl":
            forms = [fl_eval(poss, form) for form in forms]
        assert forms[1:] == forms[:-1]
        for value in kb.variable("th1").domain:
            _assert_oracle_form(grounding, obs, aldp, "th1", value, poss)


def test_rules_that_never_name_the_query():
    kb = kb_from_json({
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "a", "kind": "auxiliary-attribute", "domain": ["1", "2", "3"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q", "r"]},
        ],
        "rules": [{"id": "r", "if": {"var": "x"}, "then": {"var": "a", "vals": ["1", "2"]}},
                  {"id": "s", "if": {"var": "a"}, "then": {"var": "d", "vals": ["q"]}}],
    })
    grounding = build_space(kb)
    obs = Observation(kb, {"x": ["1"]})
    assert all("d" not in r.free_variables for r in relevant_rules(kb, obs))
    poss = _seeded_poss(kb)
    for aldp in ("cl", "fl", "pl", "cpl"):
        for value in ("r", "p", "q"):
            _assert_oracle_form(grounding, obs, aldp, "d", value, poss)


def test_elimination_knows_only_the_free_unobserved_variables(monkeypatch):
    """Fired rules name w only in bound leaves, and the query d is free
    in no rule: the elimination's variables are exactly the free,
    unobserved ones (a alone), and every form is still the enumerating
    oracle's, which sweeps every unobserved variable the rules mention."""
    w1 = {"var": "w", "vals": ["1"]}
    kb = kb_from_json({
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "w", "kind": "auxiliary-attribute", "domain": ["1", "2", "3"]},
            {"name": "a", "kind": "auxiliary-attribute", "domain": ["1", "2", "3"]},
            {"name": "d", "kind": "diagnosis", "domain": ["p", "q", "r"]},
        ],
        "rules": [
            {"id": "r", "if": {"var": "x"}, "then": {"op": "or", "args": [{"var": "a"}, w1]}},
            {"id": "s", "if": {"op": "and", "args": [{"var": "a", "vals": ["2", "3"]}, w1]},
             "then": {"var": "d", "vals": ["q"]}},
            {"id": "t", "if": {"var": "a"}, "then": {"var": "d", "vals": ["p", "r"]}},
        ],
    })
    grounding = build_space(kb)
    obs = Observation(kb, {"x": ["1"]})
    assert [r.id for r in relevant_rules(kb, obs)] == ["r", "s", "t"]
    seen = []

    def recording(scopes, domains, keep=None):
        seen.append(dict(domains))
        return order(scopes, domains, keep)

    order = engine.elimination_order
    monkeypatch.setattr(engine, "elimination_order", recording)
    poss = _seeded_poss(kb)
    for aldp in ("cl", "pl", "cpl", "fl"):
        for value in ("p", "q", "r"):
            _assert_oracle_form(grounding, obs, aldp, "d", value, poss)
    assert seen == [{"a": ["1", "2", "3"]}] * 4


def test_refused_call_leaves_nothing_behind(bundled, monkeypatch):
    kb, grounding, obs = bundled
    poss = _seeded_poss(kb)
    integrate_out(grounding, obs, "pl", "th1", "none")
    with pytest.raises(KnowledgeBaseError, match="not a diagnosis"):
        integrate_out(grounding, obs, "cpl", "a1", "1")
    _assert_oracle_form(grounding, obs, "cpl", "th1", "some", poss)
    with pytest.raises(KnowledgeBaseError, match="not in the domain"):
        integrate_out(grounding, obs, "fl", "th1", "nonsense")
    _assert_oracle_form(grounding, obs, "fl", "th1", "prog", poss)
    monkeypatch.setattr(engine, "MAX_ELIMINATION_TABLE", 26)
    with pytest.raises(KnowledgeBaseError, match="table of 27 entries"):
        integrate_out(grounding, obs, "pl", "th1", "none")
    monkeypatch.undo()
    _assert_oracle_form(grounding, obs, "pl", "th1", "none", poss)


def test_kb_validation_errors():
    with pytest.raises(KnowledgeBaseError):
        kb_from_json({"variables": [], "rules": []})
    with pytest.raises(KnowledgeBaseError):
        kb_from_json({
            "variables": [{"name": "x", "kind": "weird", "domain": ["0"]}],
            "rules": [],
        })
    with pytest.raises(KnowledgeBaseError):
        kb_from_json({
            "variables": [{"name": "x", "kind": "data-attribute", "domain": ["0"]}],
            "rules": [{"id": "r", "if": {"var": "ghost"}, "then": {"var": "x"}}],
        })
    with pytest.raises(KnowledgeBaseError):
        kb_from_json({
            "variables": [{"name": "x", "kind": "data-attribute", "domain": ["0"]}],
            "rules": [
                {"id": "r", "if": {"var": "x"}, "then": {"var": "x"}},
                {"id": "r", "if": {"var": "x"}, "then": {"var": "x"}},
            ],
        })
    # a bound leaf value outside the domain is refused at load, even in a
    # rule that never fires, naming the rule, the variable and the value
    with pytest.raises(KnowledgeBaseError,
                       match=r"^rule r binds x to 'nope', not in its domain$"):
        kb_from_json({
            "variables": [{"name": "x", "kind": "data-attribute", "domain": ["0"]}],
            "rules": [{"id": "r", "if": {"op": "not", "args": [{"var": "x"}]},
                       "then": {"var": "x", "vals": ["0", "nope"]}}],
        })
    kb = kb_from_json(TINY_KB)
    with pytest.raises(KnowledgeBaseError):
        observation_from_json(kb, {"observe": {"x": ["7"]}})
    with pytest.raises(KnowledgeBaseError):
        observation_from_json(kb, {"observe": {}})
    with pytest.raises(KnowledgeBaseError):
        observation_from_json(kb, {})
    with pytest.raises(KnowledgeBaseError):
        observation_from_json(kb, {"observe": ["x"]})


class CountingStr(str):
    """A domain value that counts the == comparisons made against it."""
    __hash__ = str.__hash__
    compared = 0

    def __eq__(self, other):
        CountingStr.compared += 1
        return str.__eq__(self, other)


def test_rule_values_are_checked_against_their_domain_in_linear_time():
    """A rule leaf that lists all d values of its variable is checked
    with O(d) value comparisons, not one domain scan per value."""
    d = 2000
    data = {
        "variables": [{"name": "x", "kind": "data-attribute",
                       "domain": [CountingStr(f"v{i}") for i in range(d)]}],
        "rules": [{"id": "r", "if": {"var": "x", "vals": [f"v{i}" for i in range(d)]},
                   "then": {"var": "x"}}],
    }
    CountingStr.compared = 0
    kb = kb_from_json(data)
    assert CountingStr.compared < 10 * d
    assert [r.id for r in kb.rules] == ["r"]


def test_factor_values_are_checked_against_their_domain_in_linear_time():
    """A factor over a d-value domain is checked with O(d) value
    comparisons, not one domain scan per value."""
    d = 2000
    domain = [CountingStr(f"v{i}") for i in range(d)]
    data = {"factors": {"x": {f"v{i}": f"1/{d}" for i in range(d)}}}
    CountingStr.compared = 0
    p = measure_from_json(AtomSpace(d), data, [("x", domain)])
    assert CountingStr.compared < 10 * d
    assert p(AtomSpace(d).event([d - 1])) == Fraction(1, d)


def reference_primitive_masks(kb):
    """The reference primitive table, by division and multiplication: in
    product order a variable with d values and stride s holds value j on
    a block of s atoms at offset j*s of every period of d*s atoms, and
    multiplying the block by the full mask over 2**period - 1 tiles it."""
    atoms = math.prod(len(v.domain) for v in kb.variables)
    full = (1 << atoms) - 1
    table = {}
    stride = atoms
    for var in kb.variables:
        stride //= len(var.domain)
        period = len(var.domain) * stride
        repeat = full // ((1 << period) - 1)
        block = (1 << stride) - 1
        for j, val in enumerate(var.domain):
            table[(var.name, val)] = (block << (j * stride)) * repeat
    return table


def scan_primitive_masks(kb):
    """The primitive table read off the atom scan: atom i joins the mask
    of every (var, value) its assignment holds."""
    masks = dict.fromkeys(((v.name, val) for v in kb.variables for val in v.domain), 0)
    for i, assignment in enumerate(scan_assignments(kb)):
        for key in assignment.items():
            masks[key] |= 1 << i
    return masks


def _sized_kb(sizes):
    """A KB of one variable per domain size, the last a diagnosis."""
    kinds = ["data-attribute"] * (len(sizes) - 1) + ["diagnosis"]
    return kb_from_json({"variables": [
        {"name": f"v{i}", "kind": kind, "domain": [f"{i}.{j}" for j in range(d)]}
        for i, (kind, d) in enumerate(zip(kinds, sizes))], "rules": []})


def _seeded_domain_sizes(count):
    """count lists of 1 to 6 domain sizes, 1 to 6 each, of at most 4,096
    atoms; every fourth list from the second on has a 1-value domain
    first, then in the middle, then last, in turn."""
    lists = []
    for seed in range(count):
        rng = random.Random(f"primitive-{seed}")
        while True:
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
            if math.prod(sizes) <= 4096:
                break
        if seed % 4:
            sizes[[0, len(sizes) // 2, -1][seed % 4 - 1]] = 1
        lists.append(sizes)
    return lists


def test_primitive_masks_match_atom_scan(bundled):
    three = kb_from_json({
        "variables": [
            {"name": "u", "kind": "data-attribute", "domain": ["0", "1"]},
            {"name": "v", "kind": "auxiliary-attribute", "domain": ["a", "b", "c", "d"]},
            {"name": "w", "kind": "diagnosis", "domain": ["x", "y", "z"]},
        ],
        "rules": [],
    })
    sizes = _seeded_domain_sizes(300)
    for place in (lambda s: 0, lambda s: len(s) // 2, lambda s: len(s) - 1):
        assert any(len(s) > 2 and s[place(s)] == 1 and s.count(1) == 1 for s in sizes)
    # names with "," build their labels up front
    comma = _two_variable_kb(["a", "a,y=d"], ["b,y=c", "c"])
    kbs = [bundled[0], three, comma] + [chain_kb(k) for k in range(1, 8)]
    for kb in kbs + [_sized_kb(s) for s in sizes]:
        grounding = build_space(kb)
        assert grounding._primitive == reference_primitive_masks(kb)
        assert grounding._primitive == scan_primitive_masks(kb)
        for (var, val), mask in grounding._primitive.items():
            assert grounding.values_event(var, [val]).mask == mask


class _TableBuilt(Exception):
    """Raised in place of building the atom space: the budget let it by."""


def _refuse_tables(atom_count, labels):
    raise _TableBuilt


def test_an_over_budget_primitive_table_is_refused_up_front(monkeypatch):
    """A 65,537-value variable passes MAX_SPACE_ATOMS, but its table
    would need 65,537 masks of 65,537 bits. No table is ever built here:
    a space that passes the budget raises _TableBuilt instead."""
    monkeypatch.setattr(engine, "AtomSpace", _refuse_tables)
    tracemalloc.start()
    with pytest.raises(KnowledgeBaseError) as refused:
        build_space(_sized_kb([65537]))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert str(refused.value) == ("primitive table of 65537 atoms x 65537 values exceeds"
                                  " the bound of 4294967296 bits")
    assert peak < 32 << 20
    # at the bound, and a 40,000-value variable, whose table peaked at 124.7 MB
    for sizes in ([65536], [40000], [40000, 2]):
        with pytest.raises(_TableBuilt):
            build_space(_sized_kb(sizes))
    # the atom bound is checked first
    with pytest.raises(KnowledgeBaseError, match="^joint domain product exceeds the space"):
        build_space(_sized_kb([5000, 300]))


def test_primitive_bound_is_exact(monkeypatch):
    """2 x 3 atoms and 5 values: a table of 30 bits."""
    kb = _sized_kb([2, 3])
    monkeypatch.setattr(engine, "MAX_PRIMITIVE_BITS", 30)
    assert build_space(kb)._primitive == reference_primitive_masks(kb)
    monkeypatch.setattr(engine, "MAX_PRIMITIVE_BITS", 29)
    with pytest.raises(KnowledgeBaseError, match="^primitive table of 6 atoms x 5 values"
                                                 " exceeds the bound of 29 bits$"):
        build_space(kb)


def test_elimination_order_is_greedy_with_declaration_ties(bundled):
    kb, _, obs = bundled
    rules = relevant_rules(kb, obs)
    free = set().union(*(r.free_variables for r in rules)) - set(obs.observed) - {"th1"}
    domains = {v.name: v.domain for v in kb.variables if v.name in free}
    scopes = [tuple(v for v in domains if v in r.free_variables) for r in rules]
    assert scopes == [("a1",), ("a2", "a3", "b2"), ("b2",), ("a1", "a2")]
    # a1 leaves a 3-entry table; then a2, a3 and b2 each leave 9 and a2
    # comes first; the joint table over a2, a3, b2 is the largest
    assert elimination_order(scopes, domains) == (["a1", "a2", "a3", "b2"], 27)
    assert elimination_order([(), ()], domains) == ([], 1)


def chain_kb(k):
    path = ["b1"] + [f"a{i}" for i in range(k)] + ["th"]
    variables = [{"name": "b1", "kind": "data-attribute", "domain": ["x", "y"]}]
    variables += [{"name": a, "kind": "auxiliary-attribute", "domain": ["1", "2", "3"]}
                  for a in path[1:-1]]
    variables.append({"name": "th", "kind": "diagnosis", "domain": ["t0", "t1", "t2"]})
    rules = [{"id": f"r{i}", "if": {"var": src}, "then": {"var": dst}}
             for i, (src, dst) in enumerate(zip(path, path[1:]))]
    return kb_from_json({"variables": variables, "rules": rules})


SNAPSHOT_DIR = os.path.join(os.path.dirname(__file__), "snapshots")


def bound_case(name):
    """(kb, obs, query) of a snapshot input whose rules bind values:
    "fever_bound", the bundled KB's rules with some leaves bound, under
    the bundled observation, or "chain6_bound", chain KB(6) with b1[x]
    as its first antecedent and a1, a3 and a5 bound to 1 or 2 as
    consequents, under b1 = x."""
    with open(os.path.join(SNAPSHOT_DIR, f"{name}_kb.json"), encoding="utf-8") as fh:
        kb = kb_from_json(json.load(fh))
    if name == "fever_bound":
        return kb, load_bundled_observation(kb), "th1"
    return kb, Observation(kb, {"b1": ["x"]}), "th"


@pytest.mark.parametrize("name", ["fever_bound", "chain6_bound"])
def test_bound_inputs_grade_rules_that_matter(name):
    """The bound_ snapshots pin how each logic reads a rule only while
    their rules are not vacuous under the join: for some query value the
    pl form is not y & q[t], and under the uniform measure the pl grade
    (of b' | a) differs from the cpl grade (of (a|b))."""
    kb, obs, query = bound_case(name)
    grounding = build_space(kb)
    y = reduce(lambda m, item: m & grounding.values_mask(*item), obs.observed.items(),
               grounding.space.full_mask)
    uniform = ProbabilityMeasure.uniform(grounding.space)
    rows = zip(kb.variable(query).domain, evaluate(grounding, obs, "pl", query, uniform),
               evaluate(grounding, obs, "cpl", query, uniform))
    assert any(integrate_out(grounding, obs, "pl", query, value).mask
               != y & grounding.values_mask(query, [value]) and pl.grade != cpl.grade
               for value, pl, cpl in rows)


def _random_formula(rng, variables, depth):
    if depth == 0 or rng.random() < 0.35:
        var = rng.choice(variables)
        if rng.random() < 0.5:
            return {"var": var["name"]}
        size = rng.randint(1, len(var["domain"]))
        return {"var": var["name"], "vals": rng.sample(var["domain"], size)}
    op = rng.choice(["and", "or", "not", "implies"])
    arity = {"not": 1, "implies": 2}.get(op, rng.randint(2, 3))
    return {"op": op, "args": [_random_formula(rng, variables, depth - 1)
                               for _ in range(arity)]}


def _random_case(rng):
    """A KB of 3 to 5 variables with 1 to 3 values each, 1 to 4 random
    rules over all of them (the diagnosis included), an observation of
    one or two variables with any nonempty value subsets, and a seeded
    possibility assignment."""
    n = rng.randint(3, 5)
    kinds = ["data-attribute"] + [rng.choice(["data-attribute", "auxiliary-attribute"])
                                  for _ in range(n - 2)] + ["diagnosis"]
    variables = [{"name": f"v{i}", "kind": kind,
                  "domain": [f"{i}{j}" for j in range(rng.randint(1, 3))]}
                 for i, kind in enumerate(kinds)]
    variables[-1]["domain"] = ["p", "q", "r"][:rng.randint(2, 3)]
    rules = [{"id": f"r{i}", "if": _random_formula(rng, variables, 2),
              "then": _random_formula(rng, variables, 2)}
             for i in range(rng.randint(1, 4))]
    kb = kb_from_json({"variables": variables, "rules": rules})
    observed = [variables[0]] + rng.sample(variables[1:], rng.randint(0, 1))
    obs = Observation(kb, {v["name"]: rng.sample(v["domain"], rng.randint(1, len(v["domain"])))
                           for v in observed})
    poss = PossibilityAssignment({(v["name"], val): rng.random()
                                  for v in variables for val in v["domain"]})
    return kb, obs, poss


def _assert_same_integration(kb, obs, poss):
    grounding = build_space(kb)
    query = kb.diagnosis_variables()[0].name
    for value in kb.variable(query).domain:
        for aldp in ("cl", "pl", "cpl"):
            assert (integrate_out(grounding, obs, aldp, query, value)
                    == enumerate_integrate_out(grounding, obs, aldp, query, value))
        assert (fl_eval(poss, integrate_out(grounding, obs, "fl", query, value))
                == fl_eval(poss, enumerate_integrate_out(grounding, obs, "fl", query, value)))


def test_elimination_matches_enumeration_on_random_kbs():
    rng = random.Random(20130410)
    for _ in range(80):
        _assert_same_integration(*_random_case(rng))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_elimination_matches_enumeration_on_chains(k):
    kb = chain_kb(k)
    rng = random.Random(k)
    poss = PossibilityAssignment({(v.name, val): rng.random()
                                  for v in kb.variables for val in v.domain})
    _assert_same_integration(kb, Observation(kb, {"b1": ["x"]}), poss)


def _random_scopes(rng):
    """Domains of 0 to 7 variables with 1 to 4 values, and 0 to 6
    scopes over them: some empty, some repeated, some naming a variable
    twice; `keep` is a scoped variable, an unscoped one, a name outside
    the domains, or None."""
    names = [f"v{i}" for i in range(rng.randint(0, 7))]
    domains = {v: [str(j) for j in range(rng.randint(1, 4))] for v in names}
    scopes = []
    for _ in range(rng.randint(0, 6)):
        if scopes and rng.random() < 0.2:
            scopes.append(rng.choice(scopes))
        else:
            scopes.append(tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
                          if names else ())
    scoped = sorted({v for s in scopes for v in s})
    unscoped = [v for v in names if v not in scoped]
    keep = rng.choice([rng.choice(scoped) if scoped else None,
                       rng.choice(unscoped) if unscoped else None, "elsewhere", None])
    return scopes, domains, keep


def test_elimination_order_matches_the_per_step_reference_on_random_scopes():
    rng = random.Random("elimination-order")
    kept = set()
    for _ in range(12000):
        scopes, domains, keep = _random_scopes(rng)
        assert (elimination_order(scopes, domains, keep=keep)
                == reference_elimination_order(scopes, domains, keep=keep))
        kept.add("inside" if any(keep in s for s in scopes) else
                 "absent" if keep is None else "outside")
    assert kept == {"inside", "outside", "absent"}


def _engine_cases():
    """(kb, obs, query) of the 80 random KBs, the bundled KB, chain
    KB(3) to KB(6) under b1 = x, and both bound-value inputs."""
    rng = random.Random(20130410)
    for _ in range(80):
        kb, obs, _ = _random_case(rng)
        yield kb, obs, kb.diagnosis_variables()[0].name
    kb = load_bundled_kb()
    yield kb, load_bundled_observation(kb), "th1"
    for k in (3, 4, 5, 6):
        kb = chain_kb(k)
        yield kb, Observation(kb, {"b1": ["x"]}), "th"
    yield bound_case("fever_bound")
    yield bound_case("chain6_bound")


def test_elimination_order_matches_the_per_step_reference_on_every_query(monkeypatch):
    """Every order `_query_forms` plans, under every logic, is the
    reference's."""
    calls = []

    def checked(scopes, domains, keep=None):
        got = order(scopes, domains, keep=keep)
        assert got == reference_elimination_order(scopes, domains, keep=keep)
        calls.append(got)
        return got

    order = engine.elimination_order
    monkeypatch.setattr(engine, "elimination_order", checked)
    cases = list(_engine_cases())
    for kb, obs, query in cases:
        grounding = build_space(kb)
        for aldp in ("cl", "pl", "cpl", "fl"):
            engine._query_forms(grounding, obs, aldp, kb.variable(query))
    assert len(calls) == 4 * len(cases)
    assert sum(len(o) for o, _ in calls) > len(calls)


def test_pl_form_is_the_upper_bound_of_the_cpl_form():
    """pl reads a rule as b' | a, the upper bound of cpl's (a|b), and the
    conditional meet and join act bound by bound: so each query value's
    pl form is cons | ~ant of its cpl form."""
    values = 0
    for kb, obs, query in _engine_cases():
        grounding = build_space(kb)
        full = grounding.space.full_mask
        for value in kb.variable(query).domain:
            pl = integrate_out(grounding, obs, "pl", query, value)
            cpl = integrate_out(grounding, obs, "cpl", query, value)
            assert pl.mask == cpl.cons | (full & ~cpl.ant)
            values += 1
    assert values > 200


class CountingPossibility(PossibilityAssignment):
    calls = 0

    def grade(self, var, value):
        self.calls += 1
        return super().grade(var, value)


@pytest.mark.parametrize("case", ["bundled", "chain"])
def test_one_fold_pass_grades_every_value_as_fresh_ones(case):
    """The fl forms of one query share sub-trees. Graded as one tuple,
    each gets the grade it gets alone, and each distinct leaf is read
    once over all of them, as one call on their disjunction reads it."""
    if case == "bundled":
        kb = load_bundled_kb()
        obs = load_bundled_observation(kb)
    else:
        kb = chain_kb(5)
        obs = Observation(kb, {"b1": ["x"]})
    grounding = build_space(kb)
    query = kb.diagnosis_variables()[0]
    rng = random.Random(case)
    grades = {(v.name, val): rng.random() for v in kb.variables for val in v.domain}
    forms = [integrate_out(grounding, obs, "fl", query.name, value) for value in query.domain]
    together = CountingPossibility(grades)
    assert fl_eval(together, tuple(forms)) == tuple(
        fl_eval(PossibilityAssignment(grades), form) for form in forms)
    once = CountingPossibility(grades)
    fl_eval(once, Or(forms))
    assert together.calls == once.calls


def test_fl_evaluation_keeps_nothing_across_calls():
    """One possibility assignment grading fresh groundings, call after
    call, holds on to none of their formula nodes."""
    kb = load_bundled_kb()
    obs = load_bundled_observation(kb)
    rng = random.Random("leak")
    poss = PossibilityAssignment({(v.name, val): rng.random()
                                  for v in kb.variables for val in v.domain})

    def run():
        evaluate(build_space(kb), obs, "fl", "th1", poss)

    run()  # warm-up: caches and interned objects that outlive a call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            run()
        # a full collection empties the interpreter's free lists (tuples
        # from itertools.product fill them), which would count as kept
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 100_000


def _side_groundings(monkeypatch, kb, obs, aldp, query):
    """(side key, entry count) of each call that grounds a rule side in
    one query, in call order: `engine.ground` for cl, pl and cpl (the
    call the tracer counts as `formulas.ground`), `engine.bind_table`
    for fl. The per-assignment oracles, `Grounding.ground_formula` and
    `bind_leaves`, must not run."""
    grounded = []

    def recording(fn):
        def wrapper(f, *args):
            out = fn(f, *args)
            grounded.append((_side_key(f), len(out) if isinstance(out, (tuple, list)) else 1))
            return out
        return wrapper

    def refused(*args):
        raise AssertionError("a rule side was grounded at one assignment")

    monkeypatch.setattr(engine, "ground", recording(engine.ground))
    monkeypatch.setattr(engine, "bind_table", recording(engine.bind_table))
    monkeypatch.setattr(engine, "bind_leaves", refused)
    monkeypatch.setattr(engine.Grounding, "ground_formula", refused)
    integrate_out(build_space(kb), obs, aldp, query, kb.variable(query).domain[0])
    return grounded


@pytest.mark.parametrize("aldp", ["cl", "pl", "cpl", "fl"])
def test_each_rule_side_is_grounded_once_per_assignment_of_its_own_variables(
        bundled, monkeypatch, aldp):
    """On the bundled KB a query grounds its 7 distinct rule sides with
    one call each, and each call is a table of the side at every
    assignment of its own free, unobserved variables: 1 + 3 for
    b1 => a1, 3 + 9 for b1 | b2 => a2 | a3, 3 + 3 for b2 => th1 and 9
    for a1 | a2 => th1, whose consequent, the lone leaf th1, is keyed by
    content and so is b2 => th1's. That is 31 (side, assignment)
    entries, each grounded once; grounding both sides at every one of
    the 66 rule-table entries would take 132."""
    kb, _, obs = bundled
    grounded = _side_groundings(monkeypatch, kb, obs, aldp, "th1")
    assert len(grounded) == len({key for key, _ in grounded}) == 7
    assert [n for _, n in grounded] == [1, 3, 3, 9, 3, 3, 9]


def _first_need_sides(kb, obs):
    """The reference grounding order: rule by rule, its antecedent then
    its consequent, each side's key (a lone leaf by its (var, vals), any
    other side by identity) the first time a rule needs it."""
    seen = []
    for rule in relevant_rules(kb, obs):
        for f in (rule.antecedent, rule.consequent):
            if _side_key(f) not in seen:
                seen.append(_side_key(f))
    return seen


def _side_key(f):
    return (f.var, f.vals) if isinstance(f, Leaf) else f


@pytest.mark.parametrize("aldp", ["cl", "pl", "cpl", "fl"])
@pytest.mark.parametrize("case", ["bundled", "chain6"])
def test_rule_sides_are_grounded_in_first_need_order(bundled, monkeypatch, case, aldp):
    """One query grounds each distinct side once, as one table, in the
    order the rules first need them: the order that fixes
    `formulas.ground_calls` and the node order of fl's forms. Chain
    KB(6) has 8 distinct sides, the lone leaves b1, a0 to a5 and th."""
    if case == "bundled":
        kb, _, obs = bundled
        query = "th1"
    else:
        kb, query = chain_kb(6), "th"
        obs = Observation(kb, {"b1": ["x"]})
    grounded = [key for key, _ in _side_groundings(monkeypatch, kb, obs, aldp, query)]
    assert grounded == _first_need_sides(kb, obs)
    assert len(grounded) == (7 if case == "bundled" else 8)


def _shared_side_kb(rules):
    variables = [VariableDecl("x", "data-attribute", ["0", "1"]),
                 VariableDecl("a", "auxiliary-attribute", ["1", "2", "3"]),
                 VariableDecl("b", "auxiliary-attribute", ["1", "2"]),
                 VariableDecl("d", "diagnosis", ["p", "q", "r"])]
    return KnowledgeBase(variables, rules)


def test_shared_rule_sides_match_enumeration():
    """Python API rules may hold one Formula object twice: as both sides
    of a rule, or as a side of two rules (once as a consequent, once as
    an antecedent). Each still grades as the enumerating oracle does."""
    both = Or([Leaf("a", ["1"]), Not(Leaf("d"))])
    shared = And([Leaf("a"), Not(Leaf("b", ["1"])), Leaf("x")])
    kbs = [
        _shared_side_kb([Rule("r", both, both), Rule("s", Leaf("x"), Leaf("a"))]),
        _shared_side_kb([Rule("r", Leaf("x"), shared), Rule("s", shared, Leaf("d")),
                         Rule("t", shared, Or([Leaf("b"), Leaf("d", ["q"])]))]),
    ]
    rng = random.Random("shared")
    for kb in kbs:
        poss = PossibilityAssignment({(v.name, val): rng.random()
                                      for v in kb.variables for val in v.domain})
        for observed in ({"x": ["1"]}, {"x": ["0", "1"], "d": ["q", "r"]}):
            _assert_same_integration(kb, Observation(kb, observed), poss)


def _own_domains(kb, obs, f):
    """The free variables of f that obs leaves open, in declaration
    order, each with its domain."""
    own = _free_variables(f) - set(obs.observed)
    return {v.name: v.domain for v in kb.variables if v.name in own}


def test_mask_grounding_matches_event_grounding(bundled):
    """Every entry of a side table is the side grounded at that entry's
    assignment: ground_table's is ground_formula's mask, and
    bind_table's tree has the JSON form of bind_leaves through
    leaf_values. On every rule side of 80 random KBs, whose sides nest
    not and implies (where ~ on an int goes negative), of the bundled KB
    and of both bound_ snapshot inputs; a primitive the space does not
    hold is refused as ground_formula refuses it."""
    rng = random.Random(20130410)
    cases = [_random_case(rng)[:2] for _ in range(80)] + [(bundled[0], bundled[2])]
    cases += [bound_case(name)[:2] for name in ("fever_bound", "chain6_bound")]
    entries = 0
    for kb, obs in cases:
        grounding = build_space(kb)
        for rule in kb.rules:
            for f in (rule.antecedent, rule.consequent):
                own = _own_domains(kb, obs, f)
                masks = grounding.ground_table(f, obs, own)
                trees = engine.bind_table(f, obs, own)
                combos = list(itertools.product(*own.values()))
                assert len(masks) == len(trees) == len(combos)
                for mask, tree, combo in zip(masks, trees, combos):
                    assignment = dict(zip(own, combo))
                    assert mask == grounding.ground_formula(f, obs, assignment).mask
                    assert to_json(tree) == to_json(
                        bind_leaves(f, engine.leaf_values(obs, assignment)))
                    entries += 1
    assert entries > 900
    grounding = bundled[1]
    for f in (Leaf("b1", ["nonsense"]), Not(Leaf("zz", ["1"]))):
        for ground in (partial(grounding.ground_table, observation=None, own={}),
                       grounding.ground_formula):
            with pytest.raises(KnowledgeBaseError, match=r"unknown primitive event"):
                ground(f)


def _combine(op, items):
    return items[0] if len(items) == 1 else op(items)


def per_row_eliminate(meet, join, tables, var, domains):
    """The reference bucket step: `_eliminate` one row at a time. meet
    and join take a list of entries; one entry passes through unwrapped.
    Each (scope, entries) table is read through its own combo -> index
    map, built by itertools.product over its scope, at each row's combo
    built by indexing the row. The new table is (scope, {combo: entry}),
    its combos in product order."""
    touching = [t for t in tables if var in t[0]]
    names = {v for scope, _ in touching for v in scope} - {var}
    scope = tuple(v for v in domains if v in names)
    # where each touching table's key lies in a row: a combo, then var's value
    row_scope = scope + (var,)
    keyed = [(tuple(map(row_scope.index, s)),
              {combo: i for i, combo in enumerate(itertools.product(*(domains[v] for v in s)))},
              entries_of) for s, entries_of in touching]
    entries = {}
    for combo in itertools.product(*(domains[v] for v in scope)):
        column = []
        for value in domains[var]:
            row = combo + (value,)
            column.append(_combine(meet, [entries_of[index[tuple(map(row.__getitem__, idx))]]
                                          for idx, index, entries_of in keyed]))
        entries[combo] = _combine(join, column)
    return [t for t in tables if var not in t[0]] + [(scope, entries)]


def _assert_same_sharing(new, old, seen):
    """Walk two equal formulas side by side. seen holds two dicts: by
    id, each node of new met so far to the node of old at its place,
    and each node of old to that of new. So a node shared in one must
    be shared, at the same places, in the other."""
    forth, back = seen
    if id(new) in forth or id(old) in back:
        assert forth.get(id(new)) is old and back.get(id(old)) is new
        return
    forth[id(new)], back[id(old)] = old, new
    if isinstance(new, NaryOp):
        pairs = zip(new.args, old.args)
    elif isinstance(new, Not):
        pairs = [(new.arg, old.arg)]
    elif isinstance(new, Implies):
        pairs = [(new.antecedent, old.antecedent), (new.consequent, old.consequent)]
    else:
        pairs = []
    for a, b in pairs:
        _assert_same_sharing(a, b, seen)


@pytest.mark.parametrize("case", ["random", "chain"])
def test_eliminate_builds_the_per_row_tables(monkeypatch, case):
    """Each bucket step of every query on 80 random KBs, or on chain
    KB(3) to KB(6), builds the table the per-row step builds from the
    same tables: the same scope, one entry per combo in product order,
    equal masks, and fl forms with equal JSON and the same sharing across
    the table. The per-row step meets and joins with And and Or for fl
    and with & and | for the others, not with the lattice's column
    kernels."""
    if case == "random":
        rng = random.Random(20130410)
        cases = [_random_case(rng)[:2] for _ in range(80)]
    else:
        cases = [(kb, Observation(kb, {"b1": ["x"]})) for kb in map(chain_kb, range(3, 7))]
    eliminate = engine._eliminate
    buckets = []
    logic = [None]  # the logic of the query under way

    def checked(meet, join, tables, var, domains):
        out = eliminate(meet, join, tables, var, domains)
        fl = logic[0] == "fl"
        row_ops = (And, Or) if fl else (partial(reduce, and_), partial(reduce, or_))
        expected = per_row_eliminate(*row_ops, tables, var, domains)
        (scope, entries), (expected_scope, expected_entries) = out[-1], expected[-1]
        assert out[:-1] == expected[:-1]
        assert scope == expected_scope
        assert list(expected_entries) == list(itertools.product(*(domains[v] for v in scope)))
        assert len(entries) == len(expected_entries)
        seen = {}, {}
        for form, expected_form in zip(entries, expected_entries.values()):
            if fl:
                assert to_json(form) == to_json(expected_form)
                _assert_same_sharing(form, expected_form, seen)
            else:
                assert form == expected_form
        buckets.append(var)
        return out

    monkeypatch.setattr(engine, "_eliminate", checked)
    for kb, obs in cases:
        grounding = build_space(kb)
        query = kb.diagnosis_variables()[0]
        for aldp in ("cl", "pl", "cpl", "fl"):
            logic[0] = aldp
            engine._query_forms(grounding, obs, aldp, query)
    assert len(buckets) > 4 * len(cases)


def _seeded_tables(rng):
    """(sub, scope, domains): a scope of 0 to 4 variables, with 1 to 3
    values each, and a subset of it in a random order."""
    names = [f"v{i}" for i in range(rng.randint(0, 4))]
    domains = {v: [f"{v}.{j}" for j in range(rng.randint(1, 3))] for v in names}
    scope = tuple(rng.sample(names, len(names)))
    sub = tuple(rng.sample(scope, rng.randint(0, len(scope))))
    return sub, scope, domains


def _enumerated_positions(sub, scope, domains):
    """The oracle: each row of product order over scope, its combo over
    sub looked up in product order over sub."""
    index = {combo: i for i, combo in enumerate(itertools.product(*(domains[v] for v in sub)))}
    return [index[tuple(row[scope.index(v)] for v in sub)]
            for row in itertools.product(*(domains[v] for v in scope))]


def test_positions_match_enumeration_on_seeded_scopes():
    """`_positions`, and `_column` with its repeated reads, read a table
    over sub along the rows of a table over scope where enumeration
    does: on seeded scopes, which hold the empty scope and sub-scope, sub
    equal to the scope and in other orders, 1-value domains, and the
    eliminated variable last, as `_eliminate` orders the rows."""
    rng = random.Random("positions")
    kinds = set()
    for _ in range(3000):
        sub, scope, domains = _seeded_tables(rng)
        # as _eliminate reads it: the rows end in a variable of sub
        last = (*[v for v in scope if v != sub[0]], sub[0]) if sub else scope
        entries = [object() for _ in range(math.prod(len(domains[v]) for v in sub))]
        for rows in (scope, last):
            expected = _enumerated_positions(sub, rows, domains)
            assert len(expected) == math.prod(len(domains[v]) for v in rows)
            assert engine._positions(sub, rows, domains) == expected
            assert engine._column(entries, sub, rows, domains) == [entries[p] for p in expected]
        if sub:
            kinds.add("eliminated last")
        kinds.add("empty scope" if not scope else "empty sub" if not sub else
                  "sub is scope" if sub == scope else "sub reordered" if set(sub) == set(scope)
                  else "proper sub")
        if any(len(d) == 1 for d in domains.values()):
            kinds.add("1-value domain")
    assert kinds == {"empty scope", "empty sub", "sub is scope", "sub reordered", "proper sub",
                     "eliminated last", "1-value domain"}
    assert engine._positions((), (), {}) == [0]


QUERY_FORM_CASES = ("bundled", "chain6", "fever_bound", "chain6_bound")


def _query_form_case(name):
    """(kb, obs, query) of one input of query_forms.json: the bundled KB
    and observation, the chain KB(6) snapshot input under its
    observation b1 = x, or a bound-value input (`bound_case`)."""
    if name == "bundled":
        kb = load_bundled_kb()
        return kb, load_bundled_observation(kb), "th1"
    if name == "chain6":
        with open(os.path.join(SNAPSHOT_DIR, "chain6_kb.json"), encoding="utf-8") as fh:
            kb = kb_from_json(json.load(fh))
        with open(os.path.join(SNAPSHOT_DIR, "chain6_obs.json"), encoding="utf-8") as fh:
            return kb, observation_from_json(kb, json.load(fh)), "th"
    return bound_case(name)


def _form_json(aldp, form):
    """A query form as query_forms.json holds it: cl's and pl's mask in
    hex, cpl's consequent and antecedent masks in hex, fl's tree as
    `to_json`."""
    if aldp == "fl":
        return to_json(form)
    if aldp == "cpl":
        return {"cons": format(form.cons, "x"), "ant": format(form.ant, "x")}
    return format(form.mask, "x")


def query_forms_snapshot():
    """{input: {logic: {query value: form}}}: every query value's
    `_query_forms` result under the four logics on each of
    QUERY_FORM_CASES. tests/snapshots/query_forms.json is this, written
    by json.dump with separators (",", ":")."""
    out = {}
    for name in QUERY_FORM_CASES:
        kb, obs, query = _query_form_case(name)
        grounding = build_space(kb)
        out[name] = {aldp: {value: _form_json(aldp, form) for value, form in
                            engine._query_forms(grounding, obs, aldp, kb.variable(query)).items()}
                     for aldp in ("cl", "pl", "cpl", "fl")}
    return out


def test_query_forms_match_the_snapshot():
    """Every query value's form is the recorded one: the masks bit for
    bit, and each fl tree in its shape and leaf order, which decide the
    missing grade fl_eval names first and are otherwise compared across
    versions only through their grades."""
    with open(os.path.join(SNAPSHOT_DIR, "query_forms.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert list(recorded) == list(QUERY_FORM_CASES)
    assert query_forms_snapshot() == recorded


def _random_factors(rng, kb, kind):
    """A factors section: exact "p/q" strings, floats, or a mix of the
    two per variable."""
    out = {}
    for var in kb.variables:
        raw = [rng.randint(0, 9) for _ in var.domain]
        raw[rng.randrange(len(raw))] += 1
        total = sum(raw)
        exact = kind == "exact" or (kind == "mixed" and rng.random() < 0.5)
        out[var.name] = {val: str(Fraction(r, total)) if exact else r / total
                         for val, r in zip(var.domain, raw)}
    return out


def _random_events(rng, space):
    masks = [0, space.full_mask] + [rng.getrandbits(space.atom_count) for _ in range(20)]
    return [space.event_from_mask(m) for m in masks]


def _assert_same_measure(p, events):
    for e in events:
        got, want = p(e), scan_measure(p, e)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("which", ["bundled", "chain3", "ones"])
def test_grounding_and_measures_match_atom_scans(bundled, which):
    """"ones" has 1-value domains first, in the middle and last."""
    grounding = {"bundled": lambda: bundled[1], "chain3": lambda: build_space(chain_kb(3)),
                 "ones": lambda: build_space(_sized_kb([1, 3, 1, 2, 1]))}[which]()
    kb, space = grounding.kb, grounding.space
    assignments = scan_assignments(kb)
    assert space.atom_labels == [",".join(f"{n}={v}" for n, v in a.items())
                                 for a in assignments]
    for idx, assignment in enumerate(assignments):
        assert grounding.atom_of_assignment(assignment) == idx
    rng = random.Random(f"measures-{which}")
    events = _random_events(rng, space)
    domains = [(v.name, v.domain) for v in kb.variables]
    for kind in ("exact", "float", "mixed") * 3:
        factors = _random_factors(rng, kb, kind)
        p = measure_from_json(space, {"factors": factors}, domains)
        want = scan_factor_weights(assignments, factors)
        assert p.weights == want
        assert [type(w) for w in p.weights] == [type(w) for w in want]
        assert p.exact == all(isinstance(w, Fraction) for w in want)
        _assert_same_measure(p, events)
    for p in (ProbabilityMeasure.uniform(space), random_measure(space, rng, exact=True),
              random_measure(space, rng)):
        _assert_same_measure(p, events)


def test_factor_gaps_reported_as_the_atom_scan_meets_them():
    kb = chain_kb(2)
    assignments = scan_assignments(kb)
    domains = [(v.name, v.domain) for v in kb.variables]
    space = build_space(kb).space
    rng = random.Random(7)
    for _ in range(200):
        factors = _random_factors(rng, kb, "exact")
        for var in rng.sample(list(factors), rng.randint(1, 3)):
            if rng.random() < 0.3:
                del factors[var]
            else:
                del factors[var][rng.choice(list(factors[var]))]
                factors[var] = {val: "1/1" if i == 0 else "0"
                                for i, val in enumerate(factors[var])}
        with pytest.raises(ValueError) as want:
            scan_factor_weights(assignments, factors)
        with pytest.raises(ValueError) as got:
            measure_from_json(space, {"factors": factors}, domains)
        assert str(got.value) == str(want.value)


def _refusal(space, factors, domains):
    with pytest.raises(ValueError) as refused:
        measure_from_json(space, {"factors": factors}, domains)
    return str(refused.value)


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_negative_factor_weights_are_refused_after_sum_and_cover_faults(kind):
    """A negative weight, in a factor that still sums to 1, is refused
    as "weights must be nonnegative"; a file that also has a sum or a
    cover fault, in another factor, is refused for that fault, with the
    message the file without the negative weight gets."""
    kb = chain_kb(2)
    domains = [(v.name, v.domain) for v in kb.variables]
    space = build_space(kb).space
    rng = random.Random(f"negative-{kind}")
    for _ in range(60):
        factors = _random_factors(rng, kb, kind)
        negative, other = rng.sample(list(factors), 2)
        first, second = list(factors[negative])[:2]
        shifted = dict(factors[negative])
        w1, w2 = parse_weight(shifted[first]), parse_weight(shifted[second])
        moved = w2 + w1 + Fraction(1, 4)
        shifted[first] = "-1/4" if isinstance(w1, Fraction) else -0.25
        shifted[second] = str(moved) if isinstance(moved, Fraction) else moved
        assert _refusal(space, {**factors, negative: shifted},
                        domains) == "weights must be nonnegative"
        faulty, value = dict(factors), rng.choice(list(factors[other]))
        if rng.random() < 0.5:
            faulty[other] = {val: w for val, w in faulty[other].items() if val != value}
        else:
            faulty[other] = {**faulty[other], value: 2}
        want = _refusal(space, faulty, domains)
        assert want != "weights must be nonnegative"
        assert _refusal(space, {**faulty, negative: shifted}, domains) == want


@pytest.mark.parametrize("case", ["fever_float", "fever_mixed", "chain6_float"])
def test_float_factor_weights_are_the_kronecker_product(bundled, case):
    """A float or mixed factors file whose every atom meets a float
    weight gives a measure of floats, each bit for bit the product of
    its factor weights taken left to right in declaration order."""
    if case.startswith("fever_"):
        kb, grounding = bundled[0], bundled[1]
        path = f"eval_fever_factors_{case[6:]}.json"
    else:
        with open(os.path.join(SNAPSHOT_DIR, "chain6_kb.json"), encoding="utf-8") as fh:
            kb = kb_from_json(json.load(fh))
        grounding, path = build_space(kb), "chain6_factors_float.json"
    with open(os.path.join(SNAPSHOT_DIR, path), encoding="utf-8") as fh:
        data = json.load(fh)
    p = measure_from_json(grounding.space, data, [(v.name, v.domain) for v in kb.variables])
    want = scan_factor_weights(scan_assignments(kb), data["factors"])
    assert not p.exact
    assert all(type(w) is float for w in p.weights)
    assert [w.hex() for w in p.weights] == [w.hex() for w in want]


def test_a_negative_factor_weight_is_refused_when_its_products_round_to_zero():
    """b1[x] weighs -5e-324, so each of x's 27 atoms has the product
    -0.0, which no per-atom check can tell from a nonnegative weight:
    the factor weight's own sign is what is refused."""
    kb = chain_kb(2)
    domains = [(v.name, v.domain) for v in kb.variables]
    third = {val: 1 / 3 for val in ("1", "2", "3")}
    factors = {"b1": {"x": -5e-324, "y": 1.0}, "a0": third, "a1": third,
               "th": {"t0": 0.25, "t1": 0.25, "t2": 0.5}}
    products = scan_factor_weights(scan_assignments(kb), factors)
    assert [w.hex() for w in products[:27]] == [(-0.0).hex()] * 27
    assert min(products) >= 0
    assert _refusal(build_space(kb).space, factors, domains) == "weights must be nonnegative"


def test_evaluation_never_builds_atom_labels(monkeypatch):
    """Grounding and every logic's evaluation run without the labels;
    only the "atoms" measure form reads them."""
    def refuse(variables):
        raise AssertionError("atom labels built")

    monkeypatch.setattr(engine, "_atom_labels", refuse)
    kb = load_bundled_kb()
    grounding = build_space(kb)
    obs = load_bundled_observation(kb)
    domains = [(v.name, v.domain) for v in kb.variables]
    factors = _random_factors(random.Random("labels"), kb, "exact")
    atom = grounding.atom_of_assignment({v.name: v.domain[-1] for v in kb.variables})
    inputs = {
        "cl": atom,
        "pl": ProbabilityMeasure.uniform(grounding.space),
        "cpl": measure_from_json(grounding.space, {"factors": factors}, domains),
        "fl": _seeded_poss(kb),
    }
    for aldp, sem_input in inputs.items():
        assert len(evaluate(grounding, obs, aldp, "th1", sem_input)) == 3
    assert grounding.space in {grounding.space}  # hashing reads no label
    with pytest.raises(AssertionError, match="atom labels built"):
        grounding.space.atom_labels


def _two_variable_kb(x_domain, y_domain):
    return kb_from_json({
        "variables": [
            {"name": "x", "kind": "data-attribute", "domain": x_domain},
            {"name": "y", "kind": "diagnosis", "domain": y_domain},
        ],
        "rules": [{"id": "r", "if": {"var": "x"}, "then": {"var": "y"}}],
    })


def test_labels_that_can_collide_are_checked_up_front(monkeypatch):
    """Only a "," or "=" in a name or value lets two labels coincide;
    such a grounding builds and checks its labels at once."""
    with pytest.raises(ValueError, match="atom labels must be unique"):
        build_space(_two_variable_kb(["a", "a,y=b"], ["b,y=c", "c"]))
    kb = _two_variable_kb(["a", "a,y=d"], ["b,y=c", "c"])
    assert build_space(kb).space.atom_labels == [
        "x=a,y=b,y=c", "x=a,y=c", "x=a,y=d,y=b,y=c", "x=a,y=d,y=c"]

    def refuse(variables):
        raise AssertionError("atom labels built")

    monkeypatch.setattr(engine, "_atom_labels", refuse)
    with pytest.raises(AssertionError, match="atom labels built"):
        build_space(kb)
    build_space(_two_variable_kb(["a", "b"], ["c", "d"]))


def test_exact_factor_measure_matches_the_fraction_oracle():
    """Unreduced "p/q" strings, a zero and an int weight: the integer
    Kronecker product gives the oracle's Fractions, value and type."""
    kb = chain_kb(2)
    assignments = scan_assignments(kb)
    domains = [(v.name, v.domain) for v in kb.variables]
    space = build_space(kb).space
    factors = {
        "b1": {"x": 1, "y": 0},
        "a0": {"1": "2/4", "2": "2/8", "3": "3/12"},
        "a1": {"1": "0", "2": "4/6", "3": "1/3"},
        "th": {"t0": "5/10", "t1": "1/6", "t2": "2/6"},
    }
    p = measure_from_json(space, {"factors": factors}, domains)
    want = scan_factor_weights(assignments, factors)
    assert p.exact
    assert p.weights == want
    assert all(type(w) is Fraction for w in p.weights)
    for e in _random_events(random.Random("exact"), space):
        got = p(e)
        assert got == sum((w for i, w in enumerate(want) if e.mask >> i & 1), Fraction(0))
        assert type(got) is Fraction
    uniform = ProbabilityMeasure.uniform(space)
    assert uniform.weights == [Fraction(1, space.atom_count)] * space.atom_count
    _assert_same_measure(uniform, _random_events(random.Random("uniform"), space))

    negative = dict(factors, b1={"x": "3/2", "y": "-1/2"})
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        measure_from_json(space, {"factors": negative}, domains)
    short = dict(factors, a0={"1": "2/4", "2": "1/8", "3": "1/8"})
    with pytest.raises(ValueError, match="^factor for a0 sums to 3/4$"):
        measure_from_json(space, {"factors": short}, domains)


def test_float_factor_measure_refuses_a_negative_weight():
    """A float factor that sums to one but holds a negative weight is
    refused by the measure's sign check, with the exact case's message."""
    kb = chain_kb(2)
    domains = [(v.name, v.domain) for v in kb.variables]
    space = build_space(kb).space
    factors = {
        "b1": {"x": 1.5, "y": -0.5},
        "a0": {"1": 0.5, "2": 0.25, "3": 0.25},
        "a1": {"1": 0.0, "2": 0.7, "3": 0.3},
        "th": {"t0": 0.1, "t1": 0.6, "t2": 0.3},
    }
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        measure_from_json(space, {"factors": factors}, domains)
    factors["b1"] = {"x": 0.25, "y": 0.75}
    assert not measure_from_json(space, {"factors": factors}, domains).exact


def test_remembered_masses_match_the_atom_scan(bundled):
    """Every mass a measure remembers is the one the scan gives, value
    and type: asked again, and again after other events were asked."""
    grounding = bundled[1]
    kb, space = grounding.kb, grounding.space
    rng = random.Random("memo")
    domains = [(v.name, v.domain) for v in kb.variables]
    measures = [measure_from_json(space, {"factors": _random_factors(rng, kb, kind)}, domains)
                for kind in ("exact", "float", "mixed")]
    measures += [ProbabilityMeasure.uniform(space), random_measure(space, rng, exact=True),
                 random_measure(space, rng)]
    for p in measures:
        events, others = _random_events(rng, space), _random_events(rng, space)
        _assert_same_measure(p, events)
        _assert_same_measure(p, events)
        _assert_same_measure(p, others)
        _assert_same_measure(p, events)


@pytest.mark.parametrize("numerators,denominator", [([3, -1], 2), ([1, 1], 3), ([1, 0, 0], 1)])
def test_numerator_measure_checks_as_the_weight_list_does(numerators, denominator):
    space = AtomSpace(2)
    with pytest.raises(ValueError) as want:
        ProbabilityMeasure(space, [Fraction(n, denominator) for n in numerators])
    with pytest.raises(ValueError) as got:
        ProbabilityMeasure.from_numerators(space, numerators, denominator)
    assert str(got.value) == str(want.value)
