"""Acceptance suite: one test per criterion, each printing a verdict line.

Exhaustive sweeps run on the stated space sizes at the stated
tolerances; probabilistic criteria use exact rational arithmetic where
the contract demands exactness.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from cea.algebra import AtomSpace
from cea.conditional import cond, conditionals
from cea.data import bundled_golden_dir, bundled_kb_path, bundled_observation_path, load_bundled_kb, load_bundled_observation
from cea.engine import build_space, evaluate, integrate_out
from cea.semantics import ProbabilityMeasure, cpl_eval, lewis_gap, pl_eval, random_measure
from cea.verify import (
    comparison_suite,
    conditional_law_suite,
    golden_check,
    higher_order_suite,
    identity_suite,
    intersection_suite,
    nary_consistency_suite,
    oracle_equivalence_suite,
    partial_order_suite,
)


def _all_pass(results, context):
    for r in results:
        assert r.passed, f"{context}: {r.name} failed ({r.detail})"


def _verdict(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_oracle_equivalence():
    space = AtomSpace(3)
    start = time.perf_counter()
    results = oracle_equivalence_suite(space)
    elapsed = time.perf_counter() - start
    _all_pass(results, "oracle equivalence")
    by_name = {r.name: r for r in results}
    assert by_name["coset_extension_complement"].cases == 27
    for op in ("sum", "join", "meet"):
        assert by_name[f"coset_extension_{op}"].cases == 729
    assert elapsed < 5.0, f"oracle equivalence took {elapsed:.2f}s"
    _verdict(1, f"classwise coset extension matches all four compact ops "
                f"on 729 ordered pairs in {elapsed:.2f}s")


def test_criterion_2_law_suite():
    results = conditional_law_suite(AtomSpace(3))
    _all_pass(results, "law suite")
    names = [r.name for r in results]
    assert "cond_no_additive_inverse" in names
    _verdict(2, "commutativity, associativity, distributivity, idempotence, "
                "De Morgan, absorption, involution, identities hold; "
                "additive-inverse failure witnessed")


def test_criterion_3_partial_order():
    results = partial_order_suite(AtomSpace(3))
    _all_pass(results, "partial order")
    by_name = {r.name: r for r in results}
    assert by_name["order_matches_meet_definition"].cases == 729
    assert by_name["order_matches_join_definition"].cases == 729
    assert by_name["bounds_are_coset_extremes"].cases == 27
    _verdict(3, "two-inequality order agrees with both definitional forms "
                "on all 729 pairs; bounds equal coset extremes for all 27")


def test_criterion_4_identity_and_comparison_suites():
    space = AtomSpace(3)
    _all_pass(identity_suite(space), "identity suite")
    _all_pass(comparison_suite(space), "comparison suite")
    _all_pass(nary_consistency_suite(space), "n-ary consistency")
    golden = golden_check(bundled_golden_dir())
    _all_pass(golden, "golden facts")
    assert all(r.detail != "recorded" for r in golden), "golden files must exist"
    _verdict(4, "identity and comparison suites pass exhaustively on 3 atoms; "
                "resolved forms locked as golden values")


def test_criterion_5_intersection():
    results = intersection_suite(AtomSpace(3))
    _all_pass(results, "intersection")
    by_name = {r.name: r for r in results}
    assert by_name["intersection_emptiness_criterion"].cases == 729
    assert by_name["subset_criterion_matches_literal"].cases == 729
    _verdict(5, "literal intersection matches the emptiness criterion and "
                "joined antecedent; subset criterion matches literal subset")


def test_criterion_6_higher_order():
    _all_pass(higher_order_suite(AtomSpace(2)), "higher order exhaustive")
    results = higher_order_suite(AtomSpace(3), random.Random(7), samples=10000)
    _all_pass(results, "higher order sampled")
    sampled_names = {
        "reduction_matches_closed_and_alpha_forms",
        "reduction_identity_on_plain_conditionals",
        "members_contain_numerator_and_satisfy_equation",
        "reduction_shared_antecedent_denominator",
        "reduction_plain_event_denominator",
        "reduction_event_numerator_normalized",
        "denominator_product_recovers_numerator",
        "triple_equality_matches_member_sets",
    }
    total = sum(r.cases for r in results if r.name in sampled_names)
    assert total >= 10000, f"only {total} sampled tuples"
    _verdict(6, f"reduction closed form, equality criterion and homomorphism "
                f"hold exhaustively on 2 atoms and over {total} seeded "
                f"3-atom tuples")


def test_criterion_7_semantics():
    space = AtomSpace(4)
    rng = random.Random(41)
    checked = 0
    while checked < 1000:
        p = random_measure(space, rng, exact=True)
        a = space.event_from_mask(rng.randrange(16))
        b = space.event_from_mask(rng.randrange(16))
        if p(b) == 0:
            continue
        p_imp, p_cond, gap = lewis_gap(p, a, b)
        assert p_imp == p_cond + p(~b) * cpl_eval(p, cond(~a & b, b))
        checked += 1

    s10 = AtomSpace(10)
    _, _, gap = lewis_gap(ProbabilityMeasure.uniform(s10), s10.zero, s10.atom(0))
    assert gap >= Fraction(9, 10)

    s3 = AtomSpace(3)
    comparable = [(x, y) for x in conditionals(s3) for y in conditionals(s3)
                  if x <= y and x.antecedent and y.antecedent]
    rng = random.Random(42)
    for _ in range(100):
        p = random_measure(s3, rng)
        for x, y in comparable:
            assert float(cpl_eval(p, x)) <= float(cpl_eval(p, y)) + 1e-12

    rng = random.Random(43)
    for _ in range(500):
        p = random_measure(s3, rng, exact=True)
        a = s3.event_from_mask(rng.randrange(8))
        c = s3.event_from_mask(rng.randrange(8))
        b = s3.event_from_mask(rng.randrange(1, 8))
        ca, cc = cond(a, b), cond(c, b)
        assert cpl_eval(p, ca | cc) == cpl_eval(p, cond(a | c, b))
        assert cpl_eval(p, ca & cc) == cpl_eval(p, cond(a & c, b))
        assert cpl_eval(p, ca ^ cc) == cpl_eval(p, cond(a ^ c, b))
        assert cpl_eval(p, ~ca) == 1 - cpl_eval(p, ca)

    _verdict(7, "implication/conditioning identity exact on 1000 rational "
                "measures; constructed gap reaches 0.9; extension monotone "
                "on all comparable pairs x 100 measures; shared-antecedent "
                "compatibility exact")


def test_criterion_8_pipeline():
    kb = load_bundled_kb()
    grounding = build_space(kb)
    obs = load_bundled_observation(kb)
    y = grounding.values_event("b1", ["106-reddish"])

    from functools import reduce

    def dom_join(var):
        return reduce(lambda x, z: x | z,
                      (grounding.values_event(var, [v]) for v in kb.variable(var).domain))

    eta0 = dom_join("a1") & (dom_join("a2") | dom_join("a3"))
    p = random_measure(grounding.space, random.Random(13), exact=True)
    for value in kb.variable("th1").domain:
        event_form = integrate_out(grounding, obs, "pl", "th1", value)
        assert event_form == eta0 & grounding.values_event("th1", [value]) & y
        cond_form = integrate_out(grounding, obs, "cpl", "th1", value)
        assert cond_form.consequent == event_form
        direct_ratio = pl_eval(p, cond_form.consequent) / pl_eval(p, cond_form.antecedent)
        rows = [r for r in evaluate(grounding, obs, "cpl", "th1", p) if r.value == value]
        assert abs(float(rows[0].grade) - float(direct_ratio)) <= 1e-12
        assert rows[0].grade == direct_ratio

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cea", "eval",
         "--kb", bundled_kb_path(), "--observe", bundled_observation_path(),
         "--aldp", "cpl", "--measure", "uniform"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert elapsed < 2.0, f"CLI run took {elapsed:.2f}s"
    _verdict(8, f"integrated-out event matches the closed form; conditional "
                f"numerator matches the event; grade equals the independent "
                f"ratio; CLI end-to-end in {elapsed:.2f}s")


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "cea", "oracle", "verify",
           "--atoms", "4", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == b""
    _verdict(9, "two sampled verification runs with one seed are "
                "byte-identical")
