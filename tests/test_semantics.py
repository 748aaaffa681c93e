import random
import re
import sys
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from cea.algebra import AtomSpace, material_implies
from cea.conditional import cond, embed
from cea.formulas import Leaf, Or, bind_leaves, from_json, to_json
from cea.semantics import (
    TOLERANCE,
    PossibilityAssignment,
    ProbabilityMeasure,
    UndefinedConditionalError,
    cl_eval,
    cpl_eval,
    fl_eval,
    inclusion_exclusion,
    lewis_gap,
    measure_from_json,
    mf_independent_sample,
    parse_weight,
    pl_eval,
    random_measure,
)


@pytest.fixture
def s3():
    return AtomSpace(3)


def test_measure_validation(s3):
    with pytest.raises(ValueError):
        ProbabilityMeasure(s3, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        ProbabilityMeasure(s3, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        ProbabilityMeasure(s3, [1, 1, -1])
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError):
        ProbabilityMeasure(s3, [nan, 0.5, 0.5])
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError):
            parse_weight(bad)
    bad_strings = ["", "abc", "1/", "1/0"]
    if hasattr(sys, "get_int_max_str_digits"):
        bad_strings.append("1/" + "9" * 5000)  # more digits than int() reads
    for bad in bad_strings:
        with pytest.raises(ValueError, match="^not a weight: "):
            parse_weight(bad)
    p = ProbabilityMeasure.uniform(s3)
    assert p.exact
    assert p(s3.zero) == 0
    assert p(s3.one) == 1


def reference_measure_checks(space, weights):
    """The constructor's checks as one Python pass per atom each: the
    normalized weights and whether they are exact, or the message that
    refuses them. Float weights are totalled left to right from 0.0, as
    p() adds them."""
    if len(weights) != space.atom_count:
        return "one weight per atom required"
    try:
        weights = [w if isinstance(w, (float, Fraction)) else parse_weight(w)
                   for w in weights]
    except ValueError as exc:
        return str(exc)
    exact = all(isinstance(w, Fraction) for w in weights)
    if any(w < 0 for w in weights):
        return "weights must be nonnegative"
    total = sum(weights) if exact else reduce(add, weights, 0.0)
    if exact and total != 1 or not exact and not abs(float(total) - 1.0) <= TOLERANCE:
        return f"weights sum to {total}, expected 1"
    return weights, exact


def test_measure_checks_match_the_per_atom_reference(s3):
    nan, inf = float("nan"), float("inf")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    cases = [
        [0.5, 0.25, 0.25], [0.5, -0.25, 0.75], [-0.0, 0.5, 0.5], [0.5, 0.5],
        [nan, 0.5, 0.5], [0.5, nan, 0.5], [0.5, 0.5, nan], [nan, -0.5, 1.5],
        [-0.5, nan, 1.5], [1.5, nan, -0.5], [inf, 0.0, 0.0], [-inf, inf, 1.0],
        [1, 0, 0], ["1/2", "1/4", 0.25], [1, -1, 1], [half, quarter, quarter],
        [half, quarter, 0.25], [half, -0.25, 0.75], [half, quarter, "1/3"],
        [True, 0, 0], [0.5, "x", 0.5], [0.5, 0.25, 0.25 + 2e-12], (0.5, 0.5, 0.0),
    ]
    rng = random.Random("checks")
    for _ in range(200):
        cases.append([rng.choice([rng.random(), -rng.random(), Fraction(rng.randint(-2, 3), 4),
                                  rng.randint(0, 1), nan]) for _ in range(3)])
    for weights in cases:
        want = reference_measure_checks(s3, weights)
        try:
            p = ProbabilityMeasure(s3, weights)
        except ValueError as exc:
            assert str(exc) == want
            continue
        got_weights, exact = want
        assert p.exact == exact
        assert p.weights == got_weights
        assert [type(w) for w in p.weights] == [type(w) for w in got_weights]


@pytest.mark.parametrize("n, refusal", [
    (46862, "weights sum to 0.999999999998751, expected 1"),
    (40000, "weights sum to 1.000000000001004, expected 1"),
    (35000, None),
])
def test_float_sum_to_one_is_decided_on_the_left_to_right_total(n, refusal):
    """n weights 1/n total 1 within TOLERANCE when compensated, as sum()
    adds floats from Python 3.12 on; added left to right from 0.0, as
    p() adds them, they miss it at the first two n. The check decides on
    the left-to-right total, and so alike on every Python."""
    space = AtomSpace(n)
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            ProbabilityMeasure(space, [1 / n] * n)
        return
    p = ProbabilityMeasure(space, [1 / n] * n)
    assert p(space.one) == 0.9999999999991837
    assert abs(p(space.one) - 1) <= TOLERANCE


def test_float_factor_sum_is_decided_on_the_left_to_right_total():
    """A factor's sum is checked as a measure's is, by its left-to-right
    total, on every Python. This one totals 1.0 compensated and 0.0 left
    to right: a negative weight widens the fast path's margin by its
    magnitude, so the factor is refused here and not, from Python 3.12
    on, by the measure's sign check after it."""
    factor = {"x": 1e16, "y": 1.0, "z": -1e16}
    with pytest.raises(ValueError, match=r"^factor for v sums to 0\.0$"):
        measure_from_json(AtomSpace(3), {"factors": {"v": factor}}, [("v", list(factor))])


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_measure_is_the_same_from_either_constructor(n):
    """An exact measure holds numerators only, whichever constructor
    built it, and makes its weights from them when they are read: the
    weights (values and types), every mass and the repr agree."""
    space = AtomSpace(n)
    rng = random.Random(f"exact-{n}")
    scale = rng.randrange(1, 4)  # numerators need not be in lowest terms
    numerators = [scale * rng.randrange(0, 10) for _ in range(n)]
    numerators[-1] += scale
    denominator = sum(numerators)
    given = ProbabilityMeasure(space, [Fraction(k, denominator) for k in numerators])
    built = ProbabilityMeasure.from_numerators(space, numerators, denominator)
    assert given.exact and built.exact
    assert given._weights is None and built._weights is None
    for _ in range(20):
        e = space.event_from_mask(rng.randrange(1 << n))
        assert given(e) == built(e)
        assert type(given(e)) is type(built(e)) is Fraction
    assert given.weights == built.weights
    assert [type(w) for w in given.weights] == [type(w) for w in built.weights] == [Fraction] * n
    assert repr(given) == repr(built)


@pytest.mark.parametrize("weights", [[0.5, 0.25, 0.25], [Fraction(1, 2), 0.25, 0.25],
                                     [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                                     [1, 0, 0]])
def test_measure_keeps_its_own_copy_of_the_weights(s3, weights):
    given = list(weights)
    p = ProbabilityMeasure(s3, given)
    first = p(s3.atom(0))
    given[0], given[1] = given[1], given[0]
    assert p.weights == list(weights)
    assert p(s3.atom(0)) == first
    assert p(s3.event([0, 2])) == ProbabilityMeasure(s3, weights)(s3.event([0, 2]))


def test_random_measure_is_the_same_on_every_python():
    """Float weights are totalled and nudged by a left-to-right sum from
    0.0, as p() sums them, so the whole space has measure 1.0 exactly. A
    compensated sum (sum() of floats from Python 3.12) in the nudge breaks
    that for about a third of these measures, and changes the weights."""
    for n in range(1, 40):
        space = AtomSpace(n)
        for seed in range(30):
            assert random_measure(space, random.Random(seed))(space.one) == 1.0
    p = random_measure(AtomSpace(5), random.Random(7))
    assert [repr(w) for w in p.weights] == [
        "0.18679986333897408", "0.0873231028643365", "0.37490451596642027",
        "0.042230617716979287", "0.30874190011328984"]


def test_cl_eval(s3):
    e = s3.event([1, 2])
    assert cl_eval(1, e) == 1
    assert cl_eval(0, e) == 0


def test_cl_eval_is_two_valued_homomorphism():
    space = AtomSpace(4)
    for a in space.events():
        for b in space.events():
            for i in range(4):
                assert cl_eval(i, a | b) == max(cl_eval(i, a), cl_eval(i, b))
                assert cl_eval(i, a & b) == min(cl_eval(i, a), cl_eval(i, b))
                assert cl_eval(i, ~a) == 1 - cl_eval(i, a)
                assert cl_eval(i, material_implies(b, a)) == max(
                    1 - cl_eval(i, b), cl_eval(i, a))


def test_pl_eval_uniform(s3):
    p = ProbabilityMeasure.uniform(s3)
    assert pl_eval(p, s3.event([0, 1])) == Fraction(2, 3)


def test_pl_additivity_random():
    space = AtomSpace(4)
    rng = random.Random(7)
    for _ in range(200):
        p = random_measure(space, rng)
        a = space.event_from_mask(rng.randrange(16))
        b = space.event_from_mask(rng.randrange(16))
        lhs = float(p(a | b)) + float(p(a & b))
        assert abs(lhs - float(p(a)) - float(p(b))) <= 1e-12


def test_inclusion_exclusion_matches_direct():
    space = AtomSpace(4)
    rng = random.Random(3)
    for _ in range(100):
        p = random_measure(space, rng)
        events = [space.event_from_mask(rng.randrange(16)) for _ in range(3)]
        direct = p(events[0] | events[1] | events[2])
        assert abs(float(inclusion_exclusion(p, events)) - float(direct)) <= 1e-12


def test_implication_probability_decomposition():
    space = AtomSpace(4)
    rng = random.Random(9)
    for _ in range(200):
        p = random_measure(space, rng, exact=True)
        a = space.event_from_mask(rng.randrange(16))
        b = space.event_from_mask(rng.randrange(16))
        assert p(material_implies(b, a)) == p(~b) + p(a & b)


def test_cpl_eval(s3):
    p = ProbabilityMeasure.uniform(s3)
    assert cpl_eval(p, cond(s3.event([0]), s3.event([0, 1]))) == Fraction(1, 2)
    e = s3.event([0, 2])
    assert cpl_eval(p, embed(e)) == pl_eval(p, e)
    zero_on_2 = ProbabilityMeasure(s3, [Fraction(1, 2), Fraction(1, 2), 0])
    with pytest.raises(UndefinedConditionalError):
        cpl_eval(zero_on_2, cond(s3.event([2]), s3.event([2])))


def test_cpl_monotone(s3):
    from cea.conditional import conditionals

    rng = random.Random(21)
    comparable = [(a, c) for a in conditionals(s3) for c in conditionals(s3)
                  if a <= c and a.antecedent and c.antecedent]
    for _ in range(20):
        p = random_measure(s3, rng)
        for a, c in comparable:
            assert float(cpl_eval(p, a)) <= float(cpl_eval(p, c)) + 1e-12


def test_lewis_gap_examples():
    s10 = AtomSpace(10)
    p = ProbabilityMeasure.uniform(s10)
    p_imp, p_cond, gap = lewis_gap(p, s10.zero, s10.atom(0))
    assert p_imp == Fraction(9, 10)
    assert p_cond == 0
    assert gap == Fraction(9, 10)

    s3 = AtomSpace(3)
    p3 = ProbabilityMeasure.uniform(s3)
    # conditioning on everything closes the gap
    a = s3.event([0, 1])
    p_imp, p_cond, gap = lewis_gap(p3, a, s3.one)
    assert gap == 0
    # consequent covering the antecedent closes it too
    p_imp, p_cond, gap = lewis_gap(p3, s3.event([0, 1]), s3.event([0]))
    assert p_imp == 1 and p_cond == 1 and gap == 0


@pytest.mark.parametrize("b", [[], [1]], ids=["empty", "null-atom"])
def test_lewis_gap_refuses_a_null_antecedent(b):
    """Conditioning on b of probability zero is undefined, as in cpl_eval."""
    s2 = AtomSpace(2)
    p = ProbabilityMeasure.from_numerators(s2, [1, 0], 1)
    with pytest.raises(UndefinedConditionalError, match="^antecedent has probability zero$"):
        lewis_gap(p, s2.one, s2.event(b))


def test_lewis_identity_random_exact():
    space = AtomSpace(4)
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        p = random_measure(space, rng, exact=True)
        a = space.event_from_mask(rng.randrange(16))
        b = space.event_from_mask(rng.randrange(16))
        if p(b) == 0:
            continue
        p_imp, p_cond, gap = lewis_gap(p, a, b)
        assert p_imp == p_cond + p(~b) * cpl_eval(p, cond(~a & b, b))
        assert gap >= 0
        checked += 1


def test_measure_free_independence(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    b = embed(s3.event([0, 1]))
    report = mf_independent_sample(a, b, 100, seed=2)
    assert report.independent
    assert report.max_violation <= 1e-9

    # chained factors are independent as well
    a1, a2, a3 = s3.event([0]), s3.event([0, 1]), s3.one
    report = mf_independent_sample(cond(a1, a2), cond(a2, a3), 100, seed=2)
    assert report.independent

    # generic overlapping pair is not
    x = cond(s3.event([0]), s3.event([0, 1]))
    y = cond(s3.event([0]), s3.event([0, 2]))
    report = mf_independent_sample(x, y, 100, seed=2)
    assert not report.independent
    assert report.max_violation > 1e-6


def test_possibility_validation():
    with pytest.raises(ValueError):
        PossibilityAssignment({("x", "a"): 1.5})
    poss = PossibilityAssignment.from_json(
        {"poss": {"x": {"a": 0.3}, "y": {"b": 0.8, "c": 0.1}}})
    assert poss.grade("y", "c") == 0.1


def test_fl_eval_examples():
    poss = PossibilityAssignment({("x", "a"): 0.3, ("y", "b"): 0.8, ("y", "c"): 0.2})
    ev = lambda node: fl_eval(poss, from_json(node))
    x = {"var": "x", "vals": ["a"]}
    yb = {"var": "y", "vals": ["b"]}
    yc = {"var": "y", "vals": ["c"]}
    assert ev({"op": "or", "args": [x, yb]}) == 0.8
    assert ev({"op": "implies", "args": [x, yc]}) == 0.7
    # excluded middle fails strictly inside the unit interval
    assert ev({"op": "or", "args": [x, {"op": "not", "args": [x]}]}) == 0.7
    # a multi-valued leaf reads as the disjunction of its values
    assert ev({"var": "y", "vals": ["b", "c"]}) == 0.8


def test_fl_value_level_laws():
    poss = PossibilityAssignment({("x", "a"): 0.3, ("y", "b"): 0.8, ("z", "c"): 0.5})
    x = {"var": "x", "vals": ["a"]}
    y = {"var": "y", "vals": ["b"]}
    ev = lambda node: fl_eval(poss, from_json(node))
    assert ev({"op": "and", "args": [x, x]}) == ev(x)
    assert ev({"op": "not", "args": [{"op": "and", "args": [x, y]}]}) == ev(
        {"op": "or", "args": [{"op": "not", "args": [x]}, {"op": "not", "args": [y]}]})
    assert ev({"op": "or", "args": [x, {"op": "and", "args": [x, y]}]}) == ev(x)


def test_fl_eval_grades_each_shared_node_once():
    class CountingPossibility(PossibilityAssignment):
        def grade(self, var, value):
            self.calls += 1
            if self.calls > 1000:
                raise AssertionError("a shared node was graded more than once")
            return super().grade(var, value)

    poss = CountingPossibility({("x", "a"): 0.25, ("y", "b"): 0.5})
    poss.calls = 0
    # 60 levels of Or(node, node, fresh leaf): 2^60 paths, 61 leaves
    node = Leaf("x", ["a"])
    for _ in range(60):
        node = Or([node, node, Leaf("y", ["b"])])
    assert fl_eval(poss, node) == 0.5
    assert poss.calls == 61
    # every other reading of the tree visits each shared node once too
    assert node.leaves() == {("x", ("a",)), ("y", ("b",))}
    bound = bind_leaves(node, lambda var, vals: vals)
    assert fl_eval(poss, bound) == 0.5
    assert poss.calls == 122
    # a tuple is graded in one pass: a sub-tree of an earlier formula is
    # not graded again, and a formula that shares nothing is graded whole
    assert fl_eval(poss, (bound, bound.args[0], node)) == (0.5, 0.5, 0.5)
    assert poss.calls == 244
    level = bound
    for _ in range(60):
        assert level.args[0] is level.args[1]
        assert to_json(level.args[2]) == {"var": "y", "vals": ["b"]}
        level = level.args[0]
    assert to_json(level) == {"var": "x", "vals": ["a"]}


def test_fl_unbound_leaf_rejected():
    poss = PossibilityAssignment({("x", "a"): 0.3})
    with pytest.raises(Exception):
        fl_eval(poss, from_json({"var": "x"}))


def test_measure_file_atoms_form():
    space = AtomSpace(3, ["u", "v", "w"])
    p = measure_from_json(space, {"atoms": {"u": "1/2", "v": "1/4", "w": "1/4"}})
    assert p.exact
    assert p(space.event([0])) == Fraction(1, 2)
    # absent labels default to zero weight
    p2 = measure_from_json(space, {"atoms": {"u": 1}})
    assert p2(space.event([1, 2])) == 0
    with pytest.raises(ValueError):
        measure_from_json(space, {"atoms": {"nope": 1}})
    with pytest.raises(ValueError):
        measure_from_json(space, {"weights": [1]})
    with pytest.raises(ValueError):
        measure_from_json(space, {"atoms": ["u"]})


def test_measure_file_factors_form():
    space = AtomSpace(4, ["x=0,y=0", "x=0,y=1", "x=1,y=0", "x=1,y=1"])
    domains = [("x", ["0", "1"]), ("y", ["0", "1"])]
    data = {"factors": {"x": {"0": "1/2", "1": "1/2"}, "y": {"0": "1/4", "1": "3/4"}}}
    p = measure_from_json(space, data, domains)
    assert p(space.event([0])) == Fraction(1, 8)
    assert p(space.event([3])) == Fraction(3, 8)
    with pytest.raises(ValueError):
        measure_from_json(space, data)  # needs the grounding's domains
    bad = {"factors": {"x": {"0": "1/2", "1": "1/3"}, "y": {"0": 1}}}
    with pytest.raises(ValueError):
        measure_from_json(space, bad, domains)
