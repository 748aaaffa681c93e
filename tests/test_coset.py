import itertools

import pytest

import cea.coset as coset_module
import cea.verify as verify_module
from cea.algebra import AtomSpace, MismatchedSpaceError
from cea.conditional import ConditionalObject, cond, conditionals, embed
from cea.coset import (
    SpaceTooLargeError,
    class_intersect,
    classwise,
    classwise_unary,
    expand,
    intersection_criterion,
    recognize,
    subset_criterion,
)
from cea.verify import characterization_suite, intersection_suite


@pytest.fixture
def s3():
    return AtomSpace(3)


def test_expand_examples(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    assert expand(a) == {s3.event([0]), s3.event([0, 2])}
    e = s3.event([1, 2])
    assert expand(embed(e)) == {e}
    assert len(expand(cond(s3.zero, s3.zero))) == 8


def test_expand_sizes(s3):
    for c in conditionals(s3):
        outside = 3 - c.antecedent.mask.bit_count()
        assert len(expand(c)) == 2 ** outside


def test_expansion_bound():
    big = AtomSpace(13)
    with pytest.raises(SpaceTooLargeError, match=r"^expansion needs 2\^13 events; bound is 12 atoms$"):
        expand(embed(big.event([0])))
    at_bound = AtomSpace(12)
    assert len(expand(embed(at_bound.event([0])))) == 1
    assert len(expand(cond(at_bound.event([0]), at_bound.event([0, 1])))) == 1 << 10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expand_builds_each_coset_once(n):
    """On a tabled space expand returns one object per conditional, and
    it is still the literal membership set."""
    space = AtomSpace(n)
    for c in conditionals(space):
        coset = expand(c)
        assert expand(c) is coset
        a, b = c.consequent, c.antecedent
        assert type(coset) is frozenset
        assert coset == {x for x in space.events() if x & b == a & b}


def test_untabled_space_expands_on_every_call():
    space = AtomSpace(7)
    assert space._cosets is None
    c = cond(space.event([0]), space.event([0, 1]))
    first, second = expand(c), expand(c)
    assert first == second
    assert first is not second


def test_refused_space_stores_no_coset(monkeypatch):
    monkeypatch.setattr(coset_module, "MAX_EXPAND_ATOMS", 2)
    space = AtomSpace(3)
    with pytest.raises(SpaceTooLargeError):
        expand(embed(space.event([0])))
    assert all(entry is None for entry in space._cosets)
    monkeypatch.setattr(coset_module, "MAX_EXPAND_ATOMS", 3)
    assert expand(embed(space.event([0]))) is expand(embed(space.event([0])))


def test_recognize_examples(s3):
    # reverse of the expand example
    got = recognize(s3, {s3.event([0]), s3.event([0, 2])})
    assert got == cond(s3.event([0]), s3.event([0, 1]))
    # singleton is an embedded event
    assert recognize(s3, {s3.event([1])}) == embed(s3.event([1]))
    # not a coset: members disagree on every candidate antecedent
    assert recognize(s3, {s3.event([0]), s3.event([1])}) is None
    assert recognize(s3, set()) is None


def test_recognize_round_trip(s3):
    for c in conditionals(s3):
        assert recognize(s3, expand(c)) == c


def test_recognize_matches_the_pairwise_join_on_every_event_set(s3):
    """recognize joins each member's difference from the first; on every
    set of events of three atoms it returns what the join of all pairwise
    differences gives."""
    events = list(s3.events())
    for bits in range(1, 1 << len(events)):
        given = [e for i, e in enumerate(events) if bits >> i & 1]
        b_comp = 0
        for x, y in itertools.combinations(given, 2):
            b_comp |= x.mask ^ y.mask
        first = min(given, key=lambda e: e.mask)
        candidate = cond(first, s3.event_from_mask(s3.full_mask & ~b_comp))
        assert recognize(s3, given) == (candidate if expand(candidate) == set(given) else None)


def test_intersection_examples(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    same = class_intersect(a, a)
    assert same == expand(a)
    assert recognize(s3, same) == a and not intersection_criterion(a, a)

    # distinct classes over one antecedent never meet
    other = cond(s3.event([1]), s3.event([0, 1]))
    assert class_intersect(a, other) == set() and intersection_criterion(a, other)

    # overlapping antecedents give a coset on the joined antecedent
    c = cond(s3.event([0]), s3.event([0, 2]))
    joined = recognize(s3, class_intersect(a, c))
    assert joined is not None
    assert joined.antecedent == s3.event([0, 1, 2])
    assert not intersection_criterion(a, c)


def test_intersection_criterion_matches_literal_sets(s3):
    """Over every pair of 3-atom conditionals: the criterion says empty
    exactly when the literal intersection is, and a nonempty one is the
    coset on the joined antecedent."""
    pool = list(conditionals(s3))
    for a in pool:
        for c in pool:
            inter = class_intersect(a, c)
            assert intersection_criterion(a, c) == (not inter)
            if inter:
                joined = recognize(s3, inter)
                assert joined is not None and joined.ant == a.ant | c.ant
                assert expand(joined) == inter


def test_subset_examples(s3):
    small = cond(s3.event([0]), s3.one)
    big = cond(s3.event([0]), s3.event([0, 1]))
    assert subset_criterion(small, big)
    assert expand(small) <= expand(big)
    assert not subset_criterion(big, small)


def test_mask_reads_keep_the_space_check(s3):
    other, twin = AtomSpace(3, ["x", "y", "z"]), AtomSpace(3)
    a = cond(s3.event([0]), s3.event([0, 1]))
    for fn in (subset_criterion, class_intersect, intersection_criterion):
        for p, q in ((a, cond(other.event([0]), other.event([0, 1]))),
                     (cond(other.zero, other.one), a)):
            with pytest.raises(MismatchedSpaceError):
                fn(p, q)
    # an equal space held in another object is the same space
    b = cond(twin.event([0]), twin.one)
    assert subset_criterion(b, a) and not subset_criterion(a, b)
    assert not intersection_criterion(a, b)
    assert recognize(s3, class_intersect(a, b)).ant == a.ant | b.ant


def test_class_intersect_checks_the_spaces_before_expanding():
    """A coset past MAX_EXPAND_ATOMS against one of another space is a
    space mismatch, as intersection_criterion says, not an expansion
    too large to build."""
    big, small = AtomSpace(coset_module.MAX_EXPAND_ATOMS + 1), AtomSpace(2)
    pairs = [(cond(big.zero, big.atom(0)), cond(small.zero, small.one))]
    pairs.append(pairs[0][::-1])
    for a, c in pairs:
        for fn in (class_intersect, intersection_criterion):
            with pytest.raises(MismatchedSpaceError):
                fn(a, c)


def test_classwise_keeps_the_space_check(s3):
    """classwise runs the Event operators, and they refuse members of
    another space; members of an equal space combine."""
    other, twin = AtomSpace(3, ["x", "y", "z"]), AtomSpace(3)
    mine = expand(cond(s3.event([0]), s3.event([0, 1])))
    ops = (lambda x, y: x & y, lambda x, y: x | y, lambda x, y: x ^ y)
    for op in ops:
        for p, q in ((mine, expand(cond(other.zero, other.one))),
                     (expand(embed(other.event([1]))), mine)):
            with pytest.raises(MismatchedSpaceError):
                classwise(op, p, q)
    same = expand(cond(twin.event([0]), twin.event([0, 1])))
    assert same == mine
    for op in ops:
        assert classwise(op, mine, same) == classwise(op, mine, mine)


@pytest.mark.parametrize("n", [2, 3])
def test_intersection_suite(n):
    for result in intersection_suite(AtomSpace(n)):
        assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("name, broken", [
    ("intersection_criterion", lambda a, c: False),
    ("intersection_criterion", lambda a, c: True),
    # every set read as a point: a coset, but not on the joined antecedent
    ("recognize", lambda space, events: embed(min(events, key=lambda e: e.mask))),
], ids=["never_empty", "always_empty", "point_recognizer"])
def test_intersection_suite_fails_a_wrong_prediction(monkeypatch, name, broken):
    monkeypatch.setattr(verify_module, name, broken)
    rows = {r.name: r for r in intersection_suite(AtomSpace(2))}
    assert not rows["intersection_emptiness_criterion"].passed
    assert rows["subset_criterion_matches_literal"].passed


@pytest.mark.parametrize("n", [2, 3])
def test_characterization_suite(n):
    for result in characterization_suite(AtomSpace(n)):
        assert result.passed, f"{result.name}: {result.detail}"


def test_oracle_never_calls_the_compact_formulas(s3, monkeypatch):
    """expand, classwise, class_intersect and recognize must stay
    literal: they may build conditionals, never combine them with the
    calculus they check."""
    pool = list(conditionals(s3))

    def refuse(*args):
        raise AssertionError("the coset oracle used a compact formula")

    for name in ("__and__", "__or__", "__xor__", "__invert__", "__le__"):
        monkeypatch.setattr(ConditionalObject, name, refuse)
    cosets = [expand(a) for a in pool]
    for a, coset in zip(pool, cosets):
        assert recognize(s3, coset) == a
        assert len(classwise_unary(lambda x: ~x, coset)) == len(coset)
        for c, other in zip(pool, cosets):
            for op in (lambda x, y: x & y, lambda x, y: x | y, lambda x, y: x ^ y):
                assert recognize(s3, classwise(op, coset, other)) is not None
            inter = class_intersect(a, c)
            assert inter == coset & other
            assert not inter or recognize(s3, inter) is not None
