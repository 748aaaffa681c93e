import random

import pytest

from cea.algebra import AtomSpace
from cea.conditional import cond, conditionals, embed
from cea.coset import SpaceTooLargeError, expand
from cea.higher import (
    IteratedConditional, ReductionMismatchError, iter_cond, iter_equal, reduce_u,
    union_of_members,
)
from cea.verify import higher_order_suite


@pytest.fixture
def s3():
    return AtomSpace(3)


def test_unity_denominator_gives_singleton(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    x = iter_cond(a, embed(s3.one))
    assert x.members == {a}
    assert x.numerator == a
    assert reduce_u(x) == a


def test_three_atom_example_members(s3):
    """The recorded example: conditioning ({0}|{0,1}) on ({1}|{1,2})."""
    a = cond(s3.event([0]), s3.event([0, 1]))
    c = cond(s3.event([1]), s3.event([1, 2]))
    x = iter_cond(a, c)
    assert x.numerator == (a & c) == cond(s3.zero, s3.event([1, 2]))
    expected = {
        cond(s3.zero, s3.event([1])),
        cond(s3.zero, s3.event([1, 2])),
        cond(s3.event([0]), s3.event([0, 1])),
        cond(s3.event([0]), s3.event([0, 1, 2])),
        cond(s3.event([2]), s3.event([1, 2])),
        cond(s3.event([0, 2]), s3.event([0, 1, 2])),
    }
    assert x.members == expected
    # the member-coset union collapses to conditioning on the one atom
    # where the denominator decides anything
    assert reduce_u(x) == cond(s3.zero, s3.event([1]))


def test_members_satisfy_defining_equation(s3):
    a = cond(s3.event([0, 2]), s3.event([0, 1, 2]))
    c = cond(s3.event([1]), s3.event([1, 2]))
    x = iter_cond(a, c)
    target = a & c
    for m in x.members:
        assert (m & c) == target
    assert x.numerator in x.members


def test_iter_equal_matches_member_sets_exhaustively():
    s2 = AtomSpace(2)
    family = [iter_cond(a, c) for a in conditionals(s2) for c in conditionals(s2)]
    for x in family:
        for y in family:
            assert iter_equal(x, y) == (x.members == y.members)


def test_eq_and_hash_across_equal_spaces():
    """Within one space iter_cond hands out one object per pair, so `is`
    stands in for ==; two equal but distinct spaces build their own
    objects, which only __eq__ and __hash__ can match."""
    left, right = AtomSpace(2), AtomSpace(2)
    assert left == right and left is not right
    families = [[iter_cond(a, c) for a in conditionals(s) for c in conditionals(s)]
                for s in (left, right)]
    for x, y in zip(*families):
        assert x is not y
        assert x == y and hash(x) == hash(y)
    for x in families[0]:
        for y in families[1]:
            assert (x == y) == (x.members == y.members)
            assert x != y or hash(x) == hash(y)


def test_same_numerator_different_beta_witness(s3):
    """Two iterated conditionals can share the numerator pair yet differ:
    the third parameter separates them, as the member sets confirm."""
    seen = {}
    witness = None
    for a in conditionals(s3):
        for c in conditionals(s3):
            x = iter_cond(a, c)
            key = x.numerator
            if key in seen and seen[key].beta != x.beta:
                witness = (seen[key], x)
                break
            seen.setdefault(key, x)
        if witness:
            break
    assert witness is not None
    first, second = witness
    assert first.numerator == second.numerator
    assert first.beta != second.beta
    assert first.members != second.members
    assert not iter_equal(first, second)


def test_reduction_shared_antecedent(s3):
    # denominator sharing the numerator's antecedent: condition on both
    for a, b, c in [([0], [0, 1], [1, 2]), ([1], [1, 2], [0, 1])]:
        av, bv, cv = s3.event(a), s3.event(b), s3.event(c)
        x = iter_cond(cond(av, bv), cond(cv, bv))
        assert reduce_u(x) == cond(av & bv & cv, bv & cv)


def test_reduction_plain_event_denominator(s3):
    a, b, c = s3.event([0]), s3.event([0, 1]), s3.event([1, 2])
    x = iter_cond(cond(a, b), embed(c))
    assert reduce_u(x) == cond(a & b & c, b & c)


def test_reduction_event_numerator(s3):
    # with the numerator below the denominator's consequent, conditioning
    # an event on (c|d) shrinks the world by the region where d refutes c
    c, d = s3.event([0, 1]), s3.event([0, 1, 2])
    a = s3.event([0])
    assert a <= (c & d)
    x = iter_cond(embed(a), cond(c, d))
    assert reduce_u(x) == cond(a, ~(~c & d))


def test_reduction_denominator_product(s3):
    rng = random.Random(5)
    pool = list(conditionals(s3))
    for _ in range(50):
        a = pool[rng.randrange(len(pool))]
        c = pool[rng.randrange(len(pool))]
        x = iter_cond(a, c)
        assert (c & reduce_u(x)) == (a & c)


def test_union_of_members_is_reduction_coset(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    c = cond(s3.event([1]), s3.event([1, 2]))
    x = iter_cond(a, c)
    assert union_of_members(x.members) == expand(reduce_u(x))


def test_iter_cond_builds_each_normalized_pair_once(s3):
    """One object per (a & c, c), with the members a literal scan finds."""
    pool = list(conditionals(s3))
    for a in pool:
        for c in pool:
            x = iter_cond(a, c)
            assert iter_cond(a & c, c) is x
            assert x.members == {m for m in pool if m & c == a & c}


def test_reduction_is_stored_only_once_checked(s3):
    x = iter_cond(cond(s3.event([0]), s3.event([0, 1])), cond(s3.event([1]), s3.event([1, 2])))
    assert x._reduced is None
    assert reduce_u(x) is reduce_u(x) is x._reduced
    for members, fault in [
            # member cosets whose union (6 events) is no coset
            ([cond(s3.event([0]), s3.event([0, 1])), cond(s3.event([1]), s3.event([1]))],
             "not a coset"),
            # a coset, (0|{1,2}), but not the closed form (0|{1})
            ([x.numerator], "differs from closed form")]:
        bogus = IteratedConditional(x.numerator, x.denominator, frozenset(members), x.beta)
        for _ in range(2):
            with pytest.raises(ReductionMismatchError, match=fault):
                reduce_u(bogus)
        assert bogus._reduced is None


def test_iter_cond_space_bound():
    s5 = AtomSpace(5)
    with pytest.raises(SpaceTooLargeError):
        iter_cond(embed(s5.event([0])), embed(s5.one))


def test_higher_order_suite_two_atoms():
    for result in higher_order_suite(AtomSpace(2)):
        assert result.passed, f"{result.name}: {result.detail}"


def test_higher_order_suite_three_atoms_sampled():
    results = higher_order_suite(AtomSpace(3), random.Random(3), samples=400)
    for result in results:
        assert result.passed, f"{result.name}: {result.detail}"
