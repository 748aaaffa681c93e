import itertools
import random
from functools import reduce
from operator import and_, or_, xor

import pytest

import cea.algebra as algebra_module
import cea.conditional as conditional_module
from cea.algebra import (
    COND_TABLE_ATOMS, AtomSpace, Event, MismatchedSpaceError, _event, material_implies,
)
from cea.conditional import (
    ConditionalObject,
    _make,
    bayes_components,
    bounds,
    chain,
    cond,
    conditionals,
    conjoin_all,
    disjoin_all,
    embed,
    sum_all,
)
from cea.coset import classwise, classwise_unary, expand
from cea.engine import (
    KnowledgeBase, Observation, VariableDecl, _mask_lattice, build_space,
)
from cea.formulas import Implies, Leaf, Not
from cea.verify import (
    conditional_law_suite,
    identity_suite,
    nary_consistency_suite,
    oracle_equivalence_suite,
    partial_order_suite,
    comparison_suite,
    Sweep,
)


@pytest.fixture
def s3():
    return AtomSpace(3)


def test_canonical_form(s3):
    a = s3.event([0, 2])
    b = s3.event([0, 1])
    c = cond(a, b)
    assert c.consequent == s3.event([0])
    assert c.antecedent == b
    # different raw consequents agreeing on the antecedent are the same object
    assert cond(s3.event([0]), b) == cond(s3.event([0, 2]), b)


def test_embedding(s3):
    a = s3.event([1, 2])
    assert cond(a, s3.one) == embed(a)
    assert embed(a).ant == a.space.full_mask


def test_zero_antecedent_is_whole_algebra(s3):
    assert cond(s3.event([1]), s3.zero) == cond(s3.zero, s3.zero)
    assert len(expand(cond(s3.zero, s3.zero))) == 8


def test_invalid_canonical_pair_rejected(s3):
    with pytest.raises(ValueError):
        ConditionalObject(s3.event([0]), s3.event([1]))


def test_complement(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    assert ~a == cond(s3.event([1]), s3.event([0, 1]))
    assert ~~a == a
    z = cond(s3.zero, s3.event([0, 1]))
    assert ~z == cond(s3.event([0, 1]), s3.event([0, 1]))
    # classwise complement of the coset agrees
    assert classwise_unary(lambda x: ~x, expand(a)) == expand(~a)


def test_sum_example(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    c = cond(s3.event([1]), s3.event([1, 2]))
    out = a ^ c
    assert out == cond(s3.event([1]), s3.event([1]))
    assert classwise(lambda x, y: x ^ y, expand(a), expand(c)) == expand(out)
    # self-sum annihilates on the shared antecedent
    assert (a ^ a) == cond(s3.zero, a.antecedent)
    # embedded events add like plain events
    x, y = s3.event([0]), s3.event([0, 2])
    assert embed(x) ^ embed(y) == embed(x ^ y)


def test_meet_example(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    c = cond(s3.event([1]), s3.event([1, 2]))
    out = a & c
    assert out == cond(s3.zero, s3.event([1, 2]))
    assert classwise(lambda x, y: x & y, expand(a), expand(c)) == expand(out)
    # multiplying by the embedded antecedent recovers the consequent
    assert a & embed(a.antecedent) == embed(s3.event([0]))
    # shared antecedent: componentwise meet
    c2 = cond(s3.event([1]), s3.event([0, 1]))
    assert a & c2 == cond(s3.zero, s3.event([0, 1]))


def test_join_example(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    c = cond(s3.event([1]), s3.event([1, 2]))
    out = a | c
    assert out == cond(s3.event([0, 1]), s3.event([0, 1]))
    assert classwise(lambda x, y: x | y, expand(a), expand(c)) == expand(out)
    assert (a | ~a) == cond(a.antecedent, a.antecedent)
    c2 = cond(s3.event([1]), s3.event([0, 1]))
    assert a | c2 == cond(s3.event([0, 1]), s3.event([0, 1]))


def test_nary_ops(s3):
    items = [
        cond(s3.event([0]), s3.event([0, 1])),
        cond(s3.event([1]), s3.event([1, 2])),
        cond(s3.event([0, 2]), s3.event([0, 2])),
    ]
    assert conjoin_all(items) == (items[0] & items[1]) & items[2]
    assert disjoin_all(items) == items[0] | (items[1] | items[2])
    assert sum_all(items) == (items[0] ^ items[1]) ^ items[2]
    assert conjoin_all(items[:1]) == items[0]
    with pytest.raises(ValueError):
        conjoin_all([])


class MaskReadSpy:
    """Stands for a conditional and records each read of its masks."""

    def __init__(self, c, reads):
        self.space, self._c, self._reads = c.space, c, reads

    @property
    def cons(self):
        self._reads.append("cons")
        return self._c.cons

    @property
    def ant(self):
        self._reads.append("ant")
        return self._c.ant


def test_nary_forms_refuse_in_order(s3):
    """An empty list is refused first, then a foreign space anywhere in
    the list, before any mask is read and also behind an Event; an Event
    among items of one space has no masks to read."""
    other, twin = AtomSpace(3, ["x", "y", "z"]), AtomSpace(3)
    a, e = cond(s3.event([0]), s3.event([0, 1])), s3.event([1])
    foreign, twin_item = cond(other.event([1]), other.one), cond(twin.event([2]), twin.one)
    for nary in (conjoin_all, disjoin_all, sum_all):
        with pytest.raises(ValueError) as info:
            nary([])
        assert type(info.value) is ValueError
        assert str(info.value) == "need at least one conditional"
        for items in ([a, foreign], [foreign, a], [a, a, twin_item, foreign],
                      [a, e, foreign], [e, a, foreign], [e, foreign], [a, other.one],
                      [twin_item, e, foreign]):
            with pytest.raises(MismatchedSpaceError):
                nary(items)
        reads = []
        with pytest.raises(MismatchedSpaceError):
            nary([MaskReadSpy(a, reads), MaskReadSpy(a, reads), foreign])
        assert reads == []
        for items in ([e], [a, e], [e, a], [a, twin_item, e, a], [twin_item, twin.one]):
            with pytest.raises(AttributeError):
                nary(items)
        reads = []
        assert nary([MaskReadSpy(a, reads), twin_item]) == nary([a, twin_item])
        assert reads.count("cons") == reads.count("ant") == 1


# The list-and-reduce n-ary forms the one-pass loops replaced, kept as
# their oracle: each builds the column of consequents and of antecedents,
# then folds each column.

def list_columns(items):
    if not items:
        raise ValueError("need at least one conditional")
    space = items[0].space
    if any(c.space is not space and c.space != space for c in items):
        raise MismatchedSpaceError("events belong to different atom spaces")
    return space, [c.cons for c in items], [c.ant for c in items]


def list_conjoin_all(items):
    space, cons, ants = list_columns(items)
    ant = reduce(or_, [a & ~c for c, a in zip(cons, ants)], reduce(and_, ants))
    return _make(space, reduce(and_, cons) & ant, ant)


def list_disjoin_all(items):
    space, cons, ants = list_columns(items)
    joined = reduce(or_, cons)
    return _make(space, joined, joined | reduce(and_, ants))


def list_sum_all(items):
    space, cons, ants = list_columns(items)
    ant = reduce(and_, ants)
    return _make(space, reduce(xor, cons) & ant, ant)


def nary_forms_agree(items):
    """Each one-pass form returns the list form's object: the very table
    entry on a space with a conditional table, an equal new object with
    the same masks and space otherwise."""
    tabled = items[0].space._conds is not None
    for fast, slow in ((conjoin_all, list_conjoin_all), (disjoin_all, list_disjoin_all),
                       (sum_all, list_sum_all)):
        f, s = fast(items), slow(items)
        if not (f is s if tabled else f is not s and same(f, s)):
            return False
    return True


def test_one_pass_nary_forms_match_list_forms():
    pool = list(conditionals(AtomSpace(2)))
    for k in range(1, 5):
        for items in itertools.product(pool, repeat=k):
            assert nary_forms_agree(list(items)), items
    for n in (3, 4, 6, 7, 9):
        space = AtomSpace(n)
        assert (space._conds is not None) == (n <= COND_TABLE_ATOMS)
        rng = random.Random(n)

        def draw():
            ant = rng.randrange(1 << n)
            return _make(space, rng.randrange(1 << n) & ant, ant)

        for _ in range(300):
            items = [draw() for _ in range(rng.randint(1, 6))]
            assert nary_forms_agree(items), items
    # two equal spaces in other objects: the result lies in the first item's space
    s3, twin = AtomSpace(3), AtomSpace(3)
    rng = random.Random(3)
    both = list(conditionals(s3)) + list(conditionals(twin))
    for _ in range(300):
        items = [rng.choice(both) for _ in range(rng.randint(1, 6))]
        assert nary_forms_agree(items), items
        assert all(nary(items).space is items[0].space
                   for nary in (conjoin_all, disjoin_all, sum_all))


def test_order_examples(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    c = cond(s3.event([0, 1]), s3.one)
    # consequents grow but the counter-consequent check fails
    assert not a <= c
    assert a <= a
    for x in conditionals(s3):
        assert embed(x.consequent) <= x
        assert x <= embed(material_implies(x.antecedent, x.consequent))


def test_chain_examples(s3):
    a, b, c = s3.event([0]), s3.event([0, 1]), s3.one
    assert chain(cond(a, b & c), cond(b, c)) == cond(a & b, c)
    assert chain(cond(s3.event([0]), s3.event([0, 1])),
                 cond(s3.event([0, 1]), s3.one)) == cond(s3.event([0]), s3.one)
    assert chain(embed(a), embed(s3.one)) == embed(a)


def test_bayes_decomposition(s3):
    parts = [s3.atom(i) for i in range(3)]
    b = s3.event([0, 1])
    comps = bayes_components(b, parts)
    assert comps == [cond(b, p) for p in parts]
    # trivial partition
    assert bayes_components(b, [s3.one]) == [embed(b)]
    # zero event decomposes to zero components
    assert bayes_components(s3.zero, parts) == [cond(s3.zero, p) for p in parts]
    with pytest.raises(ValueError):
        bayes_components(b, [s3.event([0]), s3.event([0, 1])])
    with pytest.raises(ValueError):
        bayes_components(b, [s3.event([0]), s3.event([1])])


def test_bounds_examples(s3):
    a = cond(s3.event([0]), s3.event([0, 1]))
    assert bounds(a) == (s3.event([0]), s3.event([0, 2]))
    e = s3.event([1, 2])
    assert bounds(embed(e)) == (e, e)
    assert bounds(cond(s3.zero, s3.zero)) == (s3.zero, s3.one)


def test_conditionals_enumeration():
    for n in (1, 2, 3):
        space = AtomSpace(n)
        all_conds = list(conditionals(space))
        assert len(all_conds) == 3 ** n
        assert len(set(all_conds)) == 3 ** n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_equivalence_exhaustive(n):
    for result in oracle_equivalence_suite(AtomSpace(n)):
        assert result.passed, f"{result.name}: {result.detail}"


def test_oracle_equivalence_sampled_four_atoms():
    for result in oracle_equivalence_suite(AtomSpace(4), random.Random(11), samples=300):
        assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("suite", [
    conditional_law_suite,
    nary_consistency_suite,
    partial_order_suite,
    identity_suite,
    comparison_suite,
])
def test_conditional_suites_two_atoms(suite):
    for result in suite(AtomSpace(2)):
        assert result.passed, f"{result.name}: {result.detail}"


# The Event-composed closed forms the int-mask kernels replaced, kept as
# their oracle: every intermediate is an Event and every result goes
# through the validating constructor.

def slow_invert(x):
    return ConditionalObject(x.antecedent & ~x.consequent, x.antecedent)


def slow_xor(x, y):
    ant = x.antecedent & y.antecedent
    return ConditionalObject((x.consequent ^ y.consequent) & ant, ant)


def slow_and(x, y):
    ant = ((x.antecedent & ~x.consequent) | (y.antecedent & ~y.consequent)
           | (x.antecedent & y.antecedent))
    return ConditionalObject(x.consequent & y.consequent, ant)


def slow_or(x, y):
    cons = x.consequent | y.consequent
    return ConditionalObject(cons, cons | (x.antecedent & y.antecedent))


def slow_le(x, y):
    return (x.consequent <= y.consequent
            and (y.antecedent & ~y.consequent) <= (x.antecedent & ~x.consequent))


def slow_conjoin_all(items):
    cons = reduce(lambda x, y: x & y, (c.consequent for c in items))
    ant = reduce(lambda x, y: x & y, (c.antecedent for c in items))
    for c in items:
        ant = ant | (c.antecedent & ~c.consequent)
    return ConditionalObject(cons & ant, ant)


def slow_disjoin_all(items):
    cons = reduce(lambda x, y: x | y, (c.consequent for c in items))
    ant = reduce(lambda x, y: x & y, (c.antecedent for c in items))
    return ConditionalObject(cons, cons | ant)


def slow_sum_all(items):
    cons = reduce(lambda x, y: x ^ y, (c.consequent for c in items))
    ant = reduce(lambda x, y: x & y, (c.antecedent for c in items))
    return ConditionalObject(cons & ant, ant)


def slow_conditionals(space):
    for b_mask in range(1 << space.atom_count):
        for a_mask in range(b_mask + 1):
            if a_mask & ~b_mask == 0:
                yield ConditionalObject(
                    space.event_from_mask(a_mask), space.event_from_mask(b_mask))


def same(fast, slow):
    """Exact agreement: equal objects, equal mask pairs, same space."""
    return (fast == slow
            and (fast.consequent.mask, fast.antecedent.mask)
            == (slow.consequent.mask, slow.antecedent.mask)
            and fast.consequent.space is slow.consequent.space
            and fast.antecedent.space is slow.antecedent.space)


def kernels_agree(items):
    x, y = items[0], items[1]
    return (same(~x, slow_invert(x)) and same(x ^ y, slow_xor(x, y))
            and same(x & y, slow_and(x, y)) and same(x | y, slow_or(x, y))
            and (x <= y) == slow_le(x, y)
            and same(conjoin_all(items), slow_conjoin_all(items))
            and same(disjoin_all(items), slow_disjoin_all(items))
            and same(sum_all(items), slow_sum_all(items)))


def test_int_kernels_match_event_forms():
    for n in (2, 3):
        space = AtomSpace(n)
        pool = list(conditionals(space))
        slow_pool = list(slow_conditionals(space))
        assert len(pool) == len(slow_pool) == 3 ** n
        assert all(same(f, s) for f, s in zip(pool, slow_pool))
        for x, y in itertools.product(pool, repeat=2):
            assert kernels_agree([x, y]), (x, y)
        for a, b in itertools.product(list(space.events()), repeat=2):
            assert same(cond(a, b), ConditionalObject(a & b, b)), (a, b)
            assert same(embed(a), ConditionalObject(a, space.one)), a
    space = AtomSpace(4)
    pool = list(conditionals(space))
    rng = random.Random(4)
    for _ in range(3000):
        triple = [rng.choice(pool) for _ in range(3)]
        assert kernels_agree(triple), triple
        assert kernels_agree(triple[::-1]), triple
    # the kernels keep the space check and the containment check
    s3, other = AtomSpace(3), AtomSpace(3, ["x", "y", "z"])
    a, c = cond(s3.event([0]), s3.event([0, 1])), cond(other.event([1]), other.one)
    for op in (lambda p, q: p & q, lambda p, q: p | q, lambda p, q: p ^ q,
               lambda p, q: p <= q, lambda p, q: conjoin_all([p, q]),
               lambda p, q: disjoin_all([p, q]), lambda p, q: sum_all([p, q]),
               lambda p, q: cond(p.consequent, q.antecedent),
               lambda p, q: p.consequent & q.antecedent,
               lambda p, q: p.consequent | q.antecedent,
               lambda p, q: p.consequent ^ q.antecedent,
               lambda p, q: p.consequent <= q.antecedent):
        with pytest.raises(MismatchedSpaceError):
            op(a, c)
        with pytest.raises(MismatchedSpaceError):
            op(c, a)
    # an equal space that is another object combines
    twin = AtomSpace(3)
    b = cond(twin.event([0, 2]), twin.one)
    assert a & b == slow_and(a, b) and a <= a | b and b | a == a | b
    # equal masks over different spaces are different conditionals
    assert cond(s3.event([1]), s3.one) != c and hash(cond(s3.event([1]), s3.one)) == hash(c)
    with pytest.raises(ValueError):
        ConditionalObject(s3.event([0]), s3.event([1]))
    with pytest.raises(ValueError):
        _make(s3, 0b001, 0b010)


def interval_kernel(n):
    """The engine's cpl kernel on the n atoms of one n-valued variable,
    all values observed: its space, its base entry, pack (the rule arrow
    applied to a conditional's own masks) and unpack (its wrap)."""
    kb = KnowledgeBase([VariableDecl("v", "data-attribute", [str(i) for i in range(n)])], [])
    grounding = build_space(kb)
    obs = Observation(kb, {"v": kb.variable("v").domain})
    _, _, base, _, arrow, wrap = _mask_lattice(grounding, obs, "cpl")
    return grounding.space, base, lambda x: arrow(x.ant, x.cons), wrap


@pytest.mark.parametrize("n", [3, 7])
def test_conditional_ops_act_on_the_interval_bound_by_bound(n):
    """A conditional is the interval of its coset, bounds(x) = (a&b, b' | a).
    The binary meet and join, conjoin_all and disjoin_all give the
    interval whose bounds are the AND, or the OR, of their operands'
    bounds, one bound at a time; lo | hi << n packs it and unpacks back.
    Every pair and triple on 3 atoms (tabled), seeded ones on 7."""
    space, base, pack, unpack = interval_kernel(n)
    if n == 3:
        pool = list(conditionals(space))
        cases = itertools.chain(itertools.product(pool, repeat=2),
                                itertools.product(pool, repeat=3))
    else:
        rng = random.Random(n)

        def draw():
            ant = rng.getrandbits(n)
            return _make(space, rng.getrandbits(n) & ant, ant)

        pool = [draw() for _ in range(300)]
        cases = [[draw() for _ in range(arity)] for arity in (2, 3) for _ in range(1000)]
    assert base == [pack(embed(space.one))]
    for x in pool:
        lo, hi = bounds(x)
        assert pack(x) == lo.mask | hi.mask << n
        assert unpack(pack(x)) == x
        assert n > COND_TABLE_ATOMS or unpack(pack(x)) is x
    for items in cases:
        for binary, nary, bitwise in ((ConditionalObject.__and__, conjoin_all, and_),
                                      (ConditionalObject.__or__, disjoin_all, or_)):
            want = tuple(reduce(bitwise, column) for column in zip(*map(bounds, items)))
            if len(items) == 2:
                assert bounds(binary(*items)) == want, items
            assert bounds(nary(items)) == want, items
            assert unpack(reduce(bitwise, map(pack, items))) == nary(items), items


# The meet, order and complement in cons/ant form, as they read before the
# false region was stored, kept as the oracle of the operators: each
# derives every false region a & ~c from the two masks it reads.

def two_mask_and(x, y):
    c1, a1, c2, a2 = x.cons, x.ant, y.cons, y.ant
    return c1 & c2, (a1 & ~c1) | (a2 & ~c2) | (a1 & a2)


def two_mask_le(x, y):
    c1, a1, c2, a2 = x.cons, x.ant, y.cons, y.ant
    return c1 & ~c2 == 0 and a2 & ~c2 & ~(a1 & ~c1) == 0


def two_mask_invert(x):
    return x.ant & ~x.cons, x.ant


def built_as(result, masks, x, y):
    """result is the conditional masks of x's space: the table's object
    where x's space has a table, else an equal new object."""
    space, (cons, ant) = x.space, masks
    if space._conds is not None:
        return result is space._conds[ant << space.atom_count | cons]
    return (result is not x and result is not y and result.space is space
            and (result.cons, result.ant) == masks)


def test_meet_order_complement_match_two_mask_forms():
    """Every pair on 1 to 3 atoms, 300 seeded pairs on 4 atoms (fully
    tabled), 7 (events tabled only) and 9 (no table), and 300 pairs
    mixing two equal AtomSpace(3) objects."""
    cases = []
    for n in (1, 2, 3):
        cases += itertools.product(list(conditionals(AtomSpace(n))), repeat=2)
    for n in (4, 7, 9):
        space, rng = AtomSpace(n), random.Random(n)

        def draw():
            ant = rng.getrandbits(n)
            return _make(space, rng.getrandbits(n) & ant, ant)

        cases += [(draw(), draw()) for _ in range(300)]
    rng = random.Random(33)
    both = list(conditionals(AtomSpace(3))) + list(conditionals(AtomSpace(3)))
    cases += [(rng.choice(both), rng.choice(both)) for _ in range(300)]
    assert any(x.space is not y.space for x, y in cases[-300:])
    for x, y in cases:
        assert built_as(x & y, two_mask_and(x, y), x, y), (x, y)
        assert (x <= y) is two_mask_le(x, y), (x, y)
        assert built_as(~x, two_mask_invert(x), x, x), x
    s3, other = AtomSpace(3), AtomSpace(3, ["x", "y", "z"])
    a, c = cond(s3.event([0]), s3.event([0, 1])), cond(other.event([1]), other.one)
    for p, q in ((a, c), (c, a)):
        with pytest.raises(MismatchedSpaceError):
            p <= q
        with pytest.raises(MismatchedSpaceError):
            p & q


def off_is_the_false_region(c):
    return c.off == c.ant & ~c.cons


def test_mask_slots_and_event_views():
    assert ConditionalObject.__slots__ == ("space", "cons", "ant", "off", "_hash")
    for n in (2, 3):
        space = AtomSpace(n)
        for c in conditionals(space):
            for view, mask in ((c.consequent, c.cons), (c.antecedent, c.ant)):
                assert type(view) is Event and view.space is c.space and view.mask == mask
            # a tabled space hands out its one Event per mask
            assert c.consequent is c.consequent and c.antecedent is space._events[c.ant]
            rebuilt = ConditionalObject(c.consequent, c.antecedent)
            assert rebuilt == c and hash(rebuilt) == hash(c) == hash((c.cons, c.ant))
            assert (rebuilt.space, rebuilt.cons, rebuilt.ant, rebuilt.off) == (
                c.space, c.cons, c.ant, c.off)
            assert off_is_the_false_region(c) and off_is_the_false_region(rebuilt)
            assert repr(c) == f"({c.consequent!r}|{c.antecedent!r})"
            with pytest.raises(AttributeError):
                c.consequent = c.antecedent
            with pytest.raises(AttributeError):
                c.antecedent = c.consequent
            assert not hasattr(c, "__dict__")
        with pytest.raises(ValueError) as info:
            ConditionalObject(space.event([0]), space.event([1]))
        assert not isinstance(info.value, MismatchedSpaceError)
        other = AtomSpace(n, [f"x{i}" for i in range(n)])
        with pytest.raises(MismatchedSpaceError):
            ConditionalObject(space.event([0]), other.one)
        with pytest.raises(MismatchedSpaceError):
            ConditionalObject(other.zero, space.one)
    # past EVENT_TABLE_ATOMS the views are built on each read: equal, not identical
    big = AtomSpace(9)
    c = cond(big.event([0, 8]), big.event([0, 1, 8]))
    assert big._events is None
    assert c.consequent == c.consequent and c.consequent is not c.consequent
    assert c.antecedent == big.event([0, 1, 8]) and c.antecedent is not c.antecedent
    # every builder and every operator result stores off as ant & ~cons,
    # on tabled (3, 4) and untabled (7, 9) spaces
    for n in (3, 4, 7, 9):
        space, rng = AtomSpace(n), random.Random(n)

        def ev():
            return space.event_from_mask(rng.getrandbits(n))

        pool = [cond(ev(), ev()) for _ in range(40)]
        pool += [ConditionalObject(a & b, b) for a, b in ((ev(), ev()) for _ in range(40))]
        pool += [_make(space, rng.getrandbits(n) & ant, ant)
                 for ant in (rng.getrandbits(n) for _ in range(40))]
        pool += [embed(ev()) for _ in range(40)]
        if n <= 4:
            pool += conditionals(space)
        for x in pool:
            assert off_is_the_false_region(x) and off_is_the_false_region(~x), x
        for x, y, z in (rng.sample(pool, 3) for _ in range(300)):
            results = (x & y, x | y, x ^ y, conjoin_all([x, y, z]),
                       disjoin_all([x, y, z]), sum_all([x, y, z]), chain(x, y))
            assert all(map(off_is_the_false_region, results)), (x, y, z)


# The forms that embed, material_implies, zero, one, events() and both
# hashes computed on every call, kept as the oracle of the reads that a
# table or a slot may serve instead.

def rebuilt_embed(a):
    return _make(a.space, a.mask, a.space.full_mask)


def rebuilt_implies(b, a):
    return ~b | a


def rebuilt_events(space):
    return [_event(space, mask) for mask in range(1 << space.atom_count)]


def read_as(result, want, table, key, operands):
    """result is want: the table's object where there is a table, else an
    equal new object of want's space, none of operands."""
    if table is not None:
        return result is table[key] is want
    return (result == want and type(result) is type(want) and result is not want
            and result.space is want.space and all(result is not x for x in operands))


def test_table_and_slot_reads_match_rebuilt_forms():
    """hash, embed, material_implies, zero, one and events() against the
    forms they rebuilt on every call: every case on 1 to 4 atoms, 300
    seeded cases on 6 atoms (both tables), 7 (events tabled only) and 9
    (no table); two equal spaces, a foreign one, implication sides
    grounded on ints by Grounding.ground_table, and events on 70 atoms,
    whose masks pass 2**63."""
    for n in (1, 2, 3, 4, 6, 7, 9):
        space, rng = AtomSpace(n), random.Random(n)
        full, events, conds = space.full_mask, space._events, space._conds
        rebuilt = rebuilt_events(space)
        listed = space.events()
        assert iter(listed) is listed
        listed = list(listed)
        assert len(listed) == len(rebuilt) == 1 << n
        assert all(read_as(got, want, events, want.mask, ()) for got, want in zip(listed, rebuilt))
        for got, mask in ((space.zero, 0), (space.one, full)):
            assert read_as(got, _event(space, mask), events, mask, ()), (n, mask)
        if n <= 4:
            singles = rebuilt
            pairs = list(itertools.product(rebuilt, repeat=2))
            pool = list(conditionals(space))
            cond_pairs = list(itertools.product(pool, repeat=2))
            triples = [(x, y, pool[i % len(pool)]) for i, (x, y) in enumerate(cond_pairs)]
        else:
            def ev():
                return space.event_from_mask(rng.getrandbits(n))

            def cnd():
                ant = rng.getrandbits(n)
                return _make(space, rng.getrandbits(n) & ant, ant)

            singles = [ev() for _ in range(300)]
            pairs = [(ev(), ev()) for _ in range(300)]
            pool = [cnd() for _ in range(300)]
            cond_pairs = [(cnd(), cnd()) for _ in range(300)]
            triples = [(cnd(), cnd(), cnd()) for _ in range(300)]
        for a in singles:
            got = embed(a)
            assert read_as(got, rebuilt_embed(a), conds, full << n | a.mask, (a,)), a
            assert hash(a) == hash(a.mask) and hash(got) == hash((got.cons, got.ant))
        for b, a in pairs:
            mask = full & ~b.mask | a.mask
            assert read_as(material_implies(b, a), rebuilt_implies(b, a), events, mask, (a, b))
            for e in (b & a, b | a, b ^ a, ~b, material_implies(b, a)):
                assert hash(e) == hash(e.mask), e
        built = list(pool)
        built += [ConditionalObject(c.consequent, c.antecedent) for c in pool]
        built += [cond(c.consequent, c.antecedent) for c in pool]
        for x, y in cond_pairs:
            built += [x & y, x | y, x ^ y, ~x, chain(x, y)]
        for x, y, z in triples:
            built += [conjoin_all([x, y, z]), disjoin_all([x, y, z]), sum_all([x, y, z])]
        assert all(hash(c) == hash((c.cons, c.ant)) for c in built)
    # two equal spaces give the left operand's entry; a foreign one is refused
    s3, twin, foreign = AtomSpace(3), AtomSpace(3), AtomSpace(3, ["x", "y", "z"])
    for b, a in itertools.product(s3.events(), twin.events()):
        assert material_implies(b, a) is s3._events[7 & ~b.mask | a.mask]
        assert material_implies(a, b) is twin._events[7 & ~a.mask | b.mask]
        other = foreign.event_from_mask(a.mask)
        for p, q in ((b, other), (other, b)):
            with pytest.raises(MismatchedSpaceError):
                material_implies(p, q)
    big, labelled = AtomSpace(9), AtomSpace(9, [f"x{i}" for i in range(9)])
    for p, q in ((big.atom(0), labelled.atom(1)), (labelled.zero, big.one)):
        with pytest.raises(MismatchedSpaceError):
            material_implies(p, q)
    # the engine grounds implication sides on ints, through ground_table
    x_dom, d_dom = ["0", "1", "2"], ["p", "q"]
    kb = KnowledgeBase([VariableDecl("x", "data-attribute", x_dom),
                        VariableDecl("d", "diagnosis", d_dom)], [])
    grounding = build_space(kb)
    full, prim = grounding.space.full_mask, grounding.primitive_mask
    # each side: the formula, its own variables, and its two arms' masks
    # at an assignment of them
    for f, own, arms in (
            (Implies(Leaf("x"), Not(Leaf("d"))), {"x": x_dom, "d": d_dom},
             lambda x, d: (prim("x", x), full & ~prim("d", d))),
            (Implies(Leaf("x", ["0", "2"]), Leaf("d")), {"d": d_dom},
             lambda d: (prim("x", "0") | prim("x", "2"), prim("d", d))),
            (Implies(Leaf("x"), Leaf("d", ["q"])), {"x": x_dom},
             lambda x: (prim("x", x), prim("d", "q")))):
        combos = itertools.product(*own.values())
        want = [full & ~b | a for b, a in itertools.starmap(arms, combos)]
        assert grounding.ground_table(f, None, own) == want, f
    # past 2**61 - 1 an int's hash is no longer the int itself: equal
    # events still hash equally, whichever space object holds them
    wide, wide_twin = AtomSpace(70), AtomSpace(70)
    masks = [0, 1, 2**61 - 2, 2**61 - 1, 2**61, 2**62 + 5, 2**63 - 1, 2**63, 2**64 + 3,
             2**70 - 1]
    for m in masks:
        x, y, z = wide.event_from_mask(m), wide.event_from_mask(m), wide_twin.event_from_mask(m)
        assert x is not y and x == y == z and hash(x) == hash(y) == hash(z)
        assert y in {x} and z in {x} and len({x, y, z}) == 1 and {x: m}[z] == m
        c = cond(x, wide.one)
        assert hash(c) == hash((c.cons, c.ant)) and c in {embed(z)}
    assert len({wide.event_from_mask(m) for m in masks}) == len(masks)
    assert wide.one in {wide_twin.event_from_mask(2**70 - 1)} and wide.zero == wide_twin.zero
    assert material_implies(wide.zero, wide_twin.atom(69)) == wide_twin.one


def test_sweep_sample_stream_matches_event_draws():
    """The sampled Sweep draws masks; the stream of the Event-built draws
    it replaced, kept here as its oracle, must come out tuple for tuple,
    each object the table entry where the space has a table, and must
    leave the generator in the oracle's state after a whole row and after
    a row stopped at its k-th tuple, as a failing row stops. 3 and 4
    atoms are fully tabled, 7 has no conditional table, 9 no table."""
    for n, seed, arity in itertools.product((3, 4, 7, 9), range(5), range(1, 5)):
        space = AtomSpace(n)

        def ev():
            return space.event_from_mask(rng.randrange(1 << n))

        def cnd():
            return cond(ev(), ev())

        def same_event(x, y):
            return (x.mask, x.space) == (y.mask, y.space) and x.space is space

        for kind, draw, agree, table in (("events", ev, same_event, space._events),
                                         ("conds", cnd, same, space._conds)):
            stops = (1, 2, 1 + seed * 50 + arity, 300)
            rng = random.Random(seed)
            expected, states = [], {}
            for k in range(1, 301):
                expected.append(tuple(draw() for _ in range(arity)))
                if k in stops:
                    states[k] = rng.getstate()
            sweep_rng = random.Random(seed)
            got = list(Sweep(space, sweep_rng, 300).tuples(kind, arity))
            assert len(got) == 300 and sweep_rng.getstate() == states[300]
            for g, e in zip(got, expected):
                assert len(g) == arity and all(agree(x, y) for x, y in zip(g, e)), (g, e)
                assert all((x is y) == (table is not None) for x, y in zip(g, e))
            for k in stops[:-1]:
                sweep_rng = random.Random(seed)
                rows = Sweep(space, sweep_rng, 300).tuples(kind, arity)
                assert [next(rows) for _ in range(k)] == got[:k]
                assert sweep_rng.getstate() == states[k], (n, seed, arity, kind, k)


# The allocating builders the hash-consing tables replaced, kept as their
# oracle: with these patched in and the space's tables taken away (the
# operators read them without a builder call), every result is a new object.

def alloc_event(space, mask, peer=None):
    if peer is not space and peer is not None and peer != space:
        raise MismatchedSpaceError("events belong to different atom spaces")
    event = object.__new__(Event)
    event.space, event.mask = space, mask
    return event


def alloc_make(space, cons, ant, peer=None):
    if peer is not space and peer is not None and peer != space:
        raise MismatchedSpaceError("events belong to different atom spaces")
    if cons & ~ant:
        raise ValueError("consequent must be contained in the antecedent")
    out = object.__new__(ConditionalObject)
    out.space, out.cons, out.ant, out.off = space, cons, ant, ant & ~cons
    out._hash = hash((cons, ant))
    return out


TABLED_OPS = (
    lambda x, y, z: x & y, lambda x, y, z: x | y, lambda x, y, z: x ^ y,
    lambda x, y, z: ~x, lambda x, y, z: x <= y,
    lambda x, y, z: cond(x.consequent, y.antecedent),
    lambda x, y, z: embed(x.consequent ^ y.antecedent),
    lambda x, y, z: conjoin_all([x, y, z]), lambda x, y, z: disjoin_all([x, y, z]),
    lambda x, y, z: sum_all([x, y, z]),
    lambda x, y, z: x.consequent & y.antecedent, lambda x, y, z: x.antecedent | ~z.consequent,
)


def run_ops(space, triples, allocating, monkeypatch):
    with monkeypatch.context() as m:
        if allocating:
            m.setattr(space, "_events", None)
            m.setattr(space, "_conds", None)
            m.setattr(algebra_module, "_event", alloc_event)
            m.setattr(conditional_module, "_event", alloc_event)
            m.setattr(conditional_module, "_make", alloc_make)
        return [[op(*t) for op in TABLED_OPS] for t in triples]


def is_table_entry(r, space):
    n = space.atom_count
    if isinstance(r, Event):
        return space._events is not None and r is space._events[r.mask]
    return space._conds is not None and r is space._conds[r.ant << n | r.cons]


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 8, 9])
def test_tabled_builders_match_allocating_builders(n, monkeypatch):
    space = AtomSpace(n)
    assert (space._events is not None) == (n <= 8)
    assert (space._conds is not None) == (n <= 6)
    if n <= 3:
        pool = list(conditionals(space))
        triples = [(x, y, pool[(i + j) % len(pool)])
                   for i, x in enumerate(pool) for j, y in enumerate(pool)]
    else:
        rng = random.Random(n)

        def draw():
            ant = rng.randrange(1 << n)
            return _make(space, rng.randrange(1 << n) & ant, ant)

        triples = [(draw(), draw(), draw()) for _ in range(400)]
    fast = run_ops(space, triples, False, monkeypatch)
    slow = run_ops(space, triples, True, monkeypatch)
    for t, f_row, s_row in zip(triples, fast, slow):
        for f, s in zip(f_row, s_row):
            if isinstance(f, bool):
                assert f == s, t
                continue
            assert f == s and type(f) is type(s) and s is not f, t
            if isinstance(f, Event):
                assert f.mask == s.mask and f.space is s.space is space
                assert is_table_entry(f, space) == (n <= 8)
            else:
                assert same(f, s), t
                assert is_table_entry(f, space) == (n <= 6)
    if n <= 8:
        fast = list(conditionals(space))
        with monkeypatch.context() as m:
            m.setattr(conditional_module, "_make", alloc_make)
            slow = list(conditionals(space))
        assert len(fast) == len(slow) and all(same(f, s) for f, s in zip(fast, slow))
        assert all(is_table_entry(f, space) == (n <= 6) for f in fast)
        assert all(a is b for a, b in zip(fast, conditionals(space))) == (n <= 6)


def test_tabled_builders_keep_their_checks(monkeypatch):
    space = AtomSpace(3)
    other, twin = AtomSpace(3, ["x", "y", "z"]), AtomSpace(3)
    a = cond(space.event([0]), space.event([0, 1]))
    hit = _make(space, 0b001, 0b011)
    assert hit is a and space._events[0b011] is space.event([0, 1])
    # a foreign space is refused even where the masks hit both tables,
    # every slot filled, with either operand on the left
    assert len(list(conditionals(space))) == len(list(conditionals(other))) == 27
    foreign = cond(other.event([0]), other.event([0, 1]))
    for op in (lambda p, q: p & q, lambda p, q: p | q, lambda p, q: p ^ q,
               lambda p, q: ~p & q, lambda p, q: ~p | ~q, lambda p, q: ~p ^ q,
               lambda p, q: p <= q, lambda p, q: conjoin_all([p, q]),
               lambda p, q: cond(p.consequent, q.antecedent),
               lambda p, q: p.antecedent & q.antecedent, lambda p, q: p.antecedent | q.antecedent,
               lambda p, q: p.antecedent ^ q.antecedent, lambda p, q: ~p.antecedent & q.consequent,
               lambda p, q: ~p.antecedent | ~q.antecedent):
        for p, q in ((a, foreign), (foreign, a)):
            with pytest.raises(MismatchedSpaceError):
                op(p, q)
    with pytest.raises(MismatchedSpaceError):
        _make(space, 0b001, 0b011, other)
    # an equal space held in another object combines, into the left space's table
    b = cond(twin.event([0]), twin.event([0, 1]))
    assert a & b is a and a | b is hit and (a ^ b) is space._conds[0b011 << 3]
    assert (b & a).space is twin and b & a is twin._conds[0b011 << 3 | 0b001]
    x, y = space.event([0, 1]), twin.event([1, 2])
    assert x & y is space._events[0b010] and x | y is space._events[0b111]
    assert x ^ y is space._events[0b101] and y ^ x is twin._events[0b101]
    assert cond(y, x) is space._conds[0b011 << 3 | 0b010]
    # a refused pair never enters the table, and a slot is filled only by _make
    fresh = AtomSpace(3)
    with pytest.raises(ValueError):
        _make(fresh, 0b001, 0b010)
    with pytest.raises(MismatchedSpaceError):
        _make(fresh, 0b001, 0b011, other)
    c = ConditionalObject(fresh.event([0]), fresh.event([0, 1]))
    for op in (lambda p, q: p & q, lambda p, q: p | q, lambda p, q: p ^ q,
               lambda p, q: cond(p.consequent, q.antecedent),
               lambda p, q: cond(q.consequent, p.antecedent)):
        with pytest.raises(MismatchedSpaceError):
            op(c, foreign)
    assert fresh._conds == [None] * 64
    made = []

    def recording_make(*args):
        made.append(args[1:3])
        return _make(*args)

    monkeypatch.setattr(conditional_module, "_make", recording_make)
    d = ~c
    assert made == [(0b010, 0b011)] and fresh._conds[0b011 << 3 | 0b010] is d
    e = c & d
    assert made[1:] == [(0, 0b011)] and fresh._conds[0b011 << 3] is e
    assert ~c is d and d & c is e and c ^ d & c is fresh._conds[0b011 << 3 | 0b001]
    assert made[2:] == [(0b001, 0b011)]
    assert [i for i, slot in enumerate(fresh._conds) if slot] == [0b011000, 0b011001, 0b011010]
