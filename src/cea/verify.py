"""Exhaustive and sampled verification suites.

Every compact formula in the conditional calculus is validated against
the literal coset oracle, and every algebraic law is swept over all
tuples of a small space (or a seeded sample of tuples on larger ones).
Each check returns a CheckResult carrying a witness on failure, so a
broken law is reported with the exact inputs that break it.

Every check is one row. A swept law is (name, kind, arity, predicate),
kind "events" or "conds"; any other check is (name, source, predicate),
whose cases source() produces when the row's turn comes. `_run` checks
a suite's rows in order against one Sweep, so they share its seeded
stream, and `_check` is the one place a row passes or fails.

Where the printed source of an identity was ambiguous, the suite checks
the empirically-true resolved form; the resolved choices are recorded
as golden facts (see GOLDEN_FACTS) so they stay locked down.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import random
from contextlib import contextmanager
from functools import cache, partial, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .algebra import AtomSpace, Event, _event, material_implies
from .conditional import (
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
from .coset import (class_intersect, classwise, classwise_unary, expand,
                    intersection_criterion, recognize, subset_criterion)
from .higher import (
    iter_cond,
    iter_equal,
    members_complement,
    members_extension,
    reduce_u,
    union_of_members,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    detail: str = ""


def _check(name: str, cases: Callable[[], Iterable], pred: Callable[..., object]) -> CheckResult:
    """Run pred on each case that cases() produces until one fails. pred
    returns True when its case holds, and False or a string naming what
    broke when it does not. A case on which pred raises fails too, with
    the exception in the detail, and so does an exception raised while
    producing a case; either way the rows and sections after it still
    run."""
    count = 0
    try:
        for case in cases():
            count += 1
            try:
                ok = pred(*case)
            except Exception as exc:
                return CheckResult(name, False, count, f"witness {case!r} {_raised(exc)}")
            if ok is not True and (not ok or isinstance(ok, str)):
                broke = f": {ok}" if ok else ""
                return CheckResult(name, False, count, f"witness {case!r}{broke}")
    except Exception as exc:
        return CheckResult(name, False, count, f"drawing case {count + 1} {_raised(exc)}")
    return CheckResult(name, True, count)


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


class Sweep:
    """Tuple source: exhaustive for small spaces, seeded-random otherwise.

    A sampled event is one mask draw, and a sampled conditional two, the
    consequent's first, giving (cons & ant | ant). A draw on n atoms
    reads getrandbits(n + 1) until the top bit is clear, as randrange(1
    << n) does on CPython 3.10-3.13, so the stream is randrange's; the
    stream test in tests/test_conditional.py pins the tuples and the
    generator's state after a row. rng must be a random.Random, not a
    subclass that overrides random(), whose randrange draws otherwise.
    Objects come from the space's tables where it has them."""

    def __init__(self, space: AtomSpace, rng: Optional[random.Random] = None,
                 samples: int = 10000):
        self.space = space
        self.rng = rng
        self.samples = samples
        self.exhaustive = rng is None

    def tuples(self, kind: str, arity: int) -> Iterator[tuple]:
        """Every arity-tuple of the kind's elements, or `samples` drawn
        ones, each drawn when it is asked for and not before."""
        space, n = self.space, self.space.atom_count
        if self.exhaustive:
            pool = space.events() if kind == "events" else conditionals(space)
            return itertools.product(list(pool), repeat=arity)
        # randrange(1 << n): getrandbits(n + 1) until the top bit is clear
        draws = map(self.rng.getrandbits, itertools.repeat(n + 1))
        masks = filter(partial(operator.gt, 1 << n), draws)
        if kind == "events":
            table = space._events
            objects = map(partial(_event, space) if table is None else table.__getitem__, masks)
        else:
            table = space._conds

            def conditional(cons: int, ant: int) -> ConditionalObject:
                cons &= ant
                # the table's entry, or _make's, which fills an empty slot
                return table and table[ant << n | cons] or _make(space, cons, ant)

            objects = map(conditional, masks, masks)  # consequent first
        # zip over one iterator repeated: each tuple takes the next arity objects
        return itertools.islice(zip(*[objects] * arity), self.samples)


def _run(sweep: Sweep, rows: Iterable[tuple]) -> list[CheckResult]:
    """The driver: each row (name, kind, arity, predicate) is checked
    over its own tuples from the one sweep, in order, so the rows of a
    sampled sweep share its seeded stream. A row (name, source,
    predicate) takes its cases from source(), called when the row's
    turn comes."""
    out = []
    for name, *source, pred in rows:
        cases = source[0] if len(source) == 1 else partial(sweep.tuples, *source)
        out.append(_check(name, cases, pred))
    return out


# ---------------------------------------------------------------------------
# event-level algebra laws and the implication calculus
# ---------------------------------------------------------------------------

def ring_lattice_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    zero = space.zero
    return _run(Sweep(space, rng, samples), [
        ("sum_commutative", "events", 2, lambda a, b: a ^ b == b ^ a),
        ("sum_associative", "events", 3, lambda a, b, c: (a ^ b) ^ c == a ^ (b ^ c)),
        ("sum_identity", "events", 1, lambda a: a ^ zero == a),
        ("sum_self_inverse", "events", 1, lambda a: (a ^ a) == zero),
        ("meet_distributes_over_sum", "events", 3,
         lambda a, b, c: a & (b ^ c) == (a & b) ^ (a & c)),
        ("meet_idempotent", "events", 1, lambda a: a & a == a),
        ("lattice_absorption", "events", 2,
         lambda a, b: (a & (a | b) == a) and (a | (a & b) == a)),
        ("lattice_distributive", "events", 3,
         lambda a, b, c: (a & (b | c) == (a & b) | (a & c))
         and (a | (b & c) == (a | b) & (a | c))),
        ("de_morgan", "events", 2,
         lambda a, b: (~(a & b) == ~a | ~b) and (~(a | b) == ~a & ~b)),
        ("double_complement", "events", 1, lambda a: ~~a == a),
        ("implication_pointwise", "events", 2,
         lambda a, b: all(
             (i in material_implies(b, a)) == ((i not in b) or (i in a))
             for i in range(space.atom_count))),
    ])


def _sum_parity_forms(tup: Sequence[Event]) -> tuple[bool, bool]:
    """For tup = (a_1, ..., a_m, b): whether the sum of the b => a_i
    equals b => (sum of the a_i), and whether it equals (sum of the
    a_i) & b."""
    *heads, b = tup
    total = reduce(operator.xor, [material_implies(b, a) for a in heads])
    xor_a = reduce(operator.xor, heads)
    return total == material_implies(b, xor_a), total == xor_a & b


def implication_identity_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """The implication calculus, with garbled-in-print forms resolved to
    the variants that actually hold (checked here, locked as golden)."""
    one = space.one
    imp = material_implies
    quarter = Sweep(space, rng, max(1, samples // 4))
    return _run(Sweep(space, rng, samples), [
        ("implication_absorbs_consequent", "events", 2,
         lambda a, b: imp(b, a) == imp(b, a & b)),
        ("unit_antecedent_collapses", "events", 1, lambda a: imp(one, a) == a),
        ("zero_antecedent_is_vacuous", "events", 1, lambda a: imp(space.zero, a) == one),
        ("chaining_decomposition", "events", 3,
         lambda a, b, c: imp(c, a & b) == imp(c, b) & imp(b & c, a)),
        ("implication_complement", "events", 2, lambda a, b: ~imp(b, a) == ~a & b),
        ("join_of_implications", "events", 4,
         lambda a1, b1, a2, b2: imp(b1, a1) | imp(b2, a2) == imp(b1 & b2, a1 | a2)),
        ("meet_of_implications", "events", 4,
         lambda a1, b1, a2, b2:
         imp(b1, a1) & imp(b2, a2)
         == imp((~a1 & b1) | (~a2 & b2) | (b1 & b2), a1 & a2)),
        ("shared_antecedent_join", "events", 3,
         lambda a1, a2, b: imp(b, a1) | imp(b, a2) == imp(b, a1 | a2)),
        ("shared_antecedent_meet", "events", 3,
         lambda a1, a2, b: imp(b, a1) & imp(b, a2) == imp(b, a1 & a2)),
        # odd m: the implication form holds; even m: the restricted sum
        *((f"shared_antecedent_sum_parity_m{m}", partial(quarter.tuples, "events", m + 1),
           lambda *tup, even=m % 2 == 0: _sum_parity_forms(tup)[even])
          for m in (1, 2, 3, 4)),
    ])


def sum_parity_resolution(space: AtomSpace) -> dict:
    """Determine empirically which closed form the shared-antecedent sum
    takes for odd and for even arity."""
    names = {(True, False): "implication_of_sum",
             (False, True): "sum_restricted_to_antecedent",
             (True, True): "both", (False, False): "neither"}
    resolution = {}
    for m, key in ((3, "odd"), (2, "even")):
        forms = [_sum_parity_forms(tup) for tup in Sweep(space).tuples("events", m + 1)]
        resolution[key] = names[all(imp for imp, _ in forms), all(prod for _, prod in forms)]
    return resolution


# ---------------------------------------------------------------------------
# coset oracle equivalence
# ---------------------------------------------------------------------------

def oracle_equivalence_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """Compact formulas vs the classwise extension of expanded cosets."""
    return _run(Sweep(space, rng, samples), [
        ("coset_extension_complement", "conds", 1,
         lambda a: classwise_unary(operator.invert, expand(a)) == expand(~a)),
        ("coset_extension_sum", "conds", 2,
         lambda a, c: classwise(operator.xor, expand(a), expand(c)) == expand(a ^ c)),
        ("coset_extension_join", "conds", 2,
         lambda a, c: classwise(operator.or_, expand(a), expand(c)) == expand(a | c)),
        ("coset_extension_meet", "conds", 2,
         lambda a, c: classwise(operator.and_, expand(a), expand(c)) == expand(a & c)),
    ])


# ---------------------------------------------------------------------------
# laws of the conditional space
# ---------------------------------------------------------------------------

def conditional_law_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    zero = embed(space.zero)
    one = embed(space.one)
    # additive inverses fail: a proper antecedent confines every sum
    # inside itself, so the embedded zero is unreachable.
    witness = cond(space.zero, ~space.atom(0))
    return _run(Sweep(space, rng, samples), [
        ("cond_commutative", "conds", 2,
         lambda a, c: a ^ c == c ^ a and a | c == c | a and a & c == c & a),
        ("cond_associative", "conds", 3,
         lambda a, c, e: ((a ^ c) ^ e == a ^ (c ^ e))
         and ((a | c) | e == a | (c | e))
         and ((a & c) & e == a & (c & e))),
        ("cond_identities", "conds", 1,
         lambda a: a ^ zero == a and a | zero == a and a & one == a),
        ("cond_mutual_distributivity", "conds", 3,
         lambda a, c, e: (a & (c | e) == (a & c) | (a & e))
         and (a | (c & e) == (a | c) & (a | e))),
        ("cond_idempotent", "conds", 1, lambda a: a & a == a and a | a == a),
        ("cond_de_morgan", "conds", 2,
         lambda a, c: ~(a & c) == ~a | ~c and ~(a | c) == ~a & ~c),
        ("cond_absorption", "conds", 2,
         lambda a, c: a & (a | c) == a and a | (a & c) == a),
        ("cond_involution", "conds", 1, lambda a: ~~a == a),
        ("cond_no_additive_inverse", partial(Sweep(space).tuples, "conds", 1),
         lambda x: witness ^ x != zero),
    ])


def nary_consistency_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """n-ary closed forms equal both fold orders of the binary ops."""

    def folds_match(op, nary, a, c, e):
        return op(op(a, c), e) == op(a, op(c, e)) == nary([a, c, e])

    return _run(Sweep(space, rng, samples), [
        ("nary_meet_matches_folds", "conds", 3, partial(folds_match, operator.and_, conjoin_all)),
        ("nary_join_matches_folds", "conds", 3, partial(folds_match, operator.or_, disjoin_all)),
        ("nary_sum_matches_folds", "conds", 3, partial(folds_match, operator.xor, sum_all)),
        ("nary_singleton_identity", "conds", 1,
         lambda a: conjoin_all([a]) == disjoin_all([a]) == sum_all([a]) == a),
    ])


def partial_order_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    def monotone_cases():
        """Pairs of comparable pairs: every one, or pairs (a, a | c) of
        seeded draws."""
        if rng is None:
            comparable = [(a, c) for a, c in Sweep(space).tuples("conds", 2) if a <= c]
        else:
            draws = Sweep(space, rng, min(samples, 100)).tuples("conds", 2)
            comparable = [(a, a | c) for a, c in draws]
        return (ac + eg for ac in comparable for eg in comparable)

    return _run(Sweep(space, rng, samples), [
        ("order_matches_meet_definition", "conds", 2, lambda a, c: (a <= c) == (a & c == a)),
        ("order_matches_join_definition", "conds", 2, lambda a, c: (a <= c) == (a | c == c)),
        ("order_reflexive", "conds", 1, lambda a: a <= a),
        ("order_antisymmetric", "conds", 2, lambda a, c: not (a <= c and c <= a) or a == c),
        ("order_transitive", "conds", 3,
         lambda a, c, e: not (a <= c and c <= e) or a <= e),
        ("lower_bounds_via_meet", "conds", 3,
         lambda a, c, e: (a <= c and a <= e) == (a <= (c & e))),
        ("upper_bounds_via_join", "conds", 3,
         lambda a, c, e: (c <= a and e <= a) == ((c | e) <= a)),
        ("complement_reverses_order", "conds", 2, lambda a, c: not (a <= c) or (~c <= ~a)),
        ("ops_monotone_in_both_arguments", monotone_cases,
         lambda a, c, e, g: (a & e) <= (c & g) and (a | e) <= (c | g)),
        ("bounds_are_coset_extremes", "conds", 1, _bounds_extreme),
        ("event_sandwich", "conds", 1,
         lambda a: embed(a.consequent) <= a
         and a <= embed(material_implies(a.antecedent, a.consequent))),
    ])


def _bounds_extreme(a: ConditionalObject) -> bool:
    lo, hi = bounds(a)
    members = expand(a)
    if lo not in members or hi not in members:
        return False
    return all(lo <= x and x <= hi for x in members)


def identity_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """Special-value identities, mixed event/conditional forms, the
    chaining product and the Bayes decomposition."""
    full = space.one

    def telescoping(a, b, c):
        first = a & b & c
        mid = first | ((a | b) & c)
        links = [cond(first, mid), cond(mid, full)]
        return conjoin_all(links) == cond(first, full)

    parts = [space.atom(i) for i in range(space.atom_count)]

    def bayes_ok(b):
        comps = bayes_components(b, parts)
        return all(c == cond(b, aj) for c, aj in zip(comps, parts))

    return _run(Sweep(space, rng, samples), [
        ("zero_antecedent_gives_whole_algebra", "events", 1,
         lambda a: cond(a, space.zero) == cond(space.zero, space.zero)),
        ("unit_consequent_form", "events", 1, lambda b: cond(full, b) == cond(b, b)),
        ("meet_across_complementary_antecedents", "events", 2,
         lambda a, b: cond(a, b) & cond(a, ~b) == cond(space.zero, ~a)),
        ("ideal_coset_is_lower_set", "events", 1,
         lambda a: expand(cond(space.zero, ~a)) == {x for x in space.events() if x <= a}),
        ("join_across_complementary_antecedents", "events", 2,
         lambda a, b: cond(a, b) | cond(a, ~b) == cond(a, a)),
        ("join_with_own_complement", "conds", 1,
         lambda a: (a | ~a) == cond(a.antecedent, a.antecedent)),
        ("event_plus_ideal_conditions", "events", 2,
         lambda a, b: (embed(a) ^ cond(space.zero, b)) == cond(a, b)
         and (embed(~a) ^ cond(space.zero, b)) == ~cond(a, b)),
        ("event_join_mixed_form", "events", 3,
         lambda a, b, c: embed(c) | cond(a, b) == cond(a | c, b | c)),
        ("event_meet_mixed_form", "events", 3,
         lambda a, b, c: embed(c) & cond(a, b) == cond(c & a, b | ~c)),
        ("event_sum_mixed_form", "events", 3,
         lambda a, b, c: embed(c) ^ cond(a, b) == cond(c ^ a, b)),
        ("sum_as_xor_of_meets", "conds", 2, lambda a, c: a ^ c == (a & ~c) | (~a & c)),
        ("chaining_product", "events", 3,
         lambda a, b, c: chain(cond(a, b & c), cond(b, c)) == cond(a & b, c)),
        ("ascending_chain_telescopes", "events", 3, telescoping),
        ("bayes_atom_partition", "events", 1, bayes_ok),
    ])


def comparison_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """Conditional objects side by side with material implication."""
    imp = material_implies
    full = space.one
    return _run(Sweep(space, rng, samples), [
        ("conditional_absorbs_implication", "events", 2,
         lambda a, b: cond(imp(b, a), b) == cond(a, b)),
        ("implication_disjunction_forms", "events", 2,
         lambda a, b: embed(imp(b, a)) == (cond(a, b) | embed(~b))
         and imp(~a, ~b) == imp(b, a)
         and embed(imp(b, a)) == (cond(~b, ~a) | embed(a))),
        ("conditional_recovered_from_implication", "events", 2,
         lambda a, b: (embed(imp(b, a)) & cond(b, b)) == cond(a, b)
         and ((cond(~b, ~a) | embed(a)) & cond(b, b)) == cond(a, b)),
        ("converse_conditional_recovered", "events", 2,
         lambda a, b: (embed(imp(b, a)) & cond(~a, ~a)) == cond(~b, ~a)
         and ((cond(a, b) | embed(~b)) & cond(~a, ~a)) == cond(~b, ~a)),
        ("biconditional_event_forms", "events", 2,
         lambda a, b: imp(a, b) & imp(b, a) == (a & b) | (~a & ~b)
         and embed(imp(a, b) & imp(b, a))
         == ((cond(a, b) & cond(b, a)) | embed(~a & ~b))),
        ("mutual_conditional_product", "events", 2,
         lambda a, b: (cond(a, b) & cond(b, a)) == cond(a & b, a | b)
         and cond(a & b, a | b)
         == (embed(imp(a, b) & imp(b, a)) & cond(a & b, a & b))),
        ("mutual_product_bounds", "events", 2,
         lambda a, b: bounds(cond(a, b) & cond(b, a))
         == (a & b, (a & b) | (~a & ~b))),
        ("canonical_projection_both_sides", "events", 2,
         lambda a, b: cond(a, b) == cond(a & b, b)
         and imp(b, a) == imp(b, a & b)),
        ("unit_and_zero_cases", "events", 1,
         lambda b: cond(full, b) == cond(b, b)
         and imp(b, full) == full
         and cond(b, full) == embed(b)
         and imp(full, b) == b
         and cond(b, space.zero) == cond(space.zero, space.zero)
         and imp(space.zero, b) == full),
        ("complement_both_sides", "events", 2,
         lambda a, b: ~cond(a, b) == cond(~a & b, b)
         and ~imp(b, a) == ~a & b),
        ("zero_consequent_both_sides", "events", 1,
         lambda b: cond(space.zero, b) == cond(~b, b)
         and imp(b, space.zero) == ~b),
        ("product_with_antecedent_recovers_consequent", "events", 2,
         lambda a, b: (cond(a, b) & embed(b)) == embed(a & b)),
        ("meet_comparison", "events", 4, _meet_comparison),
        ("join_comparison", "events", 4,
         lambda a, b, c, d: (cond(a, b) | cond(c, d))
         == cond(a | c, (a & b) | (c & d) | (b & d))
         and (imp(b, a) | imp(d, c)) == imp(b & d, a | c)),
        ("transitive_chain_comparison", "events", 3, _transitive_comparison),
        ("information_improvement", "events", 3, _information_improvement),
        ("iterated_implication_classical_form", "events", 4,
         lambda a, b, c, d: imp(imp(d, c), imp(b, a)) == imp(b & ((c & d) | ~d), a)),
    ])


def _meet_comparison(a, b, c, d) -> bool:
    q = (~a & b) | (~c & d) | (b & d)
    imp = material_implies
    return (cond(a, b) & cond(c, d)) == cond(a & c, q) and (
        imp(b, a) & imp(d, c)
    ) == imp(q, a & c)


def _transitive_comparison(a, b, c) -> bool:
    a, b = a & b & c, (a | b) & c
    imp = material_implies
    ok_cond = (cond(a, b) & cond(b, c)) == cond(a, c)
    ok_imp = (imp(c, b) & imp(b, a)) <= imp(c, a)
    return ok_cond and ok_imp


def _information_improvement(a, b, c) -> bool:
    a = a & b & c
    imp = material_implies
    return cond(a, b) <= cond(a, b & c) and imp(b, a) <= imp(b & c, a)


def intersection_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """Literal coset intersection and containment vs the compact criteria."""

    def agrees(a, c):
        inter = class_intersect(a, c)
        if not inter:
            return intersection_criterion(a, c)
        joined = recognize(space, inter)
        return (not intersection_criterion(a, c)
                and joined is not None and joined.ant == a.ant | c.ant)

    def subset_agrees(a, c):
        literal = expand(a) <= expand(c)
        return literal == subset_criterion(a, c)

    def self_identity(a):
        # (a|b) leaves the atoms outside b free: 2^(n - |b|) members
        inter, size = class_intersect(a, a), 1 << space.atom_count - a.ant.bit_count()
        return inter == expand(a) and (len(inter) == size or f"{len(inter)} members, not {size}")

    return _run(Sweep(space, rng, samples), [
        ("intersection_emptiness_criterion", "conds", 2, agrees),
        ("intersection_self_identity", "conds", 1, self_identity),
        ("subset_criterion_matches_literal", "conds", 2, subset_agrees),
    ])


def characterization_suite(space: AtomSpace) -> list[CheckResult]:
    """Structural characterization of the conditional space: cosets are
    exactly the classes satisfying the membership equation, shared-
    antecedent operations pass to classes, representation is unique,
    and fixed-antecedent classes partition the algebra."""
    owner: dict = {}  # coset -> the first conditional expanding to it
    everything = frozenset(space.events())

    def own_coset(c):
        other = owner.setdefault(expand(c), c)
        return other == c or f"shares a coset with {other!r}"

    def classes_partition(b):
        seen: set[Event] = set()
        for a in space.events():
            if a <= b:
                members = expand(cond(a, b))
                if members & seen:
                    return "overlapping classes"
                seen |= members
        return seen == everything or "classes do not cover"

    return _run(Sweep(space), [
        ("membership_equation", "events", 2,
         lambda a, b: expand(cond(a, b)) == {x for x in space.events() if (x & b) == (a & b)}),
        ("canonical_projection_class", "events", 2,
         lambda a, b: expand(cond(a, b)) == expand(cond(a & b, b))),
        ("shared_antecedent_classwise_ops", "events", 3, _shared_antecedent_ops),
        ("classwise_complement", "events", 2,
         lambda a, b: classwise_unary(operator.invert, expand(cond(a, b))) == expand(~cond(a, b))),
        ("distinct_pairs_have_distinct_cosets", "conds", 1, own_coset),
        ("fixed_antecedent_classes_partition", "events", 1, classes_partition),
        ("recognize_inverts_expand", "conds", 1,
         lambda c: recognize(space, expand(c)) == c),
    ])


def _shared_antecedent_ops(a, c, b) -> bool:
    ea, ec = expand(cond(a, b)), expand(cond(c, b))
    return (
        classwise(operator.xor, ea, ec) == expand(cond(a ^ c, b))
        and classwise(operator.or_, ea, ec) == expand(cond(a | c, b))
        and classwise(operator.and_, ea, ec) == expand(cond(a & c, b))
    )


# ---------------------------------------------------------------------------
# higher-order conditionals
# ---------------------------------------------------------------------------

HIGHER_SWEEP_COUNT = 8  # tuple-consuming sub-checks sharing the sample budget


def higher_order_suite(space: AtomSpace, rng=None, samples=10000) -> list[CheckResult]:
    """Reduction, equality criterion, homomorphism and restriction
    checks. `samples` is the total sampled-tuple budget, split across
    the sub-checks."""
    per = samples if rng is None else max(1, samples // HIGHER_SWEEP_COUNT)
    sw = Sweep(space, rng, per)

    def reduction_agrees(a, c):
        x = iter_cond(a, c)
        r = reduce_u(x)
        num = x.numerator
        alpha = num.antecedent & (
            (c.consequent & c.antecedent) | (~num.consequent & ~c.antecedent))
        return r == cond(num.consequent, alpha)

    def members_ok(a, c):
        x = iter_cond(a, c)
        return x.numerator in x.members and all((m & c) == x.numerator for m in x.members)

    def event_numerator(a, c, d):
        a = a & c & d  # normalization precondition: numerator below the product
        x = iter_cond(embed(a), cond(c, d))
        return reduce_u(x) == cond(a, ~(~c & d))

    @cache
    def family():
        """The iterated conditionals of every pair, or of seeded pairs;
        built once, when the first row that needs it comes up."""
        return [iter_cond(a, c) for a, c in sw.tuples("conds", 2)]

    def family_pairs():
        xs = family()
        if rng is None:
            return itertools.product(xs, repeat=2)
        idx = random.Random(rng.randrange(1 << 30))
        return ((xs[idx.randrange(len(xs))], xs[idx.randrange(len(xs))]) for _ in range(per))

    @cache
    def hom_elems():
        """One family member per distinct (numerator, beta); 15 seeded
        picks of them when sampling."""
        distinct: dict = {}
        for x in family():
            distinct.setdefault((x.numerator, x.beta), x)
        elems = list(distinct.values())
        if rng is not None and len(elems) > 15:
            idx = random.Random(rng.randrange(1 << 30))
            elems = [elems[idx.randrange(len(elems))] for _ in range(15)]
        return elems

    def hom_unary(x):
        lhs = union_of_members(members_complement(x))
        return lhs == expand(~reduce_u(x))

    def hom_binary(x, y, op):
        lhs = union_of_members(members_extension(op, x, y))
        return lhs == expand(op(reduce_u(x), reduce_u(y)))

    # fixing the denominator to a plain event (or sharing one antecedent)
    # makes the reduction a bijection onto the conditionals inside it
    denominators = [(c,) for c in space.events()]
    if rng is not None:
        denominators = denominators[:: max(1, len(denominators) // 4)]

    def restricts_bijectively(build):
        def law(c):
            image_of: dict = {}
            for a, b in itertools.product(space.events(), repeat=2):
                x = build(a, b, c)
                img = reduce_u(x)
                if image_of.setdefault((x.numerator, x.beta), img) != img:
                    return "not a function"
            images = set(image_of.values())
            if len(images) < len(image_of):
                return "not injective"
            missing = sorted({x for x in conditionals(space) if x.antecedent <= c} - images,
                             key=lambda t: (t.ant, t.cons))
            return not missing or f"not surjective: missing {missing[0]!r}"
        return law

    return _run(sw, [
        ("reduction_matches_closed_and_alpha_forms", "conds", 2, reduction_agrees),
        ("reduction_identity_on_plain_conditionals", "conds", 1,
         lambda a: reduce_u(iter_cond(a, embed(space.one))) == a),
        ("members_contain_numerator_and_satisfy_equation", "conds", 2, members_ok),
        ("reduction_shared_antecedent_denominator", "events", 3,
         lambda a, b, c: reduce_u(iter_cond(cond(a, b), cond(c, b)))
         == cond(a & b & c, b & c)),
        ("reduction_plain_event_denominator", "events", 3,
         lambda a, b, c: reduce_u(iter_cond(cond(a, b), embed(c)))
         == cond(a & b & c, b & c)),
        ("reduction_event_numerator_normalized", "events", 3, event_numerator),
        ("denominator_product_recovers_numerator", "conds", 2,
         lambda a, c: (c & reduce_u(iter_cond(a, c))) == (a & c)),
        ("triple_equality_matches_member_sets", family_pairs,
         lambda x, y: iter_equal(x, y) == (x.members == y.members)),
        ("reduction_homomorphism_complement", lambda: ((x,) for x in hom_elems()), hom_unary),
        ("reduction_homomorphism_join", lambda: itertools.product(hom_elems(), repeat=2),
         lambda x, y: hom_binary(x, y, operator.or_)),
        ("reduction_homomorphism_meet", lambda: itertools.product(hom_elems(), repeat=2),
         lambda x, y: hom_binary(x, y, operator.and_)),
        ("restriction_bijective_event_denominator", lambda: denominators,
         restricts_bijectively(lambda a, b, c: iter_cond(cond(a, b), embed(c)))),
        ("restriction_bijective_shared_antecedent", lambda: denominators,
         restricts_bijectively(lambda a, b, c: iter_cond(cond(a, c), cond(b, c)))),
    ])


# ---------------------------------------------------------------------------
# golden facts: empirically-resolved forms, locked down
# ---------------------------------------------------------------------------

def _reduction_antecedent() -> dict:
    """Both candidate closed forms of the reduction's antecedent agree
    with the literal union once the numerator is normalized below the
    denominator."""
    space = AtomSpace(2)
    closed_ok = alpha_ok = True
    for a, c in Sweep(space).tuples("conds", 2):
        x = iter_cond(a, c)
        literal = recognize(space, union_of_members(x.members))
        num = x.numerator
        closed = cond(num.consequent,
                      num.antecedent & ~(~c.consequent & c.antecedent))
        alpha = cond(num.consequent,
                     num.antecedent & ((c.consequent & c.antecedent)
                                       | (~num.consequent & ~c.antecedent)))
        closed_ok &= literal == closed
        alpha_ok &= literal == alpha
    return {"closed_form_matches_literal_union": closed_ok,
            "alpha_form_matches_literal_union": alpha_ok}


def _iterated_example() -> dict:
    """The recorded higher-order example on three atoms."""
    space = AtomSpace(3)
    a = cond(space.event([0]), space.event([0, 1]))
    c = cond(space.event([1]), space.event([1, 2]))
    x = iter_cond(a, c)
    r = reduce_u(x)

    def pair(m):
        return [sorted(m.consequent.atoms()), sorted(m.antecedent.atoms())]

    return {"atoms": 3, "numerator": pair(a), "denominator": pair(c),
            "member_count": len(x.members), "members": sorted(pair(m) for m in x.members),
            "reduction": pair(r)}


def _pipeline_form() -> dict:
    from .data import load_bundled_kb, load_bundled_observation
    from .engine import build_space, integrate_out

    kb = load_bundled_kb()
    grounding = build_space(kb)
    obs = load_bundled_observation(kb)
    query = kb.diagnosis_variables()[0]
    out = {"query": query.name, "atoms": grounding.space.atom_count, "values": {}}
    for value in query.domain:
        form = integrate_out(grounding, obs, "cpl", query.name, value)
        out["values"][value] = {
            "consequent_mask": f"{form.consequent.mask:x}",
            "antecedent_mask": f"{form.antecedent.mask:x}",
        }
    return out


# fact name -> the function that recomputes it from scratch
GOLDEN_FACTS = {
    "sum_of_implications_parity": lambda: sum_parity_resolution(AtomSpace(2)),
    "reduction_antecedent": _reduction_antecedent,
    "iterated_example": _iterated_example,
    "pipeline_form": _pipeline_form,
}


def golden_check(directory: str, record: bool = False) -> list[CheckResult]:
    """Recompute each golden fact in its own row and compare it against
    the stored one. A fact that raises fails its row and is never
    written. A fact file that does not exist fails, unless record is
    set: then it is written (creating the directory) and reported as
    recorded. A path that cannot be read, parsed or written raises
    ValueError naming it."""
    results = []
    if record:
        with _golden_path(directory):
            os.makedirs(directory, exist_ok=True)
    for name, fact in sorted(GOLDEN_FACTS.items()):
        row = f"golden_{name}"
        path = os.path.join(directory, f"{name}.json")
        try:
            value = fact()
        except Exception as exc:
            results.append(CheckResult(row, False, 1, _raised(exc)))
            continue
        if os.path.exists(path):
            with _golden_path(path), open(path, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
            same = stored == value
            results.append(CheckResult(row, same, 1,
                                       "" if same else f"stored {stored!r} != computed {value!r}"))
        elif record:
            with _golden_path(path), open(path, "w", encoding="utf-8") as fh:
                json.dump(value, fh, indent=2, sort_keys=True)
                fh.write("\n")
            results.append(CheckResult(row, True, 1, "recorded"))
        else:
            results.append(CheckResult(row, False, 1, f"{path} is missing (--record writes it)"))
    return results


@contextmanager
def _golden_path(path: str):
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ValueError(f"cannot use {path}: {exc}") from None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def oracle_suites(space: AtomSpace, rng=None, samples=10000,
                  higher_order: bool = False, seed: int = 0) -> list[tuple[str, list[CheckResult]]]:
    """Everything `oracle verify` runs, grouped with section titles."""
    sections = [
        ("coset extension", oracle_equivalence_suite(space, rng, samples)),
        ("algebraic laws", conditional_law_suite(space, rng, samples)),
        ("n-ary forms", nary_consistency_suite(space, rng, samples)),
        ("partial order", partial_order_suite(space, rng, samples)),
        ("identity calculus", identity_suite(space, rng, samples)),
        ("implication comparison", comparison_suite(space, rng, samples)),
        ("coset intersection", intersection_suite(space, rng, samples)),
    ]
    if space.atom_count <= 3:
        sections.append(("class structure", characterization_suite(space)))
    if higher_order:
        if space.atom_count <= 2:
            sections.append(("higher order", higher_order_suite(space, None, samples)))
        elif space.atom_count == 3:
            sections.append(("higher order",
                             higher_order_suite(space, rng or random.Random(seed), samples)))
        else:
            sections.append(("higher order", [CheckResult(
                "higher_order_skipped", True, 0, "needs a space of at most 3 atoms")]))
    return sections


def algebra_suites(space: AtomSpace, rng=None, samples=10000) -> list[tuple[str, list[CheckResult]]]:
    """Everything `algebra selftest` runs."""
    return [
        ("ring and lattice laws", ring_lattice_suite(space, rng, samples)),
        ("implication calculus", implication_identity_suite(space, rng, samples)),
    ]
