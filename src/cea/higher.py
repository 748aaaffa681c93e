"""Iterated conditionals: one conditional object conditioned on another.

An iterated conditional is the full set of conditionals X satisfying
X & C == A & C for the given pair (A, C) - the inverse image of the
one-sided product. The numerator is normalized to A & C, which always
lies below C, so stored parameters satisfy the same containment
discipline as single conditionals.

The class-reduction operator maps an iterated conditional back into the
single-conditional space by taking the union of its member cosets; the
result has a closed form which is checked against the literal union on
every call.
"""

from __future__ import annotations

from itertools import product, starmap
from operator import invert
from typing import Callable, Iterable

from .algebra import AtomSpace, Event, _event
from .conditional import ConditionalObject, _make, conditionals
from .coset import SpaceTooLargeError, expand, recognize

MAX_ITER_ATOMS = 4


class ReductionMismatchError(AssertionError):
    """The literal member-coset union disagreed with the closed form."""


class IteratedConditional:
    """Member set of (numerator | denominator) over conditional objects.

    Fields: ``numerator`` (normalized to numerator & denominator),
    ``denominator``, ``members`` (frozenset of conditionals), and
    ``beta``, the event parameter that together with the numerator pair
    characterizes the member set up to equality.
    ``_reduced`` holds the result of :func:`reduce_u` once it has
    passed its checks. Treated as immutable: iter_cond hands out one
    shared object per normalized pair and space (see AtomSpace).
    """

    __slots__ = ("numerator", "denominator", "members", "beta", "_reduced")

    def __init__(
        self,
        numerator: ConditionalObject,
        denominator: ConditionalObject,
        members: frozenset[ConditionalObject],
        beta: Event,
    ):
        self.numerator = numerator
        self.denominator = denominator
        self.members = members
        self.beta = beta
        self._reduced = None

    @property
    def space(self) -> AtomSpace:
        return self.numerator.space

    def __repr__(self) -> str:
        return f"({self.numerator!r}|{self.denominator!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, IteratedConditional):
            return NotImplemented
        return iter_equal(self, other)

    def __hash__(self) -> int:
        return hash((self.numerator, self.beta))


def _beta(numerator: ConditionalObject, denominator: ConditionalObject) -> Event:
    """(~b & ~d) | (~c & d) for numerator (a|b) and denominator (c|d),
    which share a space."""
    space, b, c, d = numerator.space, numerator.ant, denominator.cons, denominator.ant
    return _event(space, space.full_mask & ~(b | d) | d & ~c)


def iter_cond(a: ConditionalObject, c: ConditionalObject) -> IteratedConditional:
    """Build (a|c) over conditionals by exhaustive member scan.

    The member predicate only sees a through a & c, so the numerator is
    stored in that normalized form. The scan covers all 3^n canonical
    pairs and is bounded to small spaces. Each normalized pair is
    scanned once per space; later calls return the same object.
    """
    space = a.space
    if space.atom_count > MAX_ITER_ATOMS:
        raise SpaceTooLargeError(
            f"iterated conditionals scan 3^n pairs; bound is {MAX_ITER_ATOMS} atoms"
        )
    numerator = a & c
    key = (numerator.cons, numerator.ant, c.cons, c.ant)
    out = space._iters.get(key)
    if out is None:
        members = frozenset(x for x in conditionals(space) if (x & c) == numerator)
        out = space._iters[key] = IteratedConditional(
            numerator, c, members, _beta(numerator, c))
    return out


def iter_equal(x: IteratedConditional, y: IteratedConditional) -> bool:
    """Equality via the characteristic triple (consequent, antecedent, beta).

    Agrees with literal member-set equality; the verification suites
    check that equivalence exhaustively.
    """
    return (
        x.numerator == y.numerator
        and x.beta == y.beta
    )


def union_of_members(members: Iterable[ConditionalObject]) -> frozenset[Event]:
    """Union of the literal cosets of a class of conditionals."""
    return frozenset().union(*map(expand, members))


def reduce_u(x: IteratedConditional) -> ConditionalObject:
    """Collapse an iterated conditional to a single conditional.

    Computes the literal union of the member cosets, recognizes it as a
    coset, and cross-checks the closed form: keep the numerator's
    consequent, and shrink the numerator's antecedent by the region
    where the denominator fails outright. The result is stored on x
    only once both checks have passed, so a failing x fails every call.
    """
    if x._reduced is not None:
        return x._reduced
    space = x.space
    union = union_of_members(x.members)
    literal = recognize(space, union)
    if literal is None:
        raise ReductionMismatchError("member-coset union is not a coset")
    num, den = x.numerator, x.denominator
    ant = num.ant & ~(den.ant & ~den.cons)
    closed = _make(space, num.cons & ant, ant)
    if literal != closed:
        raise ReductionMismatchError(
            f"literal union {literal!r} differs from closed form {closed!r}"
        )
    x._reduced = literal
    return literal


def members_extension(
    op: Callable[[ConditionalObject, ConditionalObject], ConditionalObject],
    x: IteratedConditional,
    y: IteratedConditional,
) -> frozenset[ConditionalObject]:
    """Natural class extension of a binary conditional operation to
    iterated conditionals: apply it memberwise across both classes."""
    return frozenset(starmap(op, product(x.members, y.members)))


def members_complement(x: IteratedConditional) -> frozenset[ConditionalObject]:
    return frozenset(map(invert, x.members))
