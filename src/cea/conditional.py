"""Conditional objects (a|b) and their compact operational calculus.

A conditional object is stored canonically as the pair (a&b, b), so two
conditionals are equal exactly when both components match. The operators
below are closed-form: they never enumerate the underlying coset. The
coset module provides the ground-truth classwise counterparts used to
validate every formula here.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .algebra import (
    _MISMATCH, AtomSpace, Event, MismatchedSpaceError, _event, _new, material_implies,
)


class ConditionalObject:
    """Canonical pair (consequent, antecedent) with consequent <= antecedent.

    Stored as its space and three masks: cons (a&b, where it is true),
    ant (b, where it is defined) and off = ant & ~cons (a'&b, where it
    is false), which the constructor or _make sets once. consequent and
    antecedent are Event views built by _event on each read, so on a
    space of at most EVENT_TABLE_ATOMS atoms two reads are the same
    table entry. ``&``, ``|``, ``^``, ``~`` are the conditional meet,
    join, ring sum and complement; ``<=`` is the conditional partial
    order. The meet is true where both are and false where either is,
    the order holds when cons grows and off shrinks, and the complement
    swaps the two regions; these three read off instead of rebuilding
    it, and the coset oracle, which checks them, never reads it. Each
    computes on the masks; on a space of at most COND_TABLE_ATOMS atoms
    it returns the one shared object per (cons, ant) pair, read from the
    table directly when the slot is filled and both operands hold the
    same space object. _make builds the rest: untabled spaces, equal
    spaces held in other objects, foreign spaces (refused) and a slot's
    first fill. The validating constructor always builds a new object.
    See AtomSpace for when ``is`` may stand for ``==``.
    """

    __slots__ = ("space", "cons", "ant", "off")

    def __init__(self, consequent: Event, antecedent: Event):
        if not consequent <= antecedent:
            raise ValueError("consequent must be contained in the antecedent")
        self.space, self.cons, self.ant = antecedent.space, consequent.mask, antecedent.mask
        self.off = self.ant & ~self.cons

    @property
    def consequent(self) -> Event:
        return _event(self.space, self.cons)

    @property
    def antecedent(self) -> Event:
        return _event(self.space, self.ant)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ConditionalObject)
            and self.cons == other.cons
            and self.ant == other.ant
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return hash((self.cons, self.ant))

    def __repr__(self) -> str:
        return f"({self.consequent!r}|{self.antecedent!r})"

    def __invert__(self) -> "ConditionalObject":
        space, cons, ant = self.space, self.off, self.ant
        table = space._conds
        if table is not None:
            out = table[ant << space.atom_count | cons]
            if out is not None:
                return out
        return _make(space, cons, ant)

    def __xor__(self, other: "ConditionalObject") -> "ConditionalObject":
        space, ant = self.space, self.ant & other.ant
        cons = (self.cons ^ other.cons) & ant
        table = space._conds
        if table is not None and other.space is space:
            out = table[ant << space.atom_count | cons]
            if out is not None:
                return out
        return _make(space, cons, ant, other.space)

    def __and__(self, other: "ConditionalObject") -> "ConditionalObject":
        space, cons = self.space, self.cons & other.cons
        ant = cons | self.off | other.off
        table = space._conds
        if table is not None and other.space is space:
            out = table[ant << space.atom_count | cons]
            if out is not None:
                return out
        return _make(space, cons, ant, other.space)

    def __or__(self, other: "ConditionalObject") -> "ConditionalObject":
        space, cons = self.space, self.cons | other.cons
        ant = cons | (self.ant & other.ant)
        table = space._conds
        if table is not None and other.space is space:
            out = table[ant << space.atom_count | cons]
            if out is not None:
                return out
        return _make(space, cons, ant, other.space)

    def __le__(self, other: "ConditionalObject") -> bool:
        """Order by consequent growth and counter-consequent shrinkage.

        Agrees with the definitional forms A == A & C and C == A | C.
        """
        if other.space is not self.space and other.space != self.space:
            raise MismatchedSpaceError(_MISMATCH)
        return self.cons & ~other.cons == 0 and other.off & ~self.off == 0


def _make(space: AtomSpace, cons: int, ant: int, peer=None) -> ConditionalObject:
    """The conditional (cons|ant) of space: the table entry when the
    space has one, else a new object. Both checks run before the lookup,
    so no bad pair enters the table. peer is the space of the other
    operand of a binary op, if any."""
    if peer is not space and peer is not None and peer != space:
        raise MismatchedSpaceError(_MISMATCH)
    if cons & ~ant:
        raise ValueError("consequent must be contained in the antecedent")
    table = space._conds
    if table is not None:
        key = ant << space.atom_count | cons
        out = table[key]
        if out is not None:
            return out
    out = _new(ConditionalObject)
    out.space, out.cons, out.ant, out.off = space, cons, ant, ant & ~cons
    if table is not None:
        table[key] = out
    return out


def cond(a: Event, b: Event) -> ConditionalObject:
    """The conditional object (a|b), canonicalized to (a&b, b).

    b may be the zero event; (a|0) is the whole-algebra conditional (0|0).
    Reads a tabled space's filled slot itself, as the operators do.
    """
    space, cons, ant = b.space, a.mask & b.mask, b.mask
    table = space._conds
    if table is not None and a.space is space:
        out = table[ant << space.atom_count | cons]
        if out is not None:
            return out
    return _make(space, cons, ant, a.space)


def embed(a: Event) -> ConditionalObject:
    """An ordinary event viewed inside the conditional space, as (a|1)."""
    return _make(a.space, a.mask, a.space.full_mask)


def _space_of(items: Sequence[ConditionalObject]) -> AtomSpace:
    """The one space of items, checked over the whole list before any
    mask is read: an empty list and an item of a foreign space are
    refused."""
    if not items:
        raise ValueError("need at least one conditional")
    space = items[0].space
    for c in items:
        if c.space is not space and c.space != space:
            raise MismatchedSpaceError(_MISMATCH)
    return space


def conjoin_all(items: Sequence[ConditionalObject]) -> ConditionalObject:
    """n-ary meet in closed form; equals any fold of the binary meet.

    One pass reads each item's masks once: the antecedent is the meet
    of the antecedents joined with every a & ~c, the consequent the
    meet of the consequents."""
    space = _space_of(items)
    rest = iter(items)
    first = next(rest)
    cons, meet = first.cons, first.ant
    out = meet & ~cons
    for c in rest:
        x, a = c.cons, c.ant
        cons &= x
        meet &= a
        out |= a & ~x
    ant = meet | out
    return _make(space, cons & ant, ant)


def disjoin_all(items: Sequence[ConditionalObject]) -> ConditionalObject:
    """n-ary join in closed form, in one pass; equals any fold of the
    binary join."""
    space = _space_of(items)
    rest = iter(items)
    first = next(rest)
    cons, meet = first.cons, first.ant
    for c in rest:
        cons |= c.cons
        meet &= c.ant
    return _make(space, cons, cons | meet)


def sum_all(items: Sequence[ConditionalObject]) -> ConditionalObject:
    """n-ary ring sum in closed form, in one pass; equals any fold of
    the binary sum."""
    space = _space_of(items)
    rest = iter(items)
    first = next(rest)
    cons, ant = first.cons, first.ant
    for c in rest:
        cons ^= c.cons
        ant &= c.ant
    return _make(space, cons & ant, ant)


def chain(first: ConditionalObject, second: ConditionalObject) -> ConditionalObject:
    """Product of two conditionals, read as chained conditioning.

    For first = (a|b&c) and second = (b|c) the product collapses to
    (a&b|c); more generally the product of (a_i|a_{i+1}) along a chain
    a_1 <= ... <= a_m telescopes to (a_1|a_m).
    """
    return first & second


def bounds(a: ConditionalObject) -> tuple[Event, Event]:
    """Smallest and largest events of the coset: (a&b, b => a)."""
    return a.consequent, material_implies(a.antecedent, a.consequent)


def bayes_components(
    b: Event, partition: Sequence[Event]
) -> list[ConditionalObject]:
    """The components (b|a_j) over a disjoint exhaustive partition.

    Checks the partition, and verifies the reconstruction identities:
    the embedded products (b|a_j) & a_j sum back to b, and agree with
    (a_j|b) & b and with the plain event a_j & b.
    """
    if not partition:
        raise ValueError("partition must be nonempty")
    space = b.space
    union = space.zero
    for i, part in enumerate(partition):
        if part & union:
            raise ValueError(f"partition elements overlap at index {i}")
        union = union | part
    if not union.is_one:
        raise ValueError("partition does not cover the space")

    comps = [cond(b, aj) for aj in partition]
    total = embed(space.zero)
    for aj, cj in zip(partition, comps):
        prod = cj & embed(aj)
        other = cond(aj, b) & embed(b)
        if not (prod == embed(aj & b) == other):
            raise AssertionError("conditional Bayes identity violated")
        total = total ^ prod
    if total != embed(b):
        raise AssertionError("partition components do not reconstruct the event")
    return comps


def conditionals(space: AtomSpace) -> Iterator[ConditionalObject]:
    """All 3^n canonical conditionals, antecedent-major ascending order."""
    for b_mask in range(1 << space.atom_count):
        for a_mask in range(b_mask + 1):
            if a_mask & ~b_mask == 0:
                yield _make(space, a_mask, b_mask)
