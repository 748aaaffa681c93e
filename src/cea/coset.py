"""Ground-truth cosets: conditionals as literal sets of events.

Every conditional object is a coset of a principal ideal: the set
{x & ~b | (a & b) : x in the algebra}, equivalently all events that
agree with a on b. This module materializes those sets as plain
frozensets of events and applies operations classwise, providing the
independent oracle against which the compact formulas in
:mod:`cea.conditional` are validated. The two criteria at the end
predict coset intersection and containment without expanding; the
verifier checks them against the literal sets.
"""

from __future__ import annotations

from itertools import product, starmap
from typing import Callable, Iterable, Optional

from .algebra import _MISMATCH, AtomSpace, Event, MismatchedSpaceError, _event
from .conditional import ConditionalObject, cond

# a coset holds up to 2^n events on n atoms
MAX_EXPAND_ATOMS = 12


class SpaceTooLargeError(ValueError):
    """Raised when a coset expansion would enumerate too many events."""


def expand(a: ConditionalObject) -> frozenset[Event]:
    """The literal coset of a conditional: the frozenset of all events
    agreeing with the consequent on the antecedent. Size is 2^(atoms
    outside antecedent). A space with a coset table enumerates each
    coset once and returns the table entry after that; larger spaces
    enumerate on every call. A space over MAX_EXPAND_ATOMS atoms raises
    SpaceTooLargeError (a tabled space never is: COND_TABLE_ATOMS is
    below the bound)."""
    space = a.space
    table = space._cosets
    if table is not None:
        key = a.ant << space.atom_count | a.cons
        out = table[key]
        if out is not None:
            return out
    if space.atom_count > MAX_EXPAND_ATOMS:
        raise SpaceTooLargeError(
            f"expansion needs 2^{space.atom_count} events; bound is "
            f"{MAX_EXPAND_ATOMS} atoms"
        )
    outside = space.full_mask & ~a.ant
    cons = a.cons
    # enumerate subsets of the complement of the antecedent
    members = []
    sub = outside
    while True:
        members.append(_event(space, sub | cons))
        if sub == 0:
            break
        sub = (sub - 1) & outside
    out = frozenset(members)
    if table is not None:
        table[key] = out
    return out


def classwise(
    op: Callable[[Event, Event], Event], a: frozenset[Event], b: frozenset[Event]
) -> frozenset[Event]:
    """Natural class extension: apply op to every pair of members."""
    return frozenset(starmap(op, product(a, b)))


def classwise_unary(op: Callable[[Event], Event], a: frozenset[Event]) -> frozenset[Event]:
    return frozenset(map(op, a))


def recognize(space: AtomSpace, events: Iterable[Event]) -> Optional[ConditionalObject]:
    """Recover the conditional whose coset is exactly the given set.

    The antecedent's complement must be the join of all pairwise
    symmetric differences of members, which is the join of each member's
    difference from the first; the candidate is then verified by
    re-expansion. Returns None when the set is not a coset.
    """
    given = frozenset(events)
    if not given:
        return None
    first = min(given, key=lambda e: e.mask)
    b_comp = 0
    for x in given:
        b_comp |= x.mask ^ first.mask
    antecedent = space.event_from_mask(space.full_mask & ~b_comp)
    candidate = cond(first, antecedent)
    if expand(candidate) == given:
        return candidate
    return None


def class_intersect(a: ConditionalObject, c: ConditionalObject) -> frozenset[Event]:
    """The literal intersection of two cosets. When it is not empty it
    is itself a coset; :func:`intersection_criterion` predicts when it
    is empty."""
    _check_same_space(a, c)
    return expand(a) & expand(c)


def intersection_criterion(a: ConditionalObject, c: ConditionalObject) -> bool:
    """Coset disjointness test without expansion: the consequents
    disagree somewhere on the common antecedent. A nonempty intersection
    has the join of the two antecedents as its antecedent."""
    _check_same_space(a, c)
    return bool((a.cons ^ c.cons) & a.ant & c.ant)


def subset_criterion(a: ConditionalObject, c: ConditionalObject) -> bool:
    """Coset containment test without expansion: the second antecedent
    lies inside the first and the first consequent is a member of the
    second coset."""
    _check_same_space(a, c)
    return c.ant & ~a.ant == 0 and a.cons & c.ant == c.cons


def _check_same_space(a: ConditionalObject, c: ConditionalObject) -> None:
    if a.space is not c.space and a.space != c.space:
        raise MismatchedSpaceError(_MISMATCH)
