"""Ground-truth cosets: conditionals as literal sets of events.

Every conditional object is a coset of a principal ideal: the set
{x & ~b | (a & b) : x in the algebra}, equivalently all events that
agree with a on b. This module materializes those sets and applies
operations classwise, providing the independent oracle against which
the compact formulas in :mod:`cea.conditional` are validated.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .algebra import _MISMATCH, AtomSpace, Event, MismatchedSpaceError, _event
from .conditional import ConditionalObject, cond

# a coset holds up to 2^n events on n atoms
MAX_EXPAND_ATOMS = 12


class SpaceTooLargeError(ValueError):
    """Raised when a coset expansion would enumerate too many events."""


class Coset:
    """An explicit set of events from one space."""

    __slots__ = ("space", "elements")

    def __init__(self, space: AtomSpace, elements: Iterable[Event]):
        self.space = space
        self.elements = frozenset(elements)
        if not self.elements:
            raise ValueError("a coset is never empty")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coset)
            and self.space == other.space
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements, key=lambda e: e.mask))

    def __contains__(self, event: Event) -> bool:
        return event in self.elements

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self) + "}"


def expand(a: ConditionalObject) -> Coset:
    """The literal coset of a conditional: all events agreeing with the
    consequent on the antecedent. Size is 2^(atoms outside antecedent).
    A space with a coset table enumerates each coset once and returns
    the table entry after that; larger spaces enumerate on every call.
    A space over MAX_EXPAND_ATOMS atoms raises SpaceTooLargeError (a
    tabled space never is: COND_TABLE_ATOMS is below the bound)."""
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
    out = Coset(space, members)
    if table is not None:
        table[key] = out
    return out


def classwise(
    op: Callable[[Event, Event], Event], a: Coset, b: Coset
) -> frozenset[Event]:
    """Natural class extension: apply op to every pair of members."""
    if a.space != b.space:
        raise MismatchedSpaceError("cosets belong to different atom spaces")
    return frozenset(op(x, y) for x in a.elements for y in b.elements)


def classwise_unary(op: Callable[[Event], Event], a: Coset) -> frozenset[Event]:
    return frozenset(op(x) for x in a.elements)


def recognize(space: AtomSpace, events: Iterable[Event]) -> Optional[ConditionalObject]:
    """Recover the conditional whose coset is exactly the given set.

    The antecedent's complement must be the join of all pairwise
    symmetric differences of members; the candidate is then verified by
    re-expansion. Returns None when the set is not a coset.
    """
    members = sorted(frozenset(events), key=lambda e: e.mask)
    if not members:
        return None
    b_comp = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            b_comp |= members[i].mask ^ members[j].mask
    antecedent = space.event_from_mask(space.full_mask & ~b_comp)
    candidate = cond(members[0], antecedent)
    if expand(candidate).elements == frozenset(members):
        return candidate
    return None


class IntersectionResult:
    """Literal coset intersection together with the predicted structure."""

    __slots__ = ("elements", "predicted_empty", "conditional", "antecedent_matches")

    def __init__(self, elements, predicted_empty, conditional, antecedent_matches):
        self.elements = elements
        self.predicted_empty = predicted_empty
        self.conditional = conditional
        self.antecedent_matches = antecedent_matches

    @property
    def is_empty(self) -> bool:
        return not self.elements


def class_intersect(a: ConditionalObject, c: ConditionalObject) -> IntersectionResult:
    """Intersect two cosets literally and check the compact criterion.

    The intersection is empty exactly when the consequents disagree
    somewhere on the common antecedent; a nonempty intersection is
    itself a coset whose antecedent is the join of the two antecedents.
    Both facts are computed from the literal sets and reported alongside
    the criterion's prediction so a disagreement is visible.
    """
    inter = expand(a).elements & expand(c).elements
    _check_same_space(a, c)
    predicted_empty = bool((a.cons ^ c.cons) & a.ant & c.ant)
    conditional = None
    antecedent_matches = None
    if inter:
        conditional = recognize(a.space, inter)
        antecedent_matches = conditional is not None and conditional.ant == a.ant | c.ant
    return IntersectionResult(frozenset(inter), predicted_empty, conditional, antecedent_matches)


def subset_criterion(a: ConditionalObject, c: ConditionalObject) -> bool:
    """Coset containment test without expansion: the second antecedent
    lies inside the first and the first consequent is a member of the
    second coset."""
    _check_same_space(a, c)
    return c.ant & ~a.ant == 0 and a.cons & c.ant == c.cons


def _check_same_space(a: ConditionalObject, c: ConditionalObject) -> None:
    if a.space is not c.space and a.space != c.space:
        raise MismatchedSpaceError(_MISMATCH)
