"""Finite Boolean algebra over an indexed atom set.

Events are immutable bit-vectors over the atoms of an :class:`AtomSpace`.
The algebra carries both the lattice structure (meet, join, complement)
and the Boolean ring structure (symmetric difference as +, meet as *),
plus material implication and the subset partial order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


class MismatchedSpaceError(ValueError):
    """Raised when two events from different atom spaces are combined."""


_MISMATCH = "events belong to different atom spaces"

# Spaces up to these sizes hash-cons their events (2^n, built with the
# space) and their conditionals, cosets and iterated conditionals (filled
# on first use).
EVENT_TABLE_ATOMS = 8
COND_TABLE_ATOMS = 6


class AtomSpace:
    """A finite Boolean algebra presented by its atoms.

    Atoms are indexed 0..n-1; every event is a subset of the atoms,
    stored as an int bitmask. Two spaces are equal when they have the
    same labels in the same order; a space hashes by its atom count.

    Labels are given as a list, checked for uniqueness here, or as a
    function that returns that list, called (and its result checked) the
    first time ``atom_labels`` reads them; no labels means "0".."n-1",
    built the same way. So a space whose labels nobody reads never
    builds them.

    A space of at most EVENT_TABLE_ATOMS atoms hash-conses its events:
    every Event it hands out is the one entry of ``_events`` for its
    mask. A space of at most COND_TABLE_ATOMS atoms does the same for
    conditionals through ``_conds``, indexed by ``ant << n | cons`` and
    filled only by :func:`cea.conditional._make`, after its checks. The
    Event and conditional operators and ``cond`` read a filled entry
    directly when both operands hold this very space object;
    :func:`_event` and ``_make`` build the rest. The oracle side is tabled
    too: on the same spaces ``_cosets``, indexed like ``_conds``, holds
    the literal coset :func:`cea.coset.expand` built for each
    conditional, and ``_iters`` maps each normalized pair (a & c, c) to
    the one IteratedConditional :func:`cea.higher.iter_cond` scanned for
    it (every space has the dict; iter_cond admits at most
    MAX_ITER_ATOMS atoms). Each entry is built once, by the same
    enumeration as on an untabled space, and is treated as immutable.
    So ``is`` may stand for ``==`` only between results of one tabled
    space; larger spaces, and equal spaces held in other objects, build
    a fresh object per result.
    """

    __slots__ = ("atom_count", "full_mask", "_labels",
                 "_events", "_conds", "_cosets", "_iters")

    def __init__(self, atom_count: int,
                 atom_labels: Sequence[str] | Callable[[], Sequence[str]] | None = None):
        if atom_count < 1:
            raise ValueError("atom space needs at least one atom")
        if atom_labels is None:
            atom_labels = lambda: [str(i) for i in range(atom_count)]
        self.atom_count = atom_count
        self.full_mask = (1 << atom_count) - 1
        self._labels = atom_labels if callable(atom_labels) else self._checked(atom_labels)
        self._events = self._conds = self._cosets = None
        self._iters = {}
        if atom_count <= EVENT_TABLE_ATOMS:
            # _events is still None here, so _event allocates each entry
            self._events = [_event(self, m) for m in range(1 << atom_count)]
        if atom_count <= COND_TABLE_ATOMS:
            self._conds = [None] * (1 << 2 * atom_count)
            self._cosets = [None] * (1 << 2 * atom_count)

    def _checked(self, labels: Sequence[str]) -> list[str]:
        labels = list(labels)
        if len(labels) != self.atom_count:
            raise ValueError("label count does not match atom count")
        if len(set(labels)) != self.atom_count:
            raise ValueError("atom labels must be unique")
        return labels

    @property
    def atom_labels(self) -> list[str]:
        """The labels, built and checked on the first read."""
        if callable(self._labels):
            self._labels = self._checked(self._labels())
        return self._labels

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomSpace)
            and (self is other or (self.atom_count == other.atom_count
                                   and self.atom_labels == other.atom_labels))
        )

    def __hash__(self) -> int:
        return hash(self.atom_count)

    def __repr__(self) -> str:
        return f"AtomSpace({self.atom_count})"

    def event(self, atoms: Iterable[int] = ()) -> "Event":
        mask = 0
        for i in atoms:
            if not 0 <= i < self.atom_count:
                raise ValueError(f"atom index {i} out of range")
            mask |= 1 << i
        return _event(self, mask)

    def event_from_mask(self, mask: int) -> "Event":
        return _event(self, mask & self.full_mask)

    @property
    def zero(self) -> "Event":
        return _event(self, 0)

    @property
    def one(self) -> "Event":
        return _event(self, self.full_mask)

    def atom(self, i: int) -> "Event":
        if not 0 <= i < self.atom_count:
            raise ValueError(f"atom index {i} out of range")
        return _event(self, 1 << i)

    def events(self) -> Iterator["Event"]:
        """All 2^n events in canonical (ascending bitmask) order."""
        for mask in range(1 << self.atom_count):
            yield _event(self, mask)


class Event:
    """An immutable subset of the atoms of a fixed space.

    Operators follow the Boolean ring/lattice reading:
    ``&`` meet, ``|`` join, ``^`` ring sum (symmetric difference),
    ``~`` complement, ``<=`` the subset partial order.
    """

    __slots__ = ("space", "mask")

    def __init__(self, space: AtomSpace, mask: int):
        self.space = space
        self.mask = mask

    # Each operator reads a tabled space's entry itself, saving the call
    # to _event on the common path; _event builds every other result.

    def __and__(self, other: "Event") -> "Event":
        space, mask = self.space, self.mask & other.mask
        table = space._events
        if table is not None and other.space is space:
            return table[mask]
        return _event(space, mask, other.space)

    def __or__(self, other: "Event") -> "Event":
        space, mask = self.space, self.mask | other.mask
        table = space._events
        if table is not None and other.space is space:
            return table[mask]
        return _event(space, mask, other.space)

    def __xor__(self, other: "Event") -> "Event":
        space, mask = self.space, self.mask ^ other.mask
        table = space._events
        if table is not None and other.space is space:
            return table[mask]
        return _event(space, mask, other.space)

    def __invert__(self) -> "Event":
        space = self.space
        mask = space.full_mask & ~self.mask
        table = space._events
        if table is not None:
            return table[mask]
        return _event(space, mask)

    def __le__(self, other: "Event") -> bool:
        if other.space is not self.space and other.space != self.space:
            raise MismatchedSpaceError(_MISMATCH)
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Event)
            and self.mask == other.mask
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return hash(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, atom_index: int) -> bool:
        return bool(self.mask >> atom_index & 1)

    def atoms(self) -> list[int]:
        return [i for i in range(self.space.atom_count) if self.mask >> i & 1]

    @property
    def is_one(self) -> bool:
        return self.mask == self.space.full_mask

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in self.atoms()) + "}"


_new = object.__new__


def _event(space: AtomSpace, mask: int, peer=None) -> Event:
    """The Event of mask in space: the table entry when the space has
    one, else a new object built without a constructor call. mask must
    lie in space. peer is the space of the other operand of a binary op,
    if any."""
    if peer is not space and peer is not None and peer != space:
        raise MismatchedSpaceError(_MISMATCH)
    table = space._events
    if table is not None:
        return table[mask]
    event = _new(Event)
    event.space, event.mask = space, mask
    return event


def material_implies(b: Event, a: Event) -> Event:
    """Material implication b => a, read as (not b) or a."""
    return ~b | a
