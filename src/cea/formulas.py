"""Formula syntax trees over primitive events.

Leaves name a declared variable, either bound to an explicit set of
values (the primitive events var[value]) or left free, to be resolved
later from an observation or a domain-variable assignment. Connectives
are and/or/not/implies.

Every reading of a tree is one `fold`: a function for leaves and one
per connective. Grounding to events, binding leaves, the JSON form, the
set of leaves and the fuzzy evaluator (which must see syntax, because
possibility grades are not functions of the event extension) are each
a fold with their own five functions.

JSON form: {"var": name, "vals": [...]} for leaves (omit "vals" for a
free leaf), {"op": "and"|"or"|"not"|"implies", "args": [...]} otherwise.
A tree may nest at most MAX_DEPTH nodes from root to leaf, so that the
recursive readers (from_json, fold) stay far inside Python's recursion
limit on every supported version.
"""

from __future__ import annotations

import operator
from functools import partial, reduce
from typing import Callable, Optional, Sequence

from .algebra import Event, material_implies


MAX_DEPTH = 100


class FormulaError(ValueError):
    pass


class Formula:
    __slots__ = ()

    def leaves(self) -> set[tuple[str, Optional[tuple[str, ...]]]]:
        """The distinct (var, vals) pairs of the leaves."""
        return fold(self, lambda var, vals: {(var, vals)}, _same, _union, _union, set.union)


class Leaf(Formula):
    __slots__ = ("var", "vals")

    def __init__(self, var: str, vals: Optional[Sequence[str]] = None):
        self.var = var
        self.vals = None if vals is None else tuple(vals)
        if self.vals == ():
            raise FormulaError(f"leaf {var} lists no values")

    def __repr__(self) -> str:
        if self.vals is None:
            return self.var
        return f"{self.var}[{','.join(self.vals)}]"


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        self.arg = arg

    def __repr__(self) -> str:
        return f"not({self.arg!r})"


class NaryOp(Formula):
    __slots__ = ("args",)
    symbol = "?"

    def __init__(self, args: Sequence[Formula]):
        if not args:
            raise FormulaError(f"{self.symbol} needs at least one argument")
        self.args = tuple(args)

    def __repr__(self) -> str:
        return "(" + f" {self.symbol} ".join(repr(a) for a in self.args) + ")"


class And(NaryOp):
    __slots__ = ()
    symbol = "and"


class Or(NaryOp):
    __slots__ = ()
    symbol = "or"


class Implies(Formula):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        self.antecedent = antecedent
        self.consequent = consequent

    def __repr__(self) -> str:
        return f"({self.antecedent!r} => {self.consequent!r})"


def fold(f: Formula | tuple[Formula, ...], leaf, not_, and_, or_, implies):
    """Read a formula bottom-up: leaf(var, vals) at each leaf, not_(x)
    and implies(x, y) on the results of the arguments, and_(xs) and
    or_(xs) on the list of them. Arguments are visited left to right.

    Each distinct node is read once per call and its result reused
    wherever the node recurs, so a tree whose sub-trees are shared costs
    its number of nodes, not of paths; a shared node's result is the
    same object at every place it occurs. f may also be a tuple of
    formulas: they are read in order in one pass, so a node they share
    is read once, and the result is the tuple of their results.

    A node is dispatched on its exact type, so a bare NaryOp, or any
    other node, is refused; a memo hit is read where the argument is,
    with no call."""
    if type(f) is Leaf:  # a lone leaf has nothing to share: no memo
        return leaf(f.var, f.vals)
    memo = {}

    def go(node):
        kind = type(node)
        if kind is Leaf:
            out = leaf(node.var, node.vals)
        elif kind is Or:
            out = or_([memo[a] if a in memo else go(a) for a in node.args])
        elif kind is And:
            out = and_([memo[a] if a in memo else go(a) for a in node.args])
        elif kind is Not:
            a = node.arg
            out = not_(memo[a] if a in memo else go(a))
        elif kind is Implies:
            a, c = node.antecedent, node.consequent
            out = implies(memo[a] if a in memo else go(a), memo[c] if c in memo else go(c))
        else:
            raise FormulaError(f"unknown formula node {node!r}")
        memo[node] = out
        return out

    try:
        if isinstance(f, tuple):
            return tuple([memo[node] if node in memo else go(node) for node in f])
        return go(f)
    finally:
        # go refers to itself; unlinking it frees the memo now, not at the next gc
        del go


def _same(x):
    return x


def _union(sets: list[set]) -> set:
    return set().union(*sets)


LeafResolver = Callable[[str, Optional[tuple[str, ...]]], Event]


_meet_all = partial(reduce, operator.and_)
_join_all = partial(reduce, operator.or_)


def ground(f: Formula, resolve_leaf: LeafResolver) -> Event:
    """Map a formula to an event; implication grounds materially."""
    return fold(f, resolve_leaf, operator.invert, _meet_all, _join_all, material_implies)


def bind_leaves(
    f: Formula, resolve_vals: Callable[[str, Optional[tuple[str, ...]]], tuple[str, ...]]
) -> Formula:
    """Return a copy with every leaf carrying explicit values; sub-trees
    shared in f are shared in the copy."""
    return fold(f, lambda var, vals: Leaf(var, resolve_vals(var, vals)),
                Not, And, Or, Implies)


def from_json(obj, _depth: int = 1) -> Formula:
    if _depth > MAX_DEPTH:
        raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")
    if not isinstance(obj, dict):
        raise FormulaError(f"formula node must be an object, got {obj!r}")
    if "var" in obj:
        if not isinstance(obj["var"], str):
            raise FormulaError(f"leaf var must be a string: {obj!r}")
        vals = obj.get("vals")
        if vals is not None and not (
            isinstance(vals, list) and vals and all(isinstance(v, str) for v in vals)
        ):
            raise FormulaError(f"leaf vals must be a nonempty list of strings: {obj!r}")
        return Leaf(obj["var"], vals)
    op = obj.get("op")
    args = obj.get("args", [])
    if not isinstance(args, list):
        raise FormulaError(f"args must be a list: {obj!r}")
    parsed = [from_json(a, _depth + 1) for a in args]
    if op == "not":
        if len(parsed) != 1:
            raise FormulaError("not takes exactly one argument")
        return Not(parsed[0])
    if op == "and":
        return And(parsed)
    if op == "or":
        return Or(parsed)
    if op == "implies":
        if len(parsed) != 2:
            raise FormulaError("implies takes exactly two arguments")
        return Implies(parsed[0], parsed[1])
    raise FormulaError(f"unknown formula operator {op!r}")


def _leaf_json(var: str, vals) -> dict:
    return {"var": var} if vals is None else {"var": var, "vals": list(vals)}


def to_json(f: Formula):
    """The JSON form; a sub-tree shared in f gives one dict, shared."""
    def op(name):
        return lambda *args: {"op": name, "args": list(args)}

    def nary(name):
        return lambda args: {"op": name, "args": args}

    return fold(f, _leaf_json, op("not"), nary("and"), nary("or"), op("implies"))
