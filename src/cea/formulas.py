"""Formula syntax trees over primitive events.

Leaves name a declared variable, either bound to an explicit set of
values (the primitive events var[value]) or left free, to be resolved
later from an observation or a domain-variable assignment. Connectives
are and/or/not/implies. Trees ground to events by structural recursion;
they also serve the fuzzy evaluator, which must see syntax because
possibility grades are not functions of the event extension.

JSON form: {"var": name, "vals": [...]} for leaves (omit "vals" for a
free leaf), {"op": "and"|"or"|"not"|"implies", "args": [...]} otherwise.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Optional, Sequence

from .algebra import Event, material_implies


class FormulaError(ValueError):
    pass


class Formula:
    __slots__ = ()

    def variables(self) -> set[str]:
        return {leaf.var for leaf in self._leaves()}

    def free_variables(self) -> set[str]:
        """Variables of the leaves that carry no values of their own."""
        return {leaf.var for leaf in self._leaves() if leaf.vals is None}

    def _leaves(self) -> list["Leaf"]:
        out: list[Leaf] = []
        self._collect(out)
        return out

    def _collect(self, out: list["Leaf"]) -> None:
        raise NotImplementedError


class Leaf(Formula):
    __slots__ = ("var", "vals")

    def __init__(self, var: str, vals: Optional[Sequence[str]] = None):
        self.var = var
        self.vals = None if vals is None else tuple(vals)

    def _collect(self, out: list["Leaf"]) -> None:
        out.append(self)

    def __repr__(self) -> str:
        if self.vals is None:
            return self.var
        return f"{self.var}[{','.join(self.vals)}]"


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        self.arg = arg

    def _collect(self, out: list["Leaf"]) -> None:
        self.arg._collect(out)

    def __repr__(self) -> str:
        return f"not({self.arg!r})"


class NaryOp(Formula):
    __slots__ = ("args",)
    symbol = "?"

    def __init__(self, args: Sequence[Formula]):
        if not args:
            raise FormulaError(f"{self.symbol} needs at least one argument")
        self.args = tuple(args)

    def _collect(self, out: list["Leaf"]) -> None:
        for a in self.args:
            a._collect(out)

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

    def _collect(self, out: list["Leaf"]) -> None:
        self.antecedent._collect(out)
        self.consequent._collect(out)

    def __repr__(self) -> str:
        return f"({self.antecedent!r} => {self.consequent!r})"


LeafResolver = Callable[[str, Optional[tuple[str, ...]]], Event]


def ground(f: Formula, resolve_leaf: LeafResolver) -> Event:
    """Map a formula to an event; implication grounds materially."""
    if isinstance(f, Leaf):
        return resolve_leaf(f.var, f.vals)
    if isinstance(f, Not):
        return ~ground(f.arg, resolve_leaf)
    if isinstance(f, And):
        return reduce(lambda x, y: x & y, (ground(a, resolve_leaf) for a in f.args))
    if isinstance(f, Or):
        return reduce(lambda x, y: x | y, (ground(a, resolve_leaf) for a in f.args))
    if isinstance(f, Implies):
        return material_implies(
            ground(f.antecedent, resolve_leaf), ground(f.consequent, resolve_leaf)
        )
    raise FormulaError(f"unknown formula node {f!r}")


def bind_leaves(
    f: Formula, resolve_vals: Callable[[str, Optional[tuple[str, ...]]], tuple[str, ...]]
) -> Formula:
    """Return a copy with every leaf carrying explicit values."""
    if isinstance(f, Leaf):
        return Leaf(f.var, resolve_vals(f.var, f.vals))
    if isinstance(f, Not):
        return Not(bind_leaves(f.arg, resolve_vals))
    if isinstance(f, And):
        return And([bind_leaves(a, resolve_vals) for a in f.args])
    if isinstance(f, Or):
        return Or([bind_leaves(a, resolve_vals) for a in f.args])
    if isinstance(f, Implies):
        return Implies(
            bind_leaves(f.antecedent, resolve_vals),
            bind_leaves(f.consequent, resolve_vals),
        )
    raise FormulaError(f"unknown formula node {f!r}")


def from_json(obj) -> Formula:
    if not isinstance(obj, dict):
        raise FormulaError(f"formula node must be an object, got {obj!r}")
    if "var" in obj:
        vals = obj.get("vals")
        if vals is not None and not (
            isinstance(vals, list) and all(isinstance(v, str) for v in vals)
        ):
            raise FormulaError(f"leaf vals must be a list of strings: {obj!r}")
        return Leaf(obj["var"], vals)
    op = obj.get("op")
    args = obj.get("args", [])
    if not isinstance(args, list):
        raise FormulaError(f"args must be a list: {obj!r}")
    parsed = [from_json(a) for a in args]
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


def to_json(f: Formula):
    if isinstance(f, Leaf):
        out = {"var": f.var}
        if f.vals is not None:
            out["vals"] = list(f.vals)
        return out
    if isinstance(f, Not):
        return {"op": "not", "args": [to_json(f.arg)]}
    if isinstance(f, And):
        return {"op": "and", "args": [to_json(a) for a in f.args]}
    if isinstance(f, Or):
        return {"op": "or", "args": [to_json(a) for a in f.args]}
    if isinstance(f, Implies):
        return {"op": "implies", "args": [to_json(f.antecedent), to_json(f.consequent)]}
    raise FormulaError(f"unknown formula node {f!r}")
