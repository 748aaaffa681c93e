"""Combination-of-evidence pipeline over a typed knowledge base.

A knowledge base declares event variables with finite value domains and
implication-form rules connecting them. The pipeline grounds everything
in the product space whose atoms are joint assignments, conjoins the
observation with the rules that mention it, disjoins that conjunction
over all assignments of the unobserved non-query variables, and hands
the result to whichever evaluator the chosen logic dictates:

  cl  - classical, at one atom          pl  - probability of the event
  fl  - possibilistic, on the syntax    cpl - conditional probability of
                                              the conditional object

Each logic conjoins and disjoins in a distributive lattice, pointwise on
atoms (see `lattice`): events under & and | for cl and pl, with the rule
arrow read as material implication; conditional objects under
conjoin_all and disjoin_all for cpl (Kleene min and max on the
true/false/undefined reading), each rule being (consequent | antecedent);
formulas under And and Or for fl, read as MIN and MAX. So the
disjunction over assignments is computed by bucket elimination (Dechter
1999), one swept variable at a time, not one assignment at a time. An
unobserved query variable stays in the tables and is never eliminated,
so one elimination per query leaves the query bucket: a form for every
query value at once.

cl, pl and cpl are eliminated on int masks (`_mask_lattice`). A
conditional (a|b) is the interval of its coset, from a&b to b' | a
(`conditional.bounds`; Goodman, Nguyen and Walker 1991), and the
conditional meet and join act on it one bound at a time. So cpl packs
the two bounds into one int, the lower bound in the low n bits, and
ANDs and ORs it as cl and pl do their one mask; its upper bound is the
material implication they read. `lattice` keeps the object-level forms,
which `conjoin_f` uses as the oracle.

Every table of the elimination is a list of entries in product order
over its scope, read along a larger table's rows by position
(`_column`), and each logic's meet and join act on whole columns
(`_mask_lattice`), so one elimination step serves all four logics.
"""

from __future__ import annotations

import itertools
import math
from functools import partial, reduce
from operator import and_, invert, or_
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .algebra import AtomSpace, Event, _event, material_implies
from .conditional import ConditionalObject, _make, cond, conjoin_all, disjoin_all, embed
from .formulas import (And, Formula, Implies, Leaf, NaryOp, Not, Or, _join_all, _meet_all,
                       bind_leaves, fold, from_json, ground)
from .semantics import (
    UndefinedConditionalError,
    cl_eval,
    cpl_eval,
    fl_eval,
    pl_eval,
)

ALDP_TAGS = ("cl", "fl", "pl", "cpl")
VARIABLE_KINDS = ("data-attribute", "auxiliary-attribute", "diagnosis")
MAX_SPACE_ATOMS = 1 << 20
# Bits of the primitive table, counted as one mask of every atom per value.
MAX_PRIMITIVE_BITS = 1 << 32
# Entries of the largest joint table one elimination step may build.
MAX_ELIMINATION_TABLE = 1 << 16


class KnowledgeBaseError(ValueError):
    pass


def _is_string_list(values) -> bool:
    """A JSON list of strings; a string is not taken for its characters."""
    return isinstance(values, (list, tuple)) and all(isinstance(v, str) for v in values)


class VariableDecl:
    __slots__ = ("name", "kind", "domain")

    def __init__(self, name: str, kind: str, domain: Sequence[str]):
        if not isinstance(name, str):
            raise KnowledgeBaseError(f"variable name must be a string, got {name!r}")
        if kind not in VARIABLE_KINDS:
            raise KnowledgeBaseError(f"unknown variable kind {kind!r} for {name}")
        if not _is_string_list(domain):
            raise KnowledgeBaseError(f"domain of {name} must be a list of strings,"
                                     f" got {domain!r}")
        if not domain:
            raise KnowledgeBaseError(f"variable {name} has an empty domain")
        if len(set(domain)) != len(domain):
            raise KnowledgeBaseError(f"variable {name} has duplicate domain values")
        self.name = name
        self.kind = kind
        self.domain = list(domain)

    def __repr__(self) -> str:
        return f"VariableDecl({self.name}, {self.kind}, {self.domain})"


class Rule:
    """An immutable rule; its leaves are read once, here.

    side_free_variables holds the free variables of the antecedent and
    of the consequent, in that order: what each side's grounding reads
    besides the observation."""

    __slots__ = ("id", "antecedent", "consequent", "leaves", "variables", "free_variables",
                 "side_free_variables")

    def __init__(self, rule_id: str, antecedent: Formula, consequent: Formula):
        if not isinstance(rule_id, str):
            raise KnowledgeBaseError(f"rule id must be a string, got {rule_id!r}")
        self.id = rule_id
        self.antecedent = antecedent
        self.consequent = consequent
        sides = (antecedent.leaves(), consequent.leaves())
        self.leaves = frozenset(sides[0] | sides[1])
        self.variables = frozenset(var for var, _ in self.leaves)
        self.side_free_variables = tuple(
            frozenset(var for var, vals in side if vals is None) for side in sides)
        self.free_variables = self.side_free_variables[0] | self.side_free_variables[1]

    def __repr__(self) -> str:
        return f"Rule({self.id}: {self.antecedent!r} => {self.consequent!r})"


class KnowledgeBase:
    def __init__(self, variables: Sequence[VariableDecl], rules: Sequence[Rule]):
        # each domain as a set, for one lookup per rule value
        domains = {v.name: set(v.domain) for v in variables}
        if len(domains) != len(variables):
            raise KnowledgeBaseError("duplicate variable names")
        rule_ids = [r.id for r in rules]
        if len(set(rule_ids)) != len(rule_ids):
            raise KnowledgeBaseError("duplicate rule ids")
        self.variables = list(variables)
        self.rules = list(rules)
        self._by_name = {v.name: v for v in variables}
        for rule in rules:
            missing = rule.variables - domains.keys()
            if missing:
                raise KnowledgeBaseError(
                    f"rule {rule.id} references undeclared variables {sorted(missing)}"
                )
            bad = sorted((var, val) for var, vals in rule.leaves for val in vals or ()
                         if val not in domains[var])
            if bad:
                raise KnowledgeBaseError(
                    f"rule {rule.id} binds {bad[0][0]} to {bad[0][1]!r}, not in its domain")

    def variable(self, name: str) -> VariableDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise KnowledgeBaseError(f"undeclared variable {name!r}") from None

    def diagnosis_variables(self) -> list[VariableDecl]:
        return [v for v in self.variables if v.kind == "diagnosis"]


class Observation:
    """Observed value subsets per variable, each a tuple."""

    def __init__(self, kb: KnowledgeBase, observed: Mapping[str, Sequence[str]]):
        self.observed: dict[str, tuple[str, ...]] = {}
        for var, vals in observed.items():
            decl = kb.variable(var)
            if not _is_string_list(vals):
                raise KnowledgeBaseError(f"observation of {var} must be a list of strings,"
                                         f" got {vals!r}")
            if not vals:
                raise KnowledgeBaseError(f"observation of {var} is empty")
            bad = set(vals) - set(decl.domain)
            if bad:
                raise KnowledgeBaseError(
                    f"observation of {var} has out-of-domain values {sorted(bad)}"
                )
            self.observed[var] = tuple(vals)
        if not self.observed:
            raise KnowledgeBaseError("observation is empty")

    def __contains__(self, var: str) -> bool:
        return var in self.observed


class Grounding:
    """The product space of all variable domains.

    Atoms are joint assignments in itertools.product order over the
    declaration order, so atom indices are reproducible: the atom of an
    assignment is its mixed-radix number, the first variable most
    significant, and its label is "var=value,..." in declaration order
    (`_atom_labels`). The space builds its labels only when something
    reads them (the "atoms" measure form does), unless a variable name or
    value contains "," or "=": only then can two labels coincide, so only
    then are they built, and checked for uniqueness, up front.
    Holds one table, the mask of every primitive event var[value], of
    at most MAX_PRIMITIVE_BITS bits in all; an assignment's atom is the
    one bit its masks share, and `values_event` wraps a join of them as
    an Event. Grounds a whole formula to the mask at every assignment of
    its own variables (`ground_table`, the engine's path) or to an event
    at one assignment (`ground_formula`, the oracle's).
    """

    def __init__(self, kb: KnowledgeBase):
        sizes, values = 1, 0
        for v in kb.variables:
            sizes *= len(v.domain)
            values += len(v.domain)
            if sizes > MAX_SPACE_ATOMS:
                raise KnowledgeBaseError("joint domain product exceeds the space bound")
        if sizes * values > MAX_PRIMITIVE_BITS:
            raise KnowledgeBaseError(
                f"primitive table of {sizes} atoms x {values} values exceeds the bound"
                f" of {MAX_PRIMITIVE_BITS} bits")
        self.kb = kb
        # integrate_out's one memo slot: (key, {query value: form}).
        self._integrated = None
        variables = kb.variables
        # looked up at call time, so that a patched module attribute is seen
        self.space = AtomSpace(sizes, lambda: _atom_labels(variables))
        if any("," in s or "=" in s for v in variables for s in [v.name, *v.domain]):
            self.space.atom_labels  # the read builds and checks them
        # In product order a variable with d values and stride s holds
        # value j on a block of s atoms at offset j*s of every period of
        # d*s atoms. `starts` has one bit at the start of each period, so
        # (starts << s) - starts is value 0's blocks and the starts
        # shifted by every j*s are the next variable's periods, of s
        # atoms: the table takes time linear in its size, with no big-int
        # division or product.
        self._primitive: dict[tuple[str, str], int] = {}
        stride, starts = sizes, 1
        for var in kb.variables:
            stride //= len(var.domain)
            first = (starts << stride) - starts
            following = 0
            for j, val in enumerate(var.domain):
                self._primitive[(var.name, val)] = first << j * stride
                following |= starts << j * stride
            starts = following

    def primitive_mask(self, var: str, value: str) -> int:
        try:
            return self._primitive[(var, value)]
        except KeyError:
            raise KnowledgeBaseError(f"unknown primitive event {var}[{value}]") from None

    def values_mask(self, var: str, values: Sequence[str]) -> int:
        """The mask of var taking any of values: for one value, the
        table's own int, read with no join. Every engine call takes that
        branch (one value per leaf or observation), and it is faster there
        than the join over one item, which gives the same int."""
        if len(values) == 1:
            return self.primitive_mask(var, values[0])
        return _join_all([self.primitive_mask(var, value) for value in values])

    def values_event(self, var: str, values: Sequence[str]) -> Event:
        return _event(self.space, self.values_mask(var, values))

    def atom_of_assignment(self, assignment: Mapping[str, str]) -> int:
        """The atom of a value for every variable; the first fault found
        (an undeclared variable, then a missing one, then a value out of
        its domain) is named."""
        for var in assignment:
            if var not in self.kb._by_name:
                raise KnowledgeBaseError(f"assignment names undeclared variable {var!r}")
        mask = self.space.full_mask
        for var in self.kb.variables:
            if var.name not in assignment:
                raise KnowledgeBaseError(f"assignment gives no value for {var.name}")
            key = (var.name, assignment[var.name])
            if key not in self._primitive:
                raise KnowledgeBaseError(
                    f"assignment binds {key[0]} to {key[1]!r}, not in its domain")
            mask &= self._primitive[key]
        return mask.bit_length() - 1

    def ground_formula(
        self,
        f: Formula,
        observation: Optional[Observation] = None,
        assignment: Optional[Mapping[str, str]] = None,
    ) -> Event:
        """Ground a formula; free leaves resolve through the observation
        first, then the domain-variable assignment."""
        vals_of = leaf_values(observation, assignment or {})
        return ground(f, lambda var, vals: self.values_event(var, vals_of(var, vals)))

    def ground_table(
        self,
        f: Formula,
        observation: Optional[Observation],
        own: Mapping[str, Sequence[str]],
    ) -> list[int]:
        """ground_formula's mask at every assignment of own, in
        itertools.product order, from one fold on ints (`_table_leaves`).
        own maps f's free, unobserved variables to their domains. A
        negation there is Python's ~, which sets every bit above the
        space. Every node's bits above the space are then all 0 or all
        1, so a negative entry is cut to the space once, at the end, and
        any other is in it already (and may be the table's own int)."""
        full = self.space.full_mask
        table = _entries(ground(f, _table_leaves(observation, own, self.values_mask)), own)
        return [m if m >= 0 else m & full for m in table]


def _atom_labels(variables: Sequence[VariableDecl]) -> list[str]:
    """Every atom's "var=value,..." label, in atom order."""
    labels = [""]
    for i, var in enumerate(variables):
        sep = "," if i else ""
        parts = [f"{sep}{var.name}={val}" for val in var.domain]
        labels = [lab + part for lab in labels for part in parts]
    return labels


def leaf_values(observation: Optional[Observation], assignment: Mapping[str, str]):
    """The leaf resolver every logic shares: a leaf's own values, else
    the observed values of its variable, else its assigned value."""

    def resolve(var: str, vals):
        if vals is not None:
            return vals
        if observation is not None and var in observation:
            return observation.observed[var]
        if var in assignment:
            return (assignment[var],)
        raise KnowledgeBaseError(f"no binding for variable {var}")

    return resolve


class _Entries(tuple):
    """A rule side's table under construction: one value per assignment
    of the side's own variables. &, | and ~ act entry by entry, and a
    plain operand is shared by every entry, so that `ground` folds a
    table as it folds one mask."""

    __slots__ = ()

    def __and__(self, other):
        return _entrywise(and_, self, other)

    def __or__(self, other):
        return _entrywise(or_, self, other)

    def __invert__(self):
        return _Entries(map(invert, self))

    __rand__, __ror__ = __and__, __or__


def _entrywise(op, *args):
    """op(*args), or, when an arg is an _Entries, the _Entries of op on
    each entry, a plain arg being shared by every entry."""
    if _Entries not in map(type, args):
        return op(*args)
    n = len(next(a for a in args if type(a) is _Entries))
    return _Entries(map(op, *(a if type(a) is _Entries else itertools.repeat(a, n)
                              for a in args)))


def _table_leaves(observation: Optional[Observation], own: Mapping[str, Sequence[str]], make):
    """The leaf function of a side table's fold. own maps the side's
    free, unobserved variables to their domains. A free leaf of one of
    them resolves to an _Entries: its column make(var, (value,)), one
    entry per value, read along the assignments of own in
    itertools.product order (`_column`). Any other leaf, bound or
    observed, resolves once (through leaf_values), to the one
    make(var, vals) that every entry shares."""
    vals_of = leaf_values(observation, {})
    scope = tuple(own)

    def leaf(var, vals):
        if vals is None and var in own:
            return _Entries(_column([make(var, (v,)) for v in own[var]], (var,), scope, own))
        return make(var, vals_of(var, vals))

    return leaf


def _entries(out, own: Mapping[str, Sequence[str]]) -> Sequence:
    """A side table's fold result as its entries: a plain result, a
    table over no variable, is read along every assignment of own
    (`_column`)."""
    return out if type(out) is _Entries else _column([out], (), tuple(own), own)


def _lift(node):
    """A formula node's constructor applied entry by entry, as fold's
    function for that node."""
    if not issubclass(node, NaryOp):
        return partial(_entrywise, node)

    def build(*entry):
        return node(entry)

    return lambda args: _entrywise(build, *args)


# fold's functions for Not, And, Or and Implies in bind_table
_LIFTED_NODES = tuple(map(_lift, (Not, And, Or, Implies)))


def bind_table(
    f: Formula, observation: Optional[Observation], own: Mapping[str, Sequence[str]]
) -> Sequence[Formula]:
    """bind_leaves through leaf_values at every assignment of own, in
    itertools.product order, from one fold: a sub-tree with no free
    leaf of an own variable is built once and shared by every entry's
    tree, and a sub-tree shared in f is shared in each entry's."""
    return _entries(fold(f, _table_leaves(observation, own, Leaf), *_LIFTED_NODES), own)


def build_space(kb: KnowledgeBase) -> Grounding:
    return Grounding(kb)


def relevant_rules(kb: KnowledgeBase, obs: Observation) -> list[Rule]:
    """The potential firing class, in declaration order: rules whose
    antecedent or consequent mentions an observed variable, closed under
    variable sharing so that rules chained through auxiliary variables
    participate in the conjunction as well. A pass grows the reached
    variables rule by rule, so a chain declared in order takes one pass."""
    reachable = set(obs.observed)
    rules: list[Rule] = []
    while True:
        fired = []
        for rule in kb.rules:
            if rule.variables & reachable:
                fired.append(rule)
                reachable |= rule.variables
        if len(fired) == len(rules):
            return fired
        rules = fired


ConjoinedForm = Union[Event, ConditionalObject, Formula]


def lattice(grounding: Grounding, obs: Observation, aldp: str):
    """How one logic conjoins and disjoins evidence: (meet, join, base,
    side, arrow). meet and join take a nonempty list; base lists what
    the observation contributes. A rule contributes the arrow of its two
    sides: side(formula, assignment) is one rule side with its free
    leaves resolved through the observation and then the assignment,
    and arrow(antecedent, consequent) joins two such sides. cl/pl:
    events, the arrow material implication. cpl: conditional objects,
    the arrow (consequent | antecedent). fl: formula trees with their
    leaves bound, the arrow an Implies node. These are the object-level
    forms that conjoin_f, the oracle, meets in; elimination uses them,
    side excepted, for fl only, and `_mask_lattice` for the other three."""
    if aldp not in ALDP_TAGS:
        raise KnowledgeBaseError(f"unknown logic tag {aldp!r}")
    if aldp == "fl":
        return (And, Or, [Leaf(var, vals) for var, vals in obs.observed.items()],
                lambda f, assignment: bind_leaves(f, leaf_values(obs, assignment)), Implies)

    def side(f, assignment):
        return grounding.ground_formula(f, obs, assignment)

    y = _meet_all(grounding.values_event(var, vals) for var, vals in obs.observed.items())
    if aldp == "cpl":
        return (conjoin_all, disjoin_all, [embed(y)], side, lambda ant, cons: cond(cons, ant))
    return _meet_all, _join_all, [y], side, material_implies


def _mask_lattice(grounding: Grounding, obs: Observation, aldp: str):
    """`lattice` for elimination, on whole columns, plus wrap.

    Returns (meet, join, base, side, arrow, wrap). meet takes a nonempty
    list of equal-length columns and gives their entrywise meet, left to
    right; join(met, d) gives the join of each run of d entries of met.
    One column, or d = 1, passes its entries through unwrapped. side(f,
    own) is a side's table: its form at every assignment of own
    (`Grounding.ground_table`; `bind_table` for fl).

    cl, pl and cpl act on int masks: meet is & by nested maps across the
    columns and join | over the d strided slices met[j::d]. cl/pl: an
    event's mask, the arrow b' | a. cpl: the conditional (a|b) as the
    interval of its coset, lower bound a&b and upper bound b' | a, packed
    as lo | hi << n. The conditional meet and join are AND and OR of both
    bounds at once, so meet and join are & and | here too; a result (lo,
    hi) is the conditional with consequent lo and antecedent lo | hi'.
    wrap turns a result mask into the Event or ConditionalObject it
    stands for.

    fl: lattice's forms, one And node per row of the columns and one Or
    node per run; wrap is None."""
    if aldp not in ("cl", "pl", "cpl"):
        _, _, base, _, arrow = lattice(grounding, obs, aldp)
        return _and_rows, _or_runs, base, lambda f, own: bind_table(f, obs, own), arrow, None
    space = grounding.space
    n, full = space.atom_count, space.full_mask

    def side(f, own):
        return grounding.ground_table(f, obs, own)

    y = _meet_all(grounding.values_mask(var, vals) for var, vals in obs.observed.items())
    if aldp == "cpl":
        def wrap(m):
            lo = m & full
            return _make(space, lo, lo | full ^ m >> n)

        return (_and_columns, _or_strides, [y | y << n], side,
                lambda ant, cons: cons & ant | (full ^ ant | cons) << n, wrap)
    return (_and_columns, _or_strides, [y], side, lambda ant, cons: full ^ ant | cons,
            partial(_event, space))


def _and_columns(columns: list) -> list:
    """The masks' meet: & across the columns, left to right."""
    return list(reduce(partial(map, and_), columns))


def _or_strides(met: list, d: int) -> list:
    """The masks' join: | over the d strided slices, one per value."""
    return list(reduce(partial(map, or_), [met[j::d] for j in range(d)]))


def _and_rows(columns: list) -> list:
    """fl's meet: one And node per row of the columns."""
    return columns[0] if len(columns) == 1 else list(map(And, zip(*columns)))


def _or_runs(met: list, d: int) -> list:
    """fl's join: one Or node per run of d entries."""
    return met if d == 1 else list(map(Or, zip(*[iter(met)] * d)))


def conjoin_f(
    grounding: Grounding,
    obs: Observation,
    rules: Sequence[Rule],
    aldp: str,
    assignment: Mapping[str, str],
) -> ConjoinedForm:
    """The conjunction of the observed data with the relevant rules,
    at one assignment of the domain variables, in the logic's lattice."""
    meet, _, base, side, arrow = lattice(grounding, obs, aldp)
    return meet(base + [arrow(side(rule.antecedent, assignment),
                              side(rule.consequent, assignment)) for rule in rules])


def elimination_order(
    scopes, domains: Mapping[str, Sequence[str]], keep: Optional[str] = None
) -> tuple[list[str], int]:
    """Greedy elimination order over the variables the scopes name,
    `keep` excepted: it is never eliminated but counts in table sizes.

    Each step eliminates the variable whose resulting table is smallest,
    the first in `domains` order on a tie. Returns the order and the
    entry count of the largest table built, a scope's own or the joint
    table of a step. The order sets only the cost: the lattice laws make
    every order give one result.

    The order is kept up to date on the interaction graph one step at a
    time (Koller and Friedman 2009, ch. 9): each variable's neighbours,
    the union of the scopes that name it less itself, and its cost, the
    size of that union, are built once. A step updates only the
    eliminated variable's neighbours: each gains the others and loses
    it.
    """
    def size(names) -> int:
        return math.prod(len(domains[v]) for v in names)

    neighbours: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            neighbours.setdefault(v, set()).update(scope)
    largest = max([1] + [size(set(s)) for s in scopes])
    remaining = [v for v in domains if v != keep and v in neighbours]
    cost = {}
    for v in remaining:
        neighbours[v].discard(v)
        cost[v] = size(neighbours[v])
    order = []
    while remaining:
        var = min(remaining, key=cost.__getitem__)
        largest = max(largest, cost.pop(var) * len(domains[var]))
        merged = neighbours.pop(var)
        for v in merged.intersection(cost):
            joint = neighbours[v]
            joint |= merged
            joint -= {v, var}
            cost[v] = size(joint)
        remaining.remove(var)
        order.append(var)
    return order, largest


def _positions(sub, scope, domains) -> list[int]:
    """Where each row of a table over scope, in product order, reads a
    table over sub, some of scope's variables in any order: its entry's
    index in product order over sub, from sub's strides. A variable of
    scope that sub lacks has stride 0."""
    strides, stride = {}, 1
    for v in reversed(sub):
        strides[v] = stride
        stride *= len(domains[v])
    positions = [0]
    for v in scope:
        steps = [j * strides.get(v, 0) for j in range(len(domains[v]))]
        positions = [p + step for p in positions for step in steps]
    return positions


def _column(entries: list, sub, scope, domains) -> list:
    """A table over sub, some of scope's variables, read along the rows
    of a table over scope. A table over all of scope is read as it is;
    one over scope's last variables, or over none, is repeated whole,
    once per combo of the others, and one over its first variables entry
    by entry; any other is read through one list of positions
    (`_positions`)."""
    if sub == scope:
        return entries
    rest = len(scope) - len(sub)
    if scope[rest:] == sub:
        return entries * math.prod([len(domains[v]) for v in scope[:rest]])
    if scope[:len(sub)] == sub:
        run = range(math.prod([len(domains[v]) for v in scope[len(sub):]]))
        return [entry for entry in entries for _ in run]
    return list(map(entries.__getitem__, _positions(sub, scope, domains)))


def _eliminate(meet, join, tables: list, var: str, domains) -> list:
    """Meet the (scope, entries) tables that mention var and join over
    its domain: one table over the other variables they mention.

    Every table lists its entries in product order over its scope. The
    rows of the joint table, scope + (var,), run in product order, so
    each run of len(domains[var]) rows is one entry's column. Each
    touching table is read along the rows as one column (`_column`); the
    lattice's meet takes the columns and its join the runs, each in
    whole-column passes."""
    touching = [t for t in tables if var in t[0]]
    names = {v for scope, _ in touching for v in scope} - {var}
    scope = tuple(v for v in domains if v in names)
    row_scope = scope + (var,)
    met = meet([_column(entries, s, row_scope, domains) for s, entries in touching])
    return [t for t in tables if var not in t[0]] + [(scope, join(met, len(domains[var])))]


def integrate_out(
    grounding: Grounding,
    obs: Observation,
    aldp: str,
    query_var: str,
    query_value: str,
) -> ConjoinedForm:
    """The join, over every assignment of the swept variables, of the
    conjunction form, with the query variable pinned to one value.

    One elimination serves every query value. After the argument
    checks, the first call for a logic, query variable and observation
    computes every value's form (`_query_forms`) and keeps them in the
    grounding's one memo slot, keyed by `(aldp, query_var, ((var,
    values), ...))` over the observed values: content, not identity.
    Later calls with that key read the slot; a call that raises stores
    nothing. cl/pl give an Event, cpl a ConditionalObject and fl a
    formula whose sub-trees are shared between table entries.
    """
    decl = grounding.kb.variable(query_var)
    if decl.kind != "diagnosis":
        raise KnowledgeBaseError(f"query variable {query_var} is not a diagnosis")
    if query_value not in decl.domain:
        raise KnowledgeBaseError(f"{query_value!r} not in the domain of {query_var}")
    key = (aldp, query_var, tuple(obs.observed.items()))
    if grounding._integrated is None or grounding._integrated[0] != key:
        grounding._integrated = (key, _query_forms(grounding, obs, aldp, decl))
    return grounding._integrated[1][query_value]


def _query_forms(
    grounding: Grounding, obs: Observation, aldp: str, query: VariableDecl
) -> dict[str, ConjoinedForm]:
    """Every query value's form from one variable elimination.

    Its variables (`domains`) are those the relevant rules' free leaves
    name, less the observed ones (which resolve through the
    observation), in declaration order with the query variable last: a
    variable named only in bound leaves never enters a table. Each rule
    becomes a table over the ones its own free leaves name. A table's
    entry is the arrow of the rule's two sides. Every table, a side's, a
    rule's or a bucket's, is a list of entries in product order over its
    scope, and is read along another table's rows through one list of
    positions (`_column`); no entry is looked up by a key.

    Each distinct side is grounded once, for this call only, the first
    time a rule needs it (the antecedent first), keyed by its formula
    object (a lone leaf by its (var, vals)): one fold (`side`) makes its
    table over its own free, unobserved variables, in scope order. Its
    bound and observed leaves are grounded once in that fold, and shared
    by every entry. A side shared by many entries, or by two rules, is
    one object in all of them. A rule's entries are the arrows of its
    two sides' columns.

    The swept variables are eliminated in `elimination_order`, whose
    largest table, query dimension included, is checked against
    MAX_ELIMINATION_TABLE before any rule is grounded. The tables left
    are over () or (query,); the forms are the lattice's meet of the
    base and those tables, as columns over the query values. cl, pl and
    cpl eliminate on int masks (`_mask_lattice`), each value's mask
    wrapped once at the end; fl on formula trees.
    """
    kb = grounding.kb
    meet, join, base, side, arrow, wrap = _mask_lattice(grounding, obs, aldp)
    rules = relevant_rules(kb, obs)
    free = set().union(*(rule.free_variables for rule in rules)).difference(obs.observed)
    query_last = [v for v in kb.variables if v.name != query.name] + [query]
    domains = {v.name: v.domain for v in query_last if v.name in free}
    scopes = [tuple(v for v in domains if v in rule.free_variables) for rule in rules]
    order, largest = elimination_order(scopes, domains, keep=query.name)
    if largest > MAX_ELIMINATION_TABLE:
        raise KnowledgeBaseError(
            f"eliminating the swept variables needs a table of {largest} entries,"
            f" over the bound of {MAX_ELIMINATION_TABLE}")

    sides: dict = {}  # side key -> its entries over its own variables
    tables = []
    for rule, scope in zip(rules, scopes):
        columns = []
        for f, free in zip((rule.antecedent, rule.consequent), rule.side_free_variables):
            own = tuple(v for v in scope if v in free)
            key = (f.var, f.vals) if isinstance(f, Leaf) else f
            if key not in sides:
                sides[key] = side(f, {v: domains[v] for v in own})
            columns.append(_column(sides[key], own, scope, domains))
        tables.append((scope, list(map(arrow, *columns))))
    for var in order:
        tables = _eliminate(meet, join, tables, var, domains)
    count = len(query.domain)
    forms = meet([[b] * count for b in base]
                 + [entries if scope else entries * count for scope, entries in tables])
    return dict(zip(query.domain, forms if wrap is None else map(wrap, forms)))


class EvalRow(NamedTuple):
    value: str
    grade: object = None
    error: Optional[str] = None


def evaluate(
    grounding: Grounding,
    obs: Observation,
    aldp: str,
    query_var: str,
    semantics_input,
) -> list[EvalRow]:
    """One grade per query value under the chosen logic.

    semantics_input is an atom index for cl, a PossibilityAssignment
    for fl, and a ProbabilityMeasure for pl/cpl. fl grades all values'
    forms in one call. A zero-probability antecedent under cpl yields a
    per-value error row, not a failure.
    """
    decl = grounding.kb.variable(query_var)
    # looked up at call time, so that a patched module attribute is seen;
    # an unknown tag gets None here and is refused by integrate_out
    grade = {"cl": cl_eval, "fl": fl_eval, "pl": pl_eval, "cpl": cpl_eval}.get(aldp)
    forms = [integrate_out(grounding, obs, aldp, query_var, value) for value in decl.domain]
    if aldp == "fl":
        return list(map(EvalRow, decl.domain, grade(semantics_input, tuple(forms))))
    rows = []
    for value, form in zip(decl.domain, forms):
        try:
            rows.append(EvalRow(value, grade(semantics_input, form)))
        except UndefinedConditionalError:
            rows.append(EvalRow(value, error="undefined"))
    return rows


def kb_from_json(data) -> KnowledgeBase:
    if not isinstance(data, dict):
        raise KnowledgeBaseError("knowledge base file must be a JSON object")
    for field in ("variables", "rules"):
        entries = data.get(field, [])
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise KnowledgeBaseError(f'"{field}" must be a list of objects, got {entries!r}')
    try:
        variables = [
            VariableDecl(v["name"], v["kind"], v["domain"])
            for v in data.get("variables", [])
        ]
        rules = [
            Rule(r["id"], from_json(r["if"]), from_json(r["then"]))
            for r in data.get("rules", [])
        ]
    except KeyError as exc:
        raise KnowledgeBaseError(f"missing field {exc} in knowledge base file") from None
    if not variables:
        raise KnowledgeBaseError("knowledge base declares no variables")
    return KnowledgeBase(variables, rules)


def observation_from_json(kb: KnowledgeBase, data) -> Observation:
    if not isinstance(data, dict) or not isinstance(data.get("observe"), dict):
        raise KnowledgeBaseError('observation file must look like {"observe": {...}}')
    return Observation(kb, data["observe"])
