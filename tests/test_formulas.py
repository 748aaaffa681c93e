import gc
import itertools
import random
import weakref
from functools import reduce

import pytest

from cea.algebra import AtomSpace, material_implies
from cea.engine import _Entries
from cea.formulas import (
    And,
    MAX_DEPTH,
    FormulaError,
    Implies,
    Leaf,
    NaryOp,
    Not,
    Or,
    bind_leaves,
    fold,
    from_json,
    ground,
    to_json,
)
from cea.semantics import PossibilityAssignment, fl_eval


def test_parse_round_trip():
    node = {
        "op": "implies",
        "args": [
            {"op": "or", "args": [{"var": "b1"}, {"var": "b2", "vals": ["1"]}]},
            {"op": "not", "args": [{"var": "a1", "vals": ["2", "3"]}]},
        ],
    }
    f = from_json(node)
    assert to_json(f) == node
    assert f.leaves() == {("b1", None), ("b2", ("1",)), ("a1", ("2", "3"))}


@pytest.mark.parametrize("bad", [
    42,
    {"op": "xor", "args": []},
    {"op": "not", "args": [{"var": "x"}, {"var": "y"}]},
    {"op": "implies", "args": [{"var": "x"}]},
    {"op": "and", "args": []},
    {"var": "x", "vals": [1]},
    {"var": ["b1"]},
    {"var": 7, "vals": ["1"]},
    {"var": "x", "vals": []},
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(FormulaError):
        from_json(bad)


@pytest.mark.parametrize("vals", [[], (), iter([])])
def test_leaf_refuses_an_empty_value_list(vals):
    """An empty leaf is refused where it is built, not first met as an
    empty reduce when a query is integrated."""
    with pytest.raises(FormulaError, match="leaf x lists no values"):
        Leaf("x", vals)


def test_parse_bounds_nesting_depth():
    def chain(depth):
        """depth nodes from root to leaf, every connective in turn, and
        the fuzzy grade of the chain when its leaves grade 0.25"""
        leaf = node = {"var": "x", "vals": ["1"]}
        grade = 0.25
        for i in range(depth - 1):
            op = ("and", "or", "not", "implies")[i % 4]
            node = {"op": op, "args": [leaf, node] if op == "implies" else [node]}
            grade = {"not": 1.0 - grade, "implies": max(0.75, grade)}.get(op, grade)
        return node, grade

    node, grade = chain(MAX_DEPTH)
    f = from_json(node)
    assert to_json(f) == node
    assert fl_eval(PossibilityAssignment({("x", "1"): 0.25}), f) == grade
    with pytest.raises(FormulaError, match=f"nests deeper than {MAX_DEPTH} levels"):
        from_json(chain(MAX_DEPTH + 1)[0])


def test_ground_commutes_with_connectives():
    space = AtomSpace(3)
    table = {"x": space.event([0, 1]), "y": space.event([1, 2])}

    def resolve(var, vals):
        return table[var]

    x, y = Leaf("x"), Leaf("y")
    assert ground(Or([x, y]), resolve) == table["x"] | table["y"]
    assert ground(And([x, y]), resolve) == table["x"] & table["y"]
    assert ground(Not(x), resolve) == ~table["x"]
    assert ground(Implies(x, y), resolve) == ~table["x"] | table["y"]
    nested = And([Or([x, y]), Not(y)])
    assert ground(nested, resolve) == (table["x"] | table["y"]) & ~table["y"]


def test_ground_reads_implies_over_ints_and_side_tables():
    """The engine grounds on int masks and on _Entries side tables: an
    Implies node reads as ~b | a, entry by entry on a table, a plain
    operand shared by every entry."""
    arrow = Implies(Leaf("b"), Leaf("a"))

    def ground_arrow(b, a):
        return ground(arrow, lambda var, vals: {"b": b, "a": a}[var])

    for b, a in itertools.product(range(-4, 8), repeat=2):
        assert ground_arrow(b, a) == ~b | a
    side = _Entries([0b001, 0b110, 0b011])
    for got, want in ((ground_arrow(side, 0b100), [~m | 0b100 for m in side]),
                      (ground_arrow(0b100, side), [~0b100 | m for m in side]),
                      (ground_arrow(side, side), [~m | m for m in side])):
        assert type(got) is _Entries and list(got) == want


def test_bind_leaves():
    f = Implies(Leaf("x"), Or([Leaf("y"), Leaf("z", ["5"])]))
    bound = bind_leaves(f, lambda var, vals: vals if vals else (var + "0",))
    assert to_json(bound) == {
        "op": "implies",
        "args": [
            {"var": "x", "vals": ["x0"]},
            {"op": "or", "args": [
                {"var": "y", "vals": ["y0"]},
                {"var": "z", "vals": ["5"]},
            ]},
        ],
    }


# The structural recursions `fold` replaced, kept as oracles: one
# isinstance dispatch per reading, no memo except fl's.

def old_ground(f, resolve_leaf):
    if isinstance(f, Leaf):
        return resolve_leaf(f.var, f.vals)
    if isinstance(f, Not):
        return ~old_ground(f.arg, resolve_leaf)
    if isinstance(f, And):
        return reduce(lambda x, y: x & y, (old_ground(a, resolve_leaf) for a in f.args))
    if isinstance(f, Or):
        return reduce(lambda x, y: x | y, (old_ground(a, resolve_leaf) for a in f.args))
    if isinstance(f, Implies):
        return material_implies(
            old_ground(f.antecedent, resolve_leaf), old_ground(f.consequent, resolve_leaf))
    raise FormulaError(f"unknown formula node {f!r}")


def old_bind_leaves(f, resolve_vals):
    if isinstance(f, Leaf):
        return Leaf(f.var, resolve_vals(f.var, f.vals))
    if isinstance(f, Not):
        return Not(old_bind_leaves(f.arg, resolve_vals))
    if isinstance(f, And):
        return And([old_bind_leaves(a, resolve_vals) for a in f.args])
    if isinstance(f, Or):
        return Or([old_bind_leaves(a, resolve_vals) for a in f.args])
    if isinstance(f, Implies):
        return Implies(old_bind_leaves(f.antecedent, resolve_vals),
                       old_bind_leaves(f.consequent, resolve_vals))
    raise FormulaError(f"unknown formula node {f!r}")


def old_to_json(f):
    if isinstance(f, Leaf):
        out = {"var": f.var}
        if f.vals is not None:
            out["vals"] = list(f.vals)
        return out
    if isinstance(f, Not):
        return {"op": "not", "args": [old_to_json(f.arg)]}
    if isinstance(f, And):
        return {"op": "and", "args": [old_to_json(a) for a in f.args]}
    if isinstance(f, Or):
        return {"op": "or", "args": [old_to_json(a) for a in f.args]}
    if isinstance(f, Implies):
        return {"op": "implies",
                "args": [old_to_json(f.antecedent), old_to_json(f.consequent)]}
    raise FormulaError(f"unknown formula node {f!r}")


def old_leaves(f):
    if isinstance(f, Leaf):
        return [f]
    if isinstance(f, Not):
        return old_leaves(f.arg)
    if isinstance(f, Implies):
        return old_leaves(f.antecedent) + old_leaves(f.consequent)
    return [leaf for a in f.args for leaf in old_leaves(a)]


def old_fl_eval(poss, f):
    memo = {}

    def grade(node):
        if id(node) not in memo:
            memo[id(node)] = node_grade(node)
        return memo[id(node)]

    def node_grade(node):
        if isinstance(node, Leaf):
            if node.vals is None:
                raise FormulaError(f"unbound leaf {node.var} in fuzzy evaluation")
            return max(poss.grade(node.var, v) for v in node.vals)
        if isinstance(node, Not):
            return 1.0 - grade(node.arg)
        if isinstance(node, And):
            return min(grade(a) for a in node.args)
        if isinstance(node, Or):
            return max(grade(a) for a in node.args)
        if isinstance(node, Implies):
            return max(1.0 - grade(node.antecedent), grade(node.consequent))
        raise FormulaError(f"unknown formula node {node!r}")

    return grade(f)


VARS = {"x": ["a", "b", "c"], "y": ["a", "b"], "z": ["a", "b", "c", "d"]}


def random_formula(rng, depth, pool):
    """A formula mixing the four connectives with free and bound leaves;
    about one node in five reuses an earlier sub-tree."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.25:
        var = rng.choice(sorted(VARS))
        if rng.random() < 0.4:
            node = Leaf(var)
        else:
            node = Leaf(var, rng.sample(VARS[var], rng.randint(1, len(VARS[var]))))
    else:
        kind = rng.choice(["and", "or", "not", "implies"])
        if kind == "not":
            node = Not(random_formula(rng, depth - 1, pool))
        elif kind == "implies":
            node = Implies(random_formula(rng, depth - 1, pool),
                           random_formula(rng, depth - 1, pool))
        else:
            args = [random_formula(rng, depth - 1, pool) for _ in range(rng.randint(1, 3))]
            node = (And if kind == "and" else Or)(args)
    pool.append(node)
    return node


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except FormulaError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_fold_matches_the_recursions_it_replaced(seed):
    rng = random.Random(seed)
    space = AtomSpace(6)
    events = {(var, val): space.event_from_mask(rng.randrange(1 << 6))
              for var, vals in VARS.items() for val in vals + ["free"]}

    def resolve_leaf(var, vals):
        return reduce(lambda x, y: x | y, (events[(var, v)] for v in vals or ["free"]))

    def resolve_vals(var, vals):
        return vals if vals is not None else (VARS[var][len(var) % len(VARS[var])],)

    poss = PossibilityAssignment({(var, val): rng.randrange(11) / 10
                                  for var, vals in VARS.items() for val in vals})
    for _ in range(60):
        f = random_formula(rng, rng.randint(0, 5), [])
        assert ground(f, resolve_leaf) == old_ground(f, resolve_leaf)
        assert to_json(f) == old_to_json(f)
        assert (to_json(bind_leaves(f, resolve_vals))
                == old_to_json(old_bind_leaves(f, resolve_vals)))
        leaves = old_leaves(f)
        assert f.leaves() == {(leaf.var, leaf.vals) for leaf in leaves}
        # fl reads bound trees, and refuses a free leaf with the same message
        assert outcome(fl_eval, poss, f) == outcome(old_fl_eval, poss, f)
        bound = bind_leaves(f, resolve_vals)
        assert fl_eval(poss, bound) == old_fl_eval(poss, bound)


def test_fold_visits_left_to_right_once_per_node():
    x, y, z = Leaf("x"), Leaf("y", ["1"]), Leaf("z")
    shared = Or([y, x])
    f = Implies(And([x, shared]), Or([Not(z), shared, y]))
    seen = []

    def leaf(var, vals):
        seen.append(var)
        return var

    def nary(name):
        return lambda args: f"{name}({','.join(args)})"

    out = fold(f, leaf, lambda a: f"not({a})", nary("and"), nary("or"),
               lambda a, c: f"({a} => {c})")
    assert seen == ["x", "y", "z"]
    assert out == "(and(x,or(y,x)) => or(not(z),or(y,x),y))"


def test_fold_frees_its_memo_without_the_cycle_collector():
    class Token:
        pass

    made = []

    def leaf(var, vals):
        token = Token()
        made.append(weakref.ref(token))
        return token

    f = And([Leaf("x"), Not(Leaf("y"))])
    gc.disable()
    try:
        assert fold(f, leaf, lambda t: t, len, len, lambda a, c: 2) == 2
        assert len(made) == 2 and all(ref() is None for ref in made)
    finally:
        gc.enable()


@pytest.mark.parametrize("wrap", [lambda node: node, lambda node: And([Leaf("x"), node]),
                                  lambda node: (Leaf("x"), node)])
def test_fold_refuses_a_bare_nary_node(wrap):
    """fold dispatches on a node's exact type: a bare NaryOp, at the root,
    as an argument or in a tuple, is no connective it knows."""
    bare = NaryOp([Leaf("y")])
    with pytest.raises(FormulaError, match=r"^unknown formula node \(y\)$"):
        fold(wrap(bare), lambda var, vals: var, len, len, len, lambda a, c: 2)
