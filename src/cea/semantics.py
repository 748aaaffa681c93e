"""The four semantic evaluators over one event algebra.

Classical evaluation sends events to {0,1} at a chosen atom. Fuzzy
(possibilistic) evaluation works on formula syntax with MIN/MAX/1-x,
because a possibility assignment on primitive events does not factor
through the event extension. Probability evaluation sums atom weights,
and conditional-probability evaluation takes the ratio over a
conditional object's pair, extending the measure monotonically to the
conditional space.

Weights are exact Fractions when given as ints or "p/q" strings and
finite floats otherwise; float comparisons use a 1e-12 tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, repeat
from operator import add
from typing import Mapping, Sequence, Union

from .algebra import AtomSpace, Event, material_implies
from .conditional import ConditionalObject, cond
from .formulas import Formula, FormulaError, _meet_all, fold

TOLERANCE = 1e-12

Weight = Union[Fraction, float]


class UndefinedConditionalError(ArithmeticError):
    """Conditioning on an event of probability zero."""


def parse_weight(value) -> Weight:
    """Ints and "p/q" strings become exact Fractions; finite floats stay
    float. NaN and the infinities are refused, since no bound check can
    reject a NaN weight."""
    if isinstance(value, bool):
        raise ValueError(f"not a weight: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a weight: {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # not p/q, q = 0 or too many digits
            raise ValueError(f"not a weight: {value!r}") from None
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"not a weight: {value!r}")


def weights_close(x: Weight, y: Weight) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    return abs(float(x) - float(y)) <= TOLERANCE


def _weight_total(weights: Sequence[Weight], signed: bool = False) -> Weight:
    """The total a sum-to-one check decides on, the same on every
    Python: an exact total is sum()'s, a float one the left-to-right sum
    from 0.0 that p() reads. From Python 3.12 sum() of floats is
    compensated, so it is only the fast path: the left-to-right total of
    n weights, floats or Fractions, and sum()'s on any version each lie
    within n * 2**-53 * magnitude of the exact sum, so a sum() inside
    TOLERANCE of 1 by twice that decides as the left-to-right total
    would. magnitude is the sum of the weights' absolute values: the
    total itself unless signed says that a weight may be negative, and
    summed only for a float total."""
    total = sum(weights)
    if isinstance(total, float):
        magnitude = sum(map(abs, weights)) if signed else total
        margin = (2 * len(weights) + 1) * 2**-53 * magnitude
        if not abs(total - 1) + margin <= TOLERANCE:
            total = reduce(add, weights, 0.0)
    return total


def _scan_atom_weights(values: Sequence, denominator: int | None) -> tuple[list, int | None]:
    """A constructor's per-atom checks: weights (`denominator` None)
    are copied, each parsed unless it is already a float or a Fraction,
    and turned into numerators over their least common denominator when
    all are exact; then every value's sign is checked."""
    if denominator is None:
        if all(map(isinstance, values, repeat((float, Fraction)))):
            values = list(values)
        else:
            values = [w if isinstance(w, (float, Fraction)) else parse_weight(w)
                      for w in values]
        if all(map(isinstance, values, repeat(Fraction))):
            denominator = math.lcm(*{w.denominator for w in values})
            values = [w.numerator * (denominator // w.denominator) for w in values]
    # min() >= 0 rules out a negative value; otherwise (a negative
    # value, or a NaN met first) the scan decides
    if not min(values) >= 0 and any(v < 0 for v in values):
        raise ValueError("weights must be nonnegative")
    return values, denominator


# bytes.translate table: the ASCII digits of bin() to 0/1 selectors
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


class ProbabilityMeasure:
    """Nonnegative atom weights summing to one.

    An exact measure holds only integer numerators over one common
    denominator, whichever constructor built it, so p(e) is one integer
    sum and one Fraction; its `weights` list of Fractions is made from
    them when first read. A float (or mixed) measure adds the weights of
    e's atoms in ascending atom order, starting from 0.0.

    The constructor copies the weights it is given. When each is already
    a float or a Fraction, its per-atom checks (types, signs, the total)
    are C-level passes over the list. Each measure remembers the mass of
    every event mask it has summed: cpl asks for one antecedent once per
    query value.
    """

    __slots__ = ("space", "exact", "_weights", "_numerators", "_denominator", "_masses")

    def __init__(self, space: AtomSpace, weights: Sequence[Weight]):
        self._setup(space, weights, None)

    @classmethod
    def from_numerators(cls, space: AtomSpace, numerators: list[int],
                        denominator: int) -> "ProbabilityMeasure":
        """The exact measure giving atom i the weight
        numerators[i] / denominator."""
        p = object.__new__(cls)
        p._setup(space, numerators, denominator)
        return p

    @classmethod
    def _of_products(cls, space: AtomSpace, weights: list) -> "ProbabilityMeasure":
        """The float (or mixed) measure whose weights are products of
        nonnegative `parse_weight` outputs, as `measure_from_json` builds
        them: floats or Fractions by construction, and nonnegative, so
        the list is held as it is, with no per-atom scan; its length and
        its total are checked as any measure's, a refused total named as
        the factors' product."""
        p = object.__new__(cls)
        p._setup(space, weights, None, scanned=True)
        return p

    def _setup(self, space: AtomSpace, values: Sequence, denominator: int | None,
               scanned: bool = False) -> None:
        """Check and hold one weight per atom: `values` are the weights
        when `denominator` is None, else integer numerators over it.
        Unless `scanned` says that they are already nonnegative floats
        or Fractions, the products of a factors file (`_of_products`),
        each value is checked (`_scan_atom_weights`)."""
        if len(values) != space.atom_count:
            raise ValueError("one weight per atom required")
        if not scanned:
            values, denominator = _scan_atom_weights(values, denominator)
        total = (_weight_total(values) if denominator is None
                 else Fraction(sum(values), denominator))
        if not weights_close(total, Fraction(1)):
            what = "the factors' product sums" if scanned else "weights sum"
            raise ValueError(f"{what} to {total}, expected 1")
        exact = denominator is not None
        self.space, self.exact, self._denominator, self._masses = space, exact, denominator, {}
        self._weights, self._numerators = (None, values) if exact else (values, None)

    @property
    def weights(self) -> list[Weight]:
        """One weight per atom, in atom order."""
        if self._weights is None:
            denominator = self._denominator
            self._weights = [Fraction(n, denominator) for n in self._numerators]
        return self._weights

    @classmethod
    def uniform(cls, space: AtomSpace) -> "ProbabilityMeasure":
        n = space.atom_count
        return cls.from_numerators(space, [1] * n, n)

    def __call__(self, e: Event) -> Weight:
        if e.space != self.space:
            raise ValueError("event from a different space")
        mask = e.mask
        mass = self._masses.get(mask)
        if mass is None:
            # one 0/1 selector per atom, atom 0 first
            selectors = bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS)
            if self.exact:
                mass = Fraction(sum(compress(self._numerators, selectors)), self._denominator)
            else:
                # reduce, not sum(): from Python 3.12 sum() of floats is compensated
                mass = reduce(add, compress(self._weights, selectors), 0.0)
            self._masses[mask] = mass
        return mass

    def __repr__(self) -> str:
        return f"ProbabilityMeasure({self.weights!r})"


def random_measure(
    space: AtomSpace, rng: random.Random, exact: bool = False
) -> ProbabilityMeasure:
    """Strictly positive seeded measure; exact=True draws rational weights."""
    n = space.atom_count
    if exact:
        raw = [rng.randrange(1, 1000) for _ in range(n)]
        return ProbabilityMeasure.from_numerators(space, raw, sum(raw))
    raw = [rng.random() + 1e-3 for _ in range(n)]
    # reduce, not sum(), as in ProbabilityMeasure.__call__: the same
    # weights on every Python version
    total = reduce(add, raw, 0.0)
    weights = [w / total for w in raw]
    # nudge the last weight so that the measure of the whole space is 1.0
    weights[-1] = 1.0 - reduce(add, weights[:-1], 0.0)
    return ProbabilityMeasure(space, weights)


def cl_eval(atom_index: int, e: Event) -> int:
    """Classical two-valued evaluation at one atom."""
    if not 0 <= atom_index < e.space.atom_count:
        raise ValueError(f"atom index {atom_index} out of range")
    return 1 if atom_index in e else 0


def pl_eval(p: ProbabilityMeasure, e: Event) -> Weight:
    """Probability of an event: the sum of its atom weights."""
    return p(e)


def inclusion_exclusion(p: ProbabilityMeasure, events: Sequence[Event]) -> Weight:
    """Alternating-sign expansion of the probability of a join,
    computed term by term over all nonempty index subsets."""
    if not events:
        raise ValueError("need at least one event")
    total: Weight = Fraction(0) if p.exact else 0.0
    indices = range(len(events))
    for k in range(1, len(events) + 1):
        sign = 1 if k % 2 == 1 else -1
        for subset in combinations(indices, k):
            total += sign * p(_meet_all(events[i] for i in subset))
    return total


def cpl_eval(p: ProbabilityMeasure, a: ConditionalObject) -> Weight:
    """Conditional probability of (a|b) as p(a&b)/p(b).

    Raises UndefinedConditionalError when the antecedent has measure
    zero; that case is an evaluation gap, not invalid input.
    """
    denom = p(a.antecedent)
    if denom == 0:
        raise UndefinedConditionalError("antecedent has probability zero")
    # both Fractions (an exact measure) or both floats
    return p(a.consequent) / denom


def lewis_gap(p: ProbabilityMeasure, a: Event, b: Event):
    """Compare the material implication's probability with conditioning.

    Returns (p(b=>a), p(a|b), gap). The excess factors exactly as
    p(b') * p(a'|b), and the implication never scores below the
    conditional; both facts are asserted on every call. A b of
    probability zero raises UndefinedConditionalError, from cpl_eval.
    """
    p_imp = p(material_implies(b, a))
    p_cond = cpl_eval(p, cond(a, b))
    p_not_b = p(~b)
    p_cond_neg = cpl_eval(p, cond(~a, b))
    if not weights_close(p_imp, p_cond + p_not_b * p_cond_neg):
        raise AssertionError("implication/conditioning decomposition violated")
    if float(p_imp) < float(p_cond) - TOLERANCE:
        raise AssertionError("implication scored below the conditional")
    gap = p_imp - p_cond
    return p_imp, p_cond, gap


class IndependenceReport:
    __slots__ = ("max_violation", "measures_tested", "independent")

    def __init__(self, max_violation: float, measures_tested: int):
        self.max_violation = max_violation
        self.measures_tested = measures_tested
        self.independent = max_violation <= 1e-9

    def __repr__(self) -> str:
        verdict = "independent" if self.independent else "dependent"
        return (
            f"IndependenceReport({verdict} over {self.measures_tested} measures, "
            f"max violation {self.max_violation:.3e})"
        )


def mf_independent_sample(
    a: ConditionalObject, b: ConditionalObject, n_measures: int, seed: int
) -> IndependenceReport:
    """Sampled test of measure-free independence: p(A&B) == p(A)p(B)
    under every probability measure. Sampling over strictly positive
    seeded measures only ever certifies "independent (sampled)"."""
    rng = random.Random(seed)
    prod = a & b
    worst = 0.0
    for _ in range(n_measures):
        p = random_measure(a.space, rng)
        try:
            lhs = float(cpl_eval(p, prod))
            rhs = float(cpl_eval(p, a)) * float(cpl_eval(p, b))
        except UndefinedConditionalError:
            continue
        worst = max(worst, abs(lhs - rhs))
    return IndependenceReport(worst, n_measures)


class PossibilityAssignment:
    """Per-primitive-event membership grades in [0, 1]."""

    __slots__ = ("grades",)

    def __init__(self, grades: Mapping[tuple[str, str], float]):
        for key, g in grades.items():
            if not 0 <= g <= 1:
                raise ValueError(f"grade for {key} outside [0, 1]: {g}")
        self.grades = {k: float(v) for k, v in grades.items()}

    @classmethod
    def from_json(cls, data, domains=None) -> "PossibilityAssignment":
        """Given a knowledge base's (name, domain) pairs, every graded
        variable must be one of them and every value in its domain."""
        if not isinstance(data, dict) or "poss" not in data:
            raise ValueError('possibility file must look like {"poss": {...}}')
        grades = {}
        for var, vals in _value_maps(data["poss"], "poss", domains).items():
            for val, g in vals.items():
                if isinstance(g, bool) or not isinstance(g, (int, float)):
                    raise ValueError(f"grade for {var}[{val}] is not a number: {g!r}")
                grades[(var, val)] = g
        return cls(grades)

    def grade(self, var: str, value: str) -> float:
        try:
            return self.grades[(var, value)]
        except KeyError:
            raise FormulaError(f"no possibility grade for {var}[{value}]") from None


def _value_maps(section, name: str, domains=None) -> dict:
    """Check the {var: {value: number}} shape of a file section and,
    given a knowledge base's (name, domain) pairs, that every variable
    is declared and every value lies in its domain."""
    if not isinstance(section, dict):
        raise ValueError(f'"{name}" must be an object of variables')
    declared = None if domains is None else {var: set(domain) for var, domain in domains}
    for var, vals in section.items():
        if not isinstance(vals, dict):
            raise ValueError(f'"{name}" entry for {var} must be an object of values,'
                             f" got {vals!r}")
        if declared is None:
            continue
        if var not in declared:
            raise ValueError(f'"{name}" names undeclared variable {var!r}')
        for val in vals:
            if val not in declared[var]:
                raise ValueError(f'"{name}" entry for {var} names {val!r}, not in its domain')
    return section


def fl_eval(poss: PossibilityAssignment, f: Formula | tuple[Formula, ...]) -> float | tuple:
    """Possibilistic evaluation: MIN for and, MAX for or, 1-x for not,
    MAX(1-antecedent, consequent) for implies. Leaves must carry
    explicit values; a multi-valued leaf reads as their disjunction.

    f may be a tuple of formulas, graded in one `fold` pass into the
    tuple of their grades: a node they share is graded once."""
    def leaf(var: str, vals) -> float:
        if vals is None:
            raise FormulaError(f"unbound leaf {var} in fuzzy evaluation")
        return max(poss.grade(var, v) for v in vals)

    return fold(f, leaf, lambda x: 1.0 - x, min, max, lambda a, c: max(1.0 - a, c))


def measure_from_json(
    space: AtomSpace,
    data,
    domains: Sequence[tuple[str, Sequence[str]]] | None = None,
) -> ProbabilityMeasure:
    """Build a measure from its file form.

    The file holds exactly one of two sections. {"atoms": {label:
    weight}} assigns weights by atom label (absent labels get zero);
    {"factors": {var: {value: weight}}} builds the product measure over
    a variable-grounded space and requires that grounding's (name,
    domain) pairs in declaration order. Its weights are the Kronecker
    product of the factors, each atom's product taken left to right in
    declaration order from 1, one strided slice per factor value and
    level. Each factor weight's sign is checked once,
    after the factor sums and the cover, so a float or mixed product is
    held with no per-atom scan and only its sum is tested
    (`ProbabilityMeasure._of_products`). When every factor weight
    is exact, each factor first becomes integer numerators over its own
    common denominator, and the measure is their Kronecker product over
    the product of those denominators: the same rationals, with no
    Fraction per atom.
    """
    if not isinstance(data, dict):
        raise ValueError("measure file must be a JSON object")
    if "atoms" in data and "factors" in data:
        raise ValueError('measure file has both an "atoms" and a "factors" section;'
                         ' it needs exactly one')
    if "atoms" in data:
        mapping = data["atoms"]
        if not isinstance(mapping, dict):
            raise ValueError('"atoms" must be an object of atom labels')
        weights: list[Weight] = []
        unknown = set(mapping) - set(space.atom_labels)
        if unknown:
            raise ValueError(f"unknown atom labels: {sorted(unknown)}")
        for label in space.atom_labels:
            weights.append(parse_weight(mapping.get(label, 0)))
        return ProbabilityMeasure(space, weights)
    if "factors" in data:
        if domains is None:
            raise ValueError("factor measures need a variable-grounded space")
        factors = {
            var: {val: parse_weight(w) for val, w in vals.items()}
            for var, vals in _value_maps(data["factors"], "factors", domains).items()
        }
        for var, vals in factors.items():
            factor = list(vals.values())
            total = _weight_total(factor, signed=True)
            if not weights_close(total, Fraction(1)):
                raise ValueError(f"factor for {var} sums to {total}")
        _check_factors_cover(factors, domains)
        if any(w < 0 for vals in factors.values() for w in vals.values()):
            raise ValueError("weights must be nonnegative")
        columns = [[factors[var][val] for val in domain] for var, domain in domains]
        exact = all(isinstance(w, Fraction) for column in columns for w in column)
        weights, denominator = [1], 1
        for column in columns:
            if exact:
                d = math.lcm(*(w.denominator for w in column))
                column = [w.numerator * (d // w.denominator) for w in column]
                denominator *= d
            # atom i * len(column) + j takes weights[i] * column[j]
            products = [None] * (len(weights) * len(column))
            for j, c in enumerate(column):
                products[j::len(column)] = [w * c for w in weights]
            weights = products
        if exact:
            return ProbabilityMeasure.from_numerators(space, weights, denominator)
        return ProbabilityMeasure._of_products(space, weights)
    raise ValueError('measure file needs an "atoms" or "factors" section')


def _check_factors_cover(factors: Mapping[str, Mapping[str, Weight]], domains) -> None:
    """Every declared value needs a factor weight. Of several gaps, the
    one reported lies in the lowest-numbered atom that has one: a gap at
    some variable's first value lies in atom 0, else the last variable
    with a gap holds the smallest such atom."""
    firsts = [(var, domain[0]) for var, domain in domains]
    rest = [(var, val) for var, domain in reversed(domains) for val in domain]
    for var, val in firsts + rest:
        if var not in factors:
            raise ValueError(f"measure file missing factor for {var}")
        if val not in factors[var]:
            raise ValueError(f"factor for {var} missing value {val!r}")
