"""Conditional event algebra.

Finite Boolean algebras, coset-based conditional objects with a fully
verified compact calculus, iterated conditionals with class reduction,
four semantic evaluators (classical, possibilistic, probabilistic and
conditional-probabilistic), and a rule-combination inference engine.
"""

from .algebra import AtomSpace, Event, MismatchedSpaceError, material_implies
from .conditional import (
    ConditionalObject,
    bayes_components,
    bounds,
    chain,
    cond,
    conditionals,
    conjoin_all,
    disjoin_all,
    embed,
    sum_all,
)
from .coset import (
    SpaceTooLargeError,
    class_intersect,
    classwise,
    classwise_unary,
    expand,
    intersection_criterion,
    recognize,
    subset_criterion,
)
from .higher import (
    IteratedConditional,
    ReductionMismatchError,
    iter_cond,
    iter_equal,
    reduce_u,
)
from .semantics import (
    PossibilityAssignment,
    ProbabilityMeasure,
    UndefinedConditionalError,
    cl_eval,
    cpl_eval,
    fl_eval,
    inclusion_exclusion,
    lewis_gap,
    mf_independent_sample,
    pl_eval,
)
from .engine import (
    KnowledgeBase,
    KnowledgeBaseError,
    Observation,
    Rule,
    VariableDecl,
    build_space,
    conjoin_f,
    evaluate,
    integrate_out,
    relevant_rules,
)

__version__ = "0.1.0"
