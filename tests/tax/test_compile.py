"""Every condition the system defines compiles; anything else is refused.

Production verification runs only compiled evaluators
(:mod:`repro.tax.compile`); the interpreter behind ``Condition.evaluate``
is left to the reference executor.  So every concrete condition and term
class under ``repro`` must compile, and a class nobody registered must
fail loudly — by name, when the plan is built — rather than run
somewhere slower.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.core.conditions import SimilarTo
from repro.core.executor import QueryExecutor
from repro.errors import ConditionError
from repro.guard import ResourceGuard
from repro.tax.compile import compile_condition, compile_term
from repro.tax.conditions import (
    DEFAULT_CONTEXT,
    And,
    Comparison,
    Condition,
    ConditionContext,
    Constant,
    NodeContent,
    NodeTag,
    Term,
    TrueCondition,
)
from repro.tax.pattern import PatternTree
from repro.xmldb.database import Database


def _repro_classes(base):
    """Concrete public subclasses of ``base`` defined under ``repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            stack.append(sub)
            if (
                sub.__module__.startswith("repro.")
                and not sub.__name__.startswith("_")
                and not inspect.isabstract(sub)
            ):
                found.append(sub)
    return sorted(set(found), key=lambda cls: cls.__qualname__)


def _instance(cls):
    """An instance of a condition class, built from its constructor's
    parameter names (every condition takes operators, terms or operands)."""
    args = []
    for parameter in inspect.signature(cls).parameters.values():
        if parameter.kind is parameter.VAR_POSITIONAL:
            args += [TrueCondition(), TrueCondition()]
        elif parameter.name == "op":
            args.append("=")
        elif parameter.name == "left":
            args.append(NodeContent(1))
        elif parameter.name == "right":
            args.append(Constant("x"))
        elif parameter.name == "operand":
            args.append(TrueCondition())
        else:
            raise AssertionError(f"{cls.__name__}: unknown parameter {parameter.name}")
    return cls(*args)


@pytest.mark.parametrize(
    "cls", _repro_classes(Condition), ids=lambda cls: cls.__name__
)
def test_every_condition_class_compiles(cls):
    evaluator = compile_condition(_instance(cls), ConditionContext())
    assert callable(evaluator)


def test_condition_census_covers_the_toss_atoms():
    names = {cls.__name__ for cls in _repro_classes(Condition)}
    assert {
        "TypedComparison", "SimilarTo", "InstanceOf", "SubtypeOf", "Isa",
        "Below", "Above", "PartOf",
    } <= names


@pytest.mark.parametrize("cls", _repro_classes(Term), ids=lambda cls: cls.__name__)
def test_every_term_class_compiles(cls):
    term = cls("x") if cls is Constant else cls(1)
    assert callable(compile_term(term))


class Wildcard(Condition):
    """A condition class nobody registered a compiler for."""

    def evaluate(self, binding, context=DEFAULT_CONTEXT):
        return True

    def labels(self):
        return set()


class Near(SimilarTo):
    """A subclass of a registered atom: dispatch is on the exact class."""


class Echo(Term):
    """A term class the compiler does not know."""

    def resolve(self, binding):
        return "echo"


@pytest.mark.parametrize(
    "condition,name",
    [
        (And(Wildcard(), TrueCondition()), "Wildcard"),
        (Near(NodeContent(1), Constant("x")), "Near"),
        (Comparison("=", Echo(), Constant("x")), "Echo"),
    ],
    ids=["condition", "subclass", "term"],
)
def test_unregistered_class_is_refused_by_name(condition, name):
    with pytest.raises(ConditionError, match=rf"\b{name}\b"):
        compile_condition(condition, ConditionContext())


def test_executor_refuses_an_unregistered_condition_at_plan_time():
    database = Database()
    database.create_collection("c").add_document("d", "<a><b>x</b></a>")
    pattern = PatternTree(
        And(Comparison("=", NodeTag(1), Constant("a")), Wildcard())
    )
    pattern.add_node(1)
    executor = QueryExecutor(database)
    with pytest.raises(ConditionError, match="Wildcard"):
        executor.explain(pattern, join=False)
    guard = ResourceGuard()
    with pytest.raises(ConditionError, match="Wildcard"):
        executor.selection("c", pattern, [1], guard=guard)
    assert guard.stage_steps == {}  # raised before any candidate was fetched
