"""Unit tests for interoperation constraints (Definition 4)."""

import pytest

from repro.errors import ConstraintError
from repro.ontology.constraints import (
    EqualityConstraint,
    InequalityConstraint,
    ScopedTerm,
    SubsumptionConstraint,
    parse_constraint,
)
from repro.ontology.hierarchy import Hierarchy


class TestScopedTerm:
    def test_str_uses_paper_notation(self):
        assert str(ScopedTerm("booktitle", 1)) == "booktitle:1"

    def test_ordering_and_hash(self):
        a = ScopedTerm("a", 1)
        also_a = ScopedTerm("a", 1)
        assert a == also_a
        assert hash(a) == hash(also_a)
        assert ScopedTerm("a", 1) < ScopedTerm("b", 1)


class TestConstruction:
    def test_same_source_rejected(self):
        with pytest.raises(ConstraintError):
            SubsumptionConstraint(ScopedTerm("a", 1), ScopedTerm("b", 1))

    def test_equality_decomposes(self):
        eq = EqualityConstraint(ScopedTerm("a", 1), ScopedTerm("b", 2))
        first, second = eq.decompose()
        assert isinstance(first, SubsumptionConstraint)
        assert first.left == ScopedTerm("a", 1)
        assert second.left == ScopedTerm("b", 2)

    def test_constraint_equality_is_type_sensitive(self):
        left, right = ScopedTerm("a", 1), ScopedTerm("b", 2)
        assert SubsumptionConstraint(left, right) != InequalityConstraint(left, right)
        assert SubsumptionConstraint(left, right) == SubsumptionConstraint(left, right)


class TestValidation:
    def test_validate_ok(self):
        hierarchies = {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])}
        constraint = SubsumptionConstraint(ScopedTerm("a", 1), ScopedTerm("b", 2))
        constraint.validate(hierarchies)  # no raise

    def test_validate_unknown_source(self):
        constraint = SubsumptionConstraint(ScopedTerm("a", 1), ScopedTerm("b", 9))
        with pytest.raises(ConstraintError):
            constraint.validate({1: Hierarchy(nodes=["a"])})

    def test_validate_unknown_term(self):
        hierarchies = {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["x"])}
        constraint = SubsumptionConstraint(ScopedTerm("a", 1), ScopedTerm("b", 2))
        with pytest.raises(ConstraintError):
            constraint.validate(hierarchies)


class TestParsing:
    def test_parse_equality_example_9(self):
        constraint = parse_constraint("booktitle:1 = conference:2")
        assert isinstance(constraint, EqualityConstraint)
        assert constraint.left == ScopedTerm("booktitle", 1)
        assert constraint.right == ScopedTerm("conference", 2)

    def test_parse_subsumption(self):
        constraint = parse_constraint("kdd:dblp <= conference:sigmod")
        assert isinstance(constraint, SubsumptionConstraint)
        assert constraint.left.source == "dblp"

    def test_parse_inequality(self):
        constraint = parse_constraint("a:1 != b:2")
        assert isinstance(constraint, InequalityConstraint)

    def test_parse_terms_with_spaces(self):
        constraint = parse_constraint("SIGMOD Conference:1 = conference:2")
        assert constraint.left.term == "SIGMOD Conference"

    def test_numeric_sources_become_ints(self):
        constraint = parse_constraint("a:1 = b:2")
        assert constraint.left.source == 1

    def test_parse_garbage_raises(self):
        with pytest.raises(ConstraintError):
            parse_constraint("this is not a constraint")
