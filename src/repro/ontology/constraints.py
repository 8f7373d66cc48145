"""Interoperation constraints between hierarchies (Definition 4).

When a semistructured database spans several instances, the database
administrator relates terms of the different per-instance hierarchies with
constraints of the forms ``x:i <= y:j``, ``x:i = y:j`` and ``x:i != y:j``
(Example 9: ``booktitle:1 = conference:2``).  Equality constraints are, as
the paper notes, syntactic sugar for a pair of subsumption constraints; the
fusion machinery normalises them that way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, Mapping, Tuple

from ..errors import ConstraintError
from .hierarchy import Hierarchy


@dataclass(frozen=True, order=True)
class ScopedTerm:
    """A term qualified by the hierarchy it comes from — the paper's ``x:i``."""

    term: Hashable
    source: Hashable

    def __str__(self) -> str:
        return f"{self.term}:{self.source}"


class InteroperationConstraint:
    """Base class for the three constraint forms of Definition 4."""

    __slots__ = ("left", "right")

    def __init__(self, left: ScopedTerm, right: ScopedTerm) -> None:
        if left.source == right.source:
            raise ConstraintError(
                f"interoperation constraints relate *different* hierarchies; "
                f"both {left} and {right} come from source {left.source!r}"
            )
        self.left = left
        self.right = right

    def validate(self, hierarchies: Mapping[Hashable, Hierarchy]) -> None:
        """Check both scoped terms exist in their hierarchies."""
        for scoped in (self.left, self.right):
            if scoped.source not in hierarchies:
                raise ConstraintError(f"constraint references unknown source {scoped.source!r}")
            if scoped.term not in hierarchies[scoped.source]:
                raise ConstraintError(
                    f"constraint references term {scoped.term!r} missing from "
                    f"hierarchy {scoped.source!r}"
                )

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right))


class SubsumptionConstraint(InteroperationConstraint):
    """``x:i <= y:j`` — the left term is below the right in the fusion."""

    def __repr__(self) -> str:
        return f"{self.left} <= {self.right}"


class EqualityConstraint(InteroperationConstraint):
    """``x:i = y:j`` — the two terms denote the same concept.

    Decomposes into two :class:`SubsumptionConstraint` instances, as the
    note under Definition 4 prescribes.
    """

    def decompose(self) -> Tuple[SubsumptionConstraint, SubsumptionConstraint]:
        return (
            SubsumptionConstraint(self.left, self.right),
            SubsumptionConstraint(self.right, self.left),
        )

    def __repr__(self) -> str:
        return f"{self.left} = {self.right}"


class InequalityConstraint(InteroperationConstraint):
    """``x:i != y:j`` — the two terms must *not* be fused together."""

    def __repr__(self) -> str:
        return f"{self.left} != {self.right}"


_CONSTRAINT_RE = re.compile(
    r"""^\s*
        (?P<lterm>[^:<>=!]+?)\s*:\s*(?P<lsrc>\w+)\s*
        (?P<op><=|!=|=)\s*
        (?P<rterm>[^:<>=!]+?)\s*:\s*(?P<rsrc>\w+)\s*$""",
    re.VERBOSE,
)

_OP_CLASSES = {
    "<=": SubsumptionConstraint,
    "=": EqualityConstraint,
    "!=": InequalityConstraint,
}


def parse_constraint(text: str) -> InteroperationConstraint:
    """Parse the paper's textual constraint notation.

    >>> parse_constraint("booktitle:1 = conference:2")
    booktitle:1 = conference:2

    Source identifiers that look like integers are converted to ``int`` so
    they compare equal to integer source ids.
    """
    match = _CONSTRAINT_RE.match(text)
    if match is None:
        raise ConstraintError(
            f"cannot parse constraint {text!r}; expected 'term:src (<=|=|!=) term:src'"
        )

    def source(raw: str) -> Hashable:
        return int(raw) if raw.isdigit() else raw

    left = ScopedTerm(match.group("lterm").strip(), source(match.group("lsrc")))
    right = ScopedTerm(match.group("rterm").strip(), source(match.group("rsrc")))
    return _OP_CLASSES[match.group("op")](left, right)
