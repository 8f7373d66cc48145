"""The TOSS algebra (Section 5.1.2).

Each operator is the TAX operator evaluated under an SEO-aware condition
context, exactly as the paper defines them: "[sigma] returns the set of
witness trees WT such that [Exp']_F, WT |= F" where satisfaction is the
extended relation of Section 5.1.1.  Proposition 1 — every algebraic
expression again denotes an SEO instance — holds by construction: results
are tree collections viewed under the same shared SEO.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from ..tax import algebra as tax_algebra
from ..tax.pattern import PatternTree
from ..xmldb.model import XmlNode
from .conditions import SeoConditionContext
from .instance import SemistructuredInstance, SeoInstance

CollectionLike = Union[SemistructuredInstance, Sequence[XmlNode]]


def _trees(collection: CollectionLike) -> Sequence[XmlNode]:
    if isinstance(collection, SemistructuredInstance):
        return collection.trees
    return collection


class TossAlgebra:
    """The algebra's operators, bound to one SEO condition context.

    >>> algebra = TossAlgebra(context)          # doctest: +SKIP
    >>> results = algebra.selection(dblp, pattern, sl_labels=[1])
    """

    def __init__(self, context: SeoConditionContext) -> None:
        self.context = context

    # -- unary operators -------------------------------------------------------

    def selection(
        self,
        collection: CollectionLike,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
    ) -> List[XmlNode]:
        """``sigma_{P, SL}(Exp)`` with SEO satisfaction of F."""
        return tax_algebra.selection(_trees(collection), pattern, sl_labels, self.context)

    def projection(
        self,
        collection: CollectionLike,
        pattern: PatternTree,
        pl: Sequence[tax_algebra.ProjectionEntry],
    ) -> List[XmlNode]:
        """``pi_{P, PL}(Exp)`` with SEO satisfaction of F."""
        return tax_algebra.projection(_trees(collection), pattern, pl, self.context)

    # -- binary operators ----------------------------------------------------------

    def product(self, left: CollectionLike, right: CollectionLike) -> List[XmlNode]:
        """``Exp1 x Exp2`` (structure only; no conditions involved)."""
        return tax_algebra.product(_trees(left), _trees(right))

    def join(
        self,
        left: CollectionLike,
        right: CollectionLike,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
    ) -> List[XmlNode]:
        """Condition join: product followed by SEO selection (Example 13)."""
        return tax_algebra.join(_trees(left), _trees(right), pattern, sl_labels, self.context)

    def union(self, left: CollectionLike, right: CollectionLike) -> List[XmlNode]:
        return tax_algebra.union(_trees(left), _trees(right))

    def intersection(self, left: CollectionLike, right: CollectionLike) -> List[XmlNode]:
        return tax_algebra.intersection(_trees(left), _trees(right))

    def difference(self, left: CollectionLike, right: CollectionLike) -> List[XmlNode]:
        return tax_algebra.difference(_trees(left), _trees(right))

    # -- grouping (the rest of TAX, inherited unchanged) -----------------------

    def grouping(
        self,
        collection: CollectionLike,
        pattern: PatternTree,
        grouping_basis,
        sl_labels: Iterable[int] = (),
    ) -> List[XmlNode]:
        """TAX grouping under SEO satisfaction of the pattern condition."""
        from ..tax.grouping import grouping as tax_grouping

        return tax_grouping(
            _trees(collection), pattern, grouping_basis, sl_labels, self.context
        )

    # -- instance lifting --------------------------------------------------------------

    def lift(self, instance: SemistructuredInstance) -> SeoInstance:
        """The base case ``[EI]_F``: view an instance under the SEO."""
        return SeoInstance.lift(instance, self.context.seo)
