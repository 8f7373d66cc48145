"""TOSS: an ontology- and similarity-extended XML tree algebra.

A from-scratch Python reproduction of "TOSS: An Extension of TAX with
Ontologies and Similarity Queries" (Hung, Deng, Subrahmanian, SIGMOD
2004), including every substrate the paper builds on: an in-memory XML
database (:mod:`repro.xmldb`, replacing Apache Xindice; its XPath engine
runs only the XPath the paper's rewrite generates), the TAX pattern-tree
algebra (:mod:`repro.tax`), graph-based ontologies with canonical fusion
(:mod:`repro.ontology`), string similarity measures and the SEA
enhancement algorithm (:mod:`repro.similarity`), and the TOSS core
itself (:mod:`repro.core`).

Quickstart::

    from repro import TossSystem, PatternTree
    from repro.core.conditions import SimilarTo
    from repro.tax import And, Comparison, Constant, NodeContent, NodeTag

    system = TossSystem(measure="levenshtein", epsilon=3.0)
    system.add_instance("dblp", open("dblp.xml").read())
    system.build()

    pattern = PatternTree()
    pattern.add_node(1)
    pattern.add_node(2, parent=1, edge="pc")
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("author")),
        SimilarTo(NodeContent(2), Constant("J. Ullman")),
    )
    report = system.select("dblp", pattern, sl_labels=[1])
"""

from .core.quality import QualityReport, precision_recall, quality
from .core.system import TossSystem
from .errors import ReproError
from .ontology.hierarchy import Hierarchy, Ontology
from .similarity.measures import get_measure
from .similarity.seo import SimilarityEnhancedOntology
from .tax.pattern import PatternTree
from .xmldb.database import Database

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Hierarchy",
    "Ontology",
    "PatternTree",
    "QualityReport",
    "ReproError",
    "SimilarityEnhancedOntology",
    "TossSystem",
    "get_measure",
    "precision_recall",
    "quality",
    "__version__",
]
