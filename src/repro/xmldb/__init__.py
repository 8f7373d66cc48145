"""An in-memory, collection-oriented XML database — the Xindice substitute.

The paper's prototype runs on Apache Xindice: documents live in named
collections and are queried with XPath.  This package reproduces that
substrate in Python: an ordered labelled tree model with preorder/postorder
numbering (:mod:`model`), an XML reader/writer (:mod:`parser`,
:mod:`serializer`), named collections with Xindice's per-document size cap
(:mod:`collection`), an XPath-subset engine (:mod:`xpath`), and the
:class:`Database` facade tying them together.
"""

from .collection import Collection
from .database import Database
from .model import XmlNode, ancestor_of, document_order
from .parser import parse_document, parse_fragment
from .serializer import serialize
from .xpath import XPathQuery, evaluate_xpath

__all__ = [
    "Collection",
    "Database",
    "XPathQuery",
    "XmlNode",
    "ancestor_of",
    "document_order",
    "evaluate_xpath",
    "parse_document",
    "parse_fragment",
    "serialize",
]
