"""An in-memory, collection-oriented XML database — the Xindice substitute.

The paper's prototype runs on Apache Xindice: documents live in named
collections and are queried with XPath.  This package reproduces that
substrate in Python: an ordered labelled tree model with preorder/postorder
numbering (:mod:`model`), an XML reader/writer (:mod:`parser`,
:mod:`serializer`), named collections with Xindice's per-document size cap
(:mod:`collection`) and the :class:`Database` facade tying them together.
The query executor fetches candidates from the collections' columns and
runs no XPath; :mod:`xpath` runs the paper's generated XPath for the
reference executor alone, so it is not re-exported here.
"""

from .collection import Collection
from .database import Database
from .model import XmlNode, ancestor_of, document_order
from .parser import parse_document, parse_fragment
from .serializer import serialize

__all__ = [
    "Collection",
    "Database",
    "XmlNode",
    "ancestor_of",
    "document_order",
    "parse_document",
    "parse_fragment",
    "serialize",
]
