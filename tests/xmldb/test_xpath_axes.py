"""Explicit axes are outside the XPath the pattern compiler writes."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xmldb.xpath import XPathQuery


class TestNamedAxes:
    def test_unknown_axis_rejected(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("//book/sideways::title")

    def test_bare_colon_rejected(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("//ns:book")
