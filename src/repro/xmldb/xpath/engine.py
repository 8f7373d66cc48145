"""Evaluator for the XPath subset.

Follows the XPath 1.0 data model: an expression yields a node-set, a
string, a number or a boolean.  Node-sets are kept in document order and
may contain element nodes (:class:`~repro.xmldb.model.XmlNode`) plus the
synthetic :class:`AttributeNode` / :class:`TextNode` wrappers produced by
``@name`` and ``text()`` steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...errors import XPathEvaluationError
from ...guard import ResourceGuard
from ..model import XmlNode
from . import ast
from .parser import parse_xpath


@dataclass(frozen=True, slots=True)
class AttributeNode:
    """A selected attribute: owner element, attribute name and value."""

    owner: XmlNode
    name: str
    value: str

    def string_value(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class TextNode:
    """The character data of an element, selected by ``text()``."""

    owner: XmlNode

    def string_value(self) -> str:
        return self.owner.text


ResultNode = Union[XmlNode, AttributeNode, TextNode]
Value = Union[List[ResultNode], str, float, bool]


class _DocumentPoint:
    """The invisible document node above a root element ('/')."""

    __slots__ = ("root",)

    def __init__(self, root: XmlNode) -> None:
        self.root = root


ContextNode = Union[XmlNode, AttributeNode, TextNode, _DocumentPoint]


def string_value(node: ResultNode) -> str:
    """XPath string-value of any result node."""
    if isinstance(node, XmlNode):
        return node.string_value()
    return node.string_value()


def _order_key(node: ResultNode) -> Tuple[int, int, int]:
    if isinstance(node, XmlNode):
        return (id(node.root()), node.pre, 0)
    owner = node.owner
    return (id(owner.root()), owner.pre, 1)


def _sorted_nodeset(nodes: Sequence[ResultNode]) -> List[ResultNode]:
    unique: Dict[int, ResultNode] = {}
    for node in nodes:
        unique.setdefault(id(node), node)
    return sorted(unique.values(), key=_order_key)


# -- type conversions (XPath 1.0 core) ---------------------------------------


def to_boolean(value: Value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0 and not math.isnan(value)
    if isinstance(value, str):
        return len(value) > 0
    return len(value) > 0  # node-set


def to_string(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if value == int(value):
            return str(int(value))
        return repr(value)
    if isinstance(value, str):
        return value
    if not value:
        return ""
    return string_value(value[0])


def to_number(value: Value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    text = to_string(value).strip()
    try:
        return float(text)
    except ValueError:
        return float("nan")


# -- comparison semantics -------------------------------------------------------


def _compare(op: str, left: Value, right: Value) -> bool:
    left_is_set = isinstance(left, list)
    right_is_set = isinstance(right, list)
    if left_is_set and right_is_set:
        left_values = [string_value(node) for node in left]
        right_values = [string_value(node) for node in right]
        return any(
            _compare_atomic(op, lv, rv) for lv in left_values for rv in right_values
        )
    if left_is_set:
        return any(_compare_atomic(op, string_value(node), right) for node in left)
    if right_is_set:
        return any(_compare_atomic(op, left, string_value(node)) for node in right)
    return _compare_atomic(op, left, right)


def _compare_atomic(op: str, left: Union[str, float, bool], right: Union[str, float, bool]) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result
    left_num = to_number(left)
    right_num = to_number(right)
    if math.isnan(left_num) or math.isnan(right_num):
        return False
    if op == "<":
        return left_num < right_num
    if op == "<=":
        return left_num <= right_num
    if op == ">":
        return left_num > right_num
    if op == ">=":
        return left_num >= right_num
    raise XPathEvaluationError(f"unknown comparison operator {op!r}")


# -- the evaluator ---------------------------------------------------------------


@dataclass(slots=True)
class _Context:
    node: ContextNode
    position: int
    size: int


class _Evaluator:
    def __init__(self) -> None:
        #: Optional per-evaluation resource guard; set by XPathQuery before
        #: each evaluation (evaluation is single-threaded and non-reentrant).
        self._guard: Optional[ResourceGuard] = None
        self._functions: Dict[str, Callable[[_Context, List[Value]], Value]] = {
            "position": self._fn_position,
            "last": self._fn_last,
            "count": self._fn_count,
            "not": self._fn_not,
            "true": lambda ctx, args: True,
            "false": lambda ctx, args: False,
            "contains": self._fn_contains,
            "starts-with": self._fn_starts_with,
            "string": self._fn_string,
            "number": self._fn_number,
            "boolean": self._fn_boolean,
            "string-length": self._fn_string_length,
            "normalize-space": self._fn_normalize_space,
            "concat": self._fn_concat,
            "name": self._fn_name,
            "substring": self._fn_substring,
            "substring-before": self._fn_substring_before,
            "substring-after": self._fn_substring_after,
            "translate": self._fn_translate,
            "sum": self._fn_sum,
            "floor": lambda ctx, args: math.floor(to_number(args[0])),
            "ceiling": lambda ctx, args: math.ceil(to_number(args[0])),
            "round": self._fn_round,
        }

    # -- entry ---------------------------------------------------------------

    def evaluate(self, expression: ast.Expr, context: _Context) -> Value:
        if self._guard is not None:
            self._guard.tick(what="xpath evaluation")
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Number):
            return expression.value
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression, context)
        if isinstance(expression, ast.UnaryMinus):
            return -to_number(self.evaluate(expression.operand, context))
        if isinstance(expression, ast.FunctionCall):
            return self._call(expression, context)
        if isinstance(expression, ast.LocationPath):
            return self._location_path(expression, context)
        if isinstance(expression, ast.Union_):
            combined: List[ResultNode] = []
            for path in expression.paths:
                value = self.evaluate(path, context)
                if not isinstance(value, list):
                    raise XPathEvaluationError("union operands must be node-sets")
                combined.extend(value)
            return _sorted_nodeset(combined)
        raise XPathEvaluationError(
            f"unsupported expression type {type(expression).__name__}"
        )  # pragma: no cover

    # -- operators -----------------------------------------------------------

    def _binary(self, expression: ast.BinaryOp, context: _Context) -> Value:
        op = expression.op
        if op == "or":
            return to_boolean(self.evaluate(expression.left, context)) or to_boolean(
                self.evaluate(expression.right, context)
            )
        if op == "and":
            return to_boolean(self.evaluate(expression.left, context)) and to_boolean(
                self.evaluate(expression.right, context)
            )
        left = self.evaluate(expression.left, context)
        right = self.evaluate(expression.right, context)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        left_num = to_number(left)
        right_num = to_number(right)
        if op == "+":
            return left_num + right_num
        if op == "-":
            return left_num - right_num
        if op == "*":
            return left_num * right_num
        if op == "div":
            if right_num == 0:
                return math.inf if left_num > 0 else (-math.inf if left_num < 0 else math.nan)
            return left_num / right_num
        if op == "mod":
            if right_num == 0:
                return math.nan
            return math.fmod(left_num, right_num)
        raise XPathEvaluationError(f"unknown operator {op!r}")

    # -- functions ---------------------------------------------------------------

    def _call(self, expression: ast.FunctionCall, context: _Context) -> Value:
        handler = self._functions.get(expression.name)
        if handler is None:
            raise XPathEvaluationError(f"unknown function {expression.name}()")
        args = [self.evaluate(arg, context) for arg in expression.args]
        return handler(context, args)

    @staticmethod
    def _fn_position(context: _Context, args: List[Value]) -> Value:
        return float(context.position)

    @staticmethod
    def _fn_last(context: _Context, args: List[Value]) -> Value:
        return float(context.size)

    @staticmethod
    def _fn_count(context: _Context, args: List[Value]) -> Value:
        if len(args) != 1 or not isinstance(args[0], list):
            raise XPathEvaluationError("count() takes exactly one node-set")
        return float(len(args[0]))

    @staticmethod
    def _fn_not(context: _Context, args: List[Value]) -> Value:
        if len(args) != 1:
            raise XPathEvaluationError("not() takes exactly one argument")
        return not to_boolean(args[0])

    @staticmethod
    def _fn_contains(context: _Context, args: List[Value]) -> Value:
        if len(args) != 2:
            raise XPathEvaluationError("contains() takes exactly two arguments")
        return to_string(args[1]) in to_string(args[0])

    @staticmethod
    def _fn_starts_with(context: _Context, args: List[Value]) -> Value:
        if len(args) != 2:
            raise XPathEvaluationError("starts-with() takes exactly two arguments")
        return to_string(args[0]).startswith(to_string(args[1]))

    def _fn_string(self, context: _Context, args: List[Value]) -> Value:
        if not args:
            return to_string(self._context_nodeset(context))
        return to_string(args[0])

    def _fn_number(self, context: _Context, args: List[Value]) -> Value:
        if not args:
            return to_number(self._context_nodeset(context))
        return to_number(args[0])

    @staticmethod
    def _fn_boolean(context: _Context, args: List[Value]) -> Value:
        if len(args) != 1:
            raise XPathEvaluationError("boolean() takes exactly one argument")
        return to_boolean(args[0])

    def _fn_string_length(self, context: _Context, args: List[Value]) -> Value:
        text = to_string(args[0]) if args else to_string(self._context_nodeset(context))
        return float(len(text))

    def _fn_normalize_space(self, context: _Context, args: List[Value]) -> Value:
        text = to_string(args[0]) if args else to_string(self._context_nodeset(context))
        return " ".join(text.split())

    @staticmethod
    def _fn_concat(context: _Context, args: List[Value]) -> Value:
        if len(args) < 2:
            raise XPathEvaluationError("concat() takes at least two arguments")
        return "".join(to_string(arg) for arg in args)

    @staticmethod
    def _fn_name(context: _Context, args: List[Value]) -> Value:
        target: Optional[ResultNode] = None
        if args:
            nodeset = args[0]
            if not isinstance(nodeset, list):
                raise XPathEvaluationError("name() argument must be a node-set")
            target = nodeset[0] if nodeset else None
        elif isinstance(context.node, XmlNode):
            target = context.node
        if target is None:
            return ""
        if isinstance(target, XmlNode):
            return target.tag
        if isinstance(target, AttributeNode):
            return target.name
        return ""

    @staticmethod
    def _fn_substring(context: _Context, args: List[Value]) -> Value:
        """XPath 1.0 substring: 1-based start, rounded, NaN-aware."""
        if len(args) not in (2, 3):
            raise XPathEvaluationError("substring() takes two or three arguments")
        text = to_string(args[0])
        start = to_number(args[1])
        if math.isnan(start):
            return ""
        start = round(start)
        if len(args) == 3:
            length = to_number(args[2])
            if math.isnan(length):
                return ""
            end = start + round(length)
        else:
            end = math.inf
        # Positions are 1-based; clamp into Python slicing.
        begin = max(start, 1)
        finish = len(text) + 1 if end == math.inf else max(end, begin)
        return text[int(begin) - 1 : int(min(finish, len(text) + 1)) - 1]

    @staticmethod
    def _fn_substring_before(context: _Context, args: List[Value]) -> Value:
        if len(args) != 2:
            raise XPathEvaluationError("substring-before() takes two arguments")
        text, marker = to_string(args[0]), to_string(args[1])
        index = text.find(marker)
        return text[:index] if index >= 0 else ""

    @staticmethod
    def _fn_substring_after(context: _Context, args: List[Value]) -> Value:
        if len(args) != 2:
            raise XPathEvaluationError("substring-after() takes two arguments")
        text, marker = to_string(args[0]), to_string(args[1])
        index = text.find(marker)
        return text[index + len(marker) :] if index >= 0 else ""

    @staticmethod
    def _fn_translate(context: _Context, args: List[Value]) -> Value:
        if len(args) != 3:
            raise XPathEvaluationError("translate() takes three arguments")
        text = to_string(args[0])
        source = to_string(args[1])
        target = to_string(args[2])
        table = {}
        for index, char in enumerate(source):
            if char in table:
                continue  # first occurrence wins, per the spec
            table[char] = target[index] if index < len(target) else None
        out = []
        for char in text:
            if char in table:
                replacement = table[char]
                if replacement is not None:
                    out.append(replacement)
            else:
                out.append(char)
        return "".join(out)

    @staticmethod
    def _fn_sum(context: _Context, args: List[Value]) -> Value:
        if len(args) != 1 or not isinstance(args[0], list):
            raise XPathEvaluationError("sum() takes exactly one node-set")
        return float(sum(to_number(string_value(node)) for node in args[0]))

    @staticmethod
    def _fn_round(context: _Context, args: List[Value]) -> Value:
        if len(args) != 1:
            raise XPathEvaluationError("round() takes exactly one argument")
        value = to_number(args[0])
        if math.isnan(value) or math.isinf(value):
            return value
        return float(math.floor(value + 0.5))  # XPath rounds .5 towards +inf

    def _context_nodeset(self, context: _Context) -> List[ResultNode]:
        node = context.node
        if isinstance(node, _DocumentPoint):
            return [node.root]
        return [node]

    # -- location paths -------------------------------------------------------------

    def _location_path(self, path: ast.LocationPath, context: _Context) -> Value:
        if path.absolute:
            root = self._document_of(context.node)
            current: List[ContextNode] = [root]
        else:
            current = [context.node]
        if path.absolute and not path.steps:
            return [root.root]

        for step, deep in zip(path.steps, path.descendant_joins):
            next_nodes: List[ResultNode] = []
            if deep:
                expanded: List[ContextNode] = []
                for node in current:
                    expanded.extend(self._descendant_or_self(node))
                sources: List[ContextNode] = expanded
            else:
                sources = current
            for source in sources:
                next_nodes.extend(self._apply_step(step, source))
            current = _sorted_nodeset(next_nodes)  # type: ignore[assignment]
        return [node for node in current if not isinstance(node, _DocumentPoint)]

    @staticmethod
    def _document_of(node: ContextNode) -> _DocumentPoint:
        if isinstance(node, _DocumentPoint):
            return node
        owner = node if isinstance(node, XmlNode) else node.owner
        return _DocumentPoint(owner.root())

    @staticmethod
    def _descendant_or_self(node: ContextNode) -> List[ContextNode]:
        if isinstance(node, _DocumentPoint):
            return [node] + list(node.root.iter())
        if isinstance(node, XmlNode):
            return list(node.iter())
        return [node]

    def _apply_step(self, step: ast.Step, source: ContextNode) -> List[ResultNode]:
        candidates = self._axis_candidates(step.axis, step.test, source)
        if self._guard is not None:
            # Predicate-free steps never re-enter evaluate(), so account
            # for the axis traversal here (one step per candidate node).
            self._guard.tick(1 + len(candidates), what="xpath evaluation")
        for predicate in step.predicates:
            filtered: List[ResultNode] = []
            size = len(candidates)
            for position, candidate in enumerate(candidates, start=1):
                value = self.evaluate(
                    predicate, _Context(candidate, position, size)
                )
                if isinstance(value, float):
                    keep = position == int(value)
                else:
                    keep = to_boolean(value)
                if keep:
                    filtered.append(candidate)
            candidates = filtered
        return candidates

    def _axis_candidates(
        self, axis: str, test: ast.NodeTest, source: ContextNode
    ) -> List[ResultNode]:
        if axis == ast.ATTRIBUTE:
            if not isinstance(source, XmlNode):
                return []
            if isinstance(test, ast.NameTest):
                if test.name == "*":
                    return [
                        AttributeNode(source, name, value)
                        for name, value in source.attributes.items()
                    ]
                value = source.attributes.get(test.name)
                if value is None:
                    return []
                return [AttributeNode(source, test.name, value)]
            return []
        if axis == ast.SELF:
            if isinstance(source, _DocumentPoint):
                return []
            return [source] if self._matches(test, source) else []
        if axis == ast.PARENT:
            if isinstance(source, XmlNode) and source.parent is not None:
                return [source.parent]
            if isinstance(source, (AttributeNode, TextNode)):
                return [source.owner]
            return []
        if axis == ast.CHILD:
            if isinstance(test, ast.TextTest):
                # Our model stores character data on the element itself, so
                # the text children of `source` are its own text.
                if isinstance(source, XmlNode) and source.text:
                    return [TextNode(source)]
                return []
            return [
                child
                for child in self._children_of(source)
                if self._matches(test, child)
            ]
        if axis in (ast.DESCENDANT, ast.DESCENDANT_OR_SELF):
            pool: List[ResultNode] = []
            if isinstance(source, _DocumentPoint):
                pool = list(source.root.iter())
            elif isinstance(source, XmlNode):
                pool = (
                    list(source.iter())
                    if axis == ast.DESCENDANT_OR_SELF
                    else list(source.descendants())
                )
            if isinstance(test, ast.TextTest):
                return [TextNode(node) for node in pool if node.text]
            return [node for node in pool if self._matches(test, node)]
        if axis in (ast.ANCESTOR, ast.ANCESTOR_OR_SELF):
            # Reverse axis: proximity order (nearest first) for position().
            chain: List[XmlNode] = []
            if isinstance(source, XmlNode):
                if axis == ast.ANCESTOR_OR_SELF:
                    chain.append(source)
                chain.extend(source.ancestors())
            elif isinstance(source, (AttributeNode, TextNode)):
                chain.append(source.owner)
                chain.extend(source.owner.ancestors())
            return [node for node in chain if self._matches(test, node)]
        if axis in (ast.FOLLOWING_SIBLING, ast.PRECEDING_SIBLING):
            if not isinstance(source, XmlNode) or source.parent is None:
                return []
            siblings = source.parent.children
            index = siblings.index(source)
            if axis == ast.FOLLOWING_SIBLING:
                pool = siblings[index + 1 :]
            else:
                # Reverse axis: nearest sibling first.
                pool = list(reversed(siblings[:index]))
            return [node for node in pool if self._matches(test, node)]
        raise XPathEvaluationError(f"unsupported axis {axis!r}")  # pragma: no cover

    @staticmethod
    def _children_of(source: ContextNode) -> List[XmlNode]:
        if isinstance(source, _DocumentPoint):
            return [source.root]
        if isinstance(source, XmlNode):
            return source.children
        return []

    @staticmethod
    def _matches(test: ast.NodeTest, node: ResultNode) -> bool:
        if isinstance(test, ast.AnyNodeTest):
            return True
        if isinstance(test, ast.TextTest):
            return isinstance(node, TextNode)
        if not isinstance(node, XmlNode):
            return False
        return test.name == "*" or test.name == node.tag


#: Tri-state marker for XPathQuery's lazily compiled columnar scan.
_COLUMNAR_UNTRIED = object()


class XPathQuery:
    """A parsed XPath expression, reusable across documents.

    >>> query = XPathQuery("//inproceedings[year='1999']/title")
    >>> titles = query.select(document_root)  # doctest: +SKIP
    """

    def __init__(self, query: str) -> None:
        self.source = query
        self.expression = parse_xpath(query)
        self._evaluator = _Evaluator()
        self._columnar_rows: object = _COLUMNAR_UNTRIED

    def columnar_rows(self):
        """A compiled columnar scan returning matching *rows*, or None.

        Compiles at most once (the result, including "unsupported", is
        cached on the query).  The compiled function maps a
        :class:`~repro.xmldb.columnar.DocumentColumns` to the row indexes
        of the very nodes :meth:`select` would return, without walking
        the AST per node — see :mod:`repro.xmldb.columnar` for the
        supported subset.  The executor's batched verification path
        consumes ``(columns, row)`` pairs directly and never materialises
        the intermediate node list.  Callers must fall back to
        :meth:`select` when this returns None; the scan does not tick a
        resource guard — a guarded caller charges it per document and
        row itself, as :class:`~repro.xmldb.collection.Collection` does.
        """
        if self._columnar_rows is _COLUMNAR_UNTRIED:
            from ..columnar import compile_columnar_rows  # deferred: avoids a cycle

            self._columnar_rows = compile_columnar_rows(self.expression)
        return self._columnar_rows

    def evaluate(
        self, root: XmlNode, guard: Optional[ResourceGuard] = None
    ) -> Value:
        """Evaluate against a document root; returns any XPath value.

        With ``guard``, every evaluation step ticks the guard, so a
        pathological query is interrupted mid-flight by
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.ResourceExhaustedError`.
        """
        context = _Context(_DocumentPoint(root), 1, 1)
        self._evaluator._guard = guard
        try:
            return self._evaluator.evaluate(self.expression, context)
        finally:
            self._evaluator._guard = None

    def select(
        self, root: XmlNode, guard: Optional[ResourceGuard] = None
    ) -> List[ResultNode]:
        """Evaluate and require a node-set result."""
        value = self.evaluate(root, guard=guard)
        if not isinstance(value, list):
            raise XPathEvaluationError(
                f"query {self.source!r} returned {type(value).__name__}, "
                f"expected a node-set"
            )
        return value

    def select_elements(self, root: XmlNode) -> List[XmlNode]:
        """Like :meth:`select` but keeps only element nodes."""
        return [node for node in self.select(root) if isinstance(node, XmlNode)]

    def __repr__(self) -> str:
        return f"XPathQuery({self.source!r})"


def evaluate_xpath(root: XmlNode, query: str) -> Value:
    """One-shot convenience: parse and evaluate ``query`` on ``root``."""
    return XPathQuery(query).evaluate(root)
