"""Types, domains and conversion functions (Section 5).

The ontology-extended data model associates a *type* with every object
attribute; types form a hierarchy, each type has a domain, and pairs of
types may be related by *conversion functions* subject to the paper's
closure conditions:

* for each type tau, ``tau2tau`` exists and is the identity;
* conversions compose: if ``tau1->tau2`` and ``tau2->tau3`` exist then so
  does ``tau1->tau3``, and all composition routes agree;
* if ``tau1 <= tau2`` in a hierarchy, a conversion ``tau1->tau2`` exists.

:class:`TypeSystem` enforces these: conversions are found by breadth-first
search over registered edges and composed automatically; ``validate()``
checks the hierarchy-coverage constraint and (on small systems) route
consistency.  Comparisons in the TOSS condition language use
:meth:`TypeSystem.least_common_supertype` and convert both operands there —
the "well-typed" machinery of Section 5.1.1.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConversionError, TypeSystemError
from ..ontology.hierarchy import Hierarchy

#: A conversion function maps a value of the source domain to the target's.
ConversionFunction = Callable[[object], object]

#: The universal string type every untyped attribute falls back to.
STRING = "string"


class TypeSystem:
    """A type hierarchy plus a closed set of conversion functions."""

    def __init__(self, hierarchy: Optional[Hierarchy] = None) -> None:
        base = hierarchy if hierarchy is not None else Hierarchy(nodes=[STRING])
        if STRING not in base:
            base = base.with_terms([STRING])
        self.hierarchy = base
        self._conversions: Dict[Tuple[str, str], ConversionFunction] = {}
        self._parsers: Dict[str, Callable[[str], object]] = {}
        self._members: Dict[str, Callable[[object], bool]] = {}
        for type_name in base.terms:
            self._conversions[(type_name, type_name)] = lambda value: value

    # -- registration ----------------------------------------------------------

    def add_type(
        self,
        name: str,
        supertype: Optional[str] = None,
        parser: Optional[Callable[[str], object]] = None,
        member: Optional[Callable[[object], bool]] = None,
    ) -> None:
        """Register a type, optionally below ``supertype`` in the hierarchy.

        ``parser`` turns raw strings into domain values (used before
        conversion); ``member`` is the dom(tau) membership test.
        """
        if name in self.hierarchy:
            raise TypeSystemError(f"type {name!r} already exists")
        if supertype is not None and supertype not in self.hierarchy:
            raise TypeSystemError(f"unknown supertype {supertype!r}")
        edges = list(self.hierarchy.edges())
        nodes = set(self.hierarchy.terms) | {name}
        if supertype is not None:
            edges.append((name, supertype))
        self.hierarchy = Hierarchy(edges, nodes=nodes)
        self._conversions[(name, name)] = lambda value: value
        if parser is not None:
            self._parsers[name] = parser
        if member is not None:
            self._members[name] = member

    def add_conversion(
        self, source: str, target: str, function: ConversionFunction
    ) -> None:
        """Register the (unique) conversion ``source -> target``."""
        for type_name in (source, target):
            if type_name not in self.hierarchy:
                raise TypeSystemError(f"unknown type {type_name!r}")
        if (source, target) in self._conversions and source != target:
            raise TypeSystemError(
                f"conversion {source} -> {target} is already registered; "
                f"the paper assumes at most one per type pair"
            )
        self._conversions[(source, target)] = function

    # -- lookups ------------------------------------------------------------------

    def has_type(self, name: str) -> bool:
        return name in self.hierarchy

    def parse_value(self, raw: str, type_name: str) -> object:
        """Interpret a raw string as a value of ``type_name``."""
        parser = self._parsers.get(type_name)
        if parser is None:
            return raw
        try:
            return parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConversionError(
                f"value {raw!r} is not in dom({type_name})"
            ) from exc

    def in_domain(self, value: object, type_name: str) -> bool:
        """dom(tau) membership; types without a member test accept strings."""
        member = self._members.get(type_name)
        if member is not None:
            return member(value)
        return isinstance(value, str) or type_name != STRING

    def _conversion_path(self, source: str, target: str) -> Optional[List[str]]:
        """Shortest chain of registered conversions from source to target."""
        if source == target:
            return [source]
        adjacency: Dict[str, List[str]] = {}
        for (from_type, to_type) in self._conversions:
            if from_type != to_type:
                adjacency.setdefault(from_type, []).append(to_type)
        parents: Dict[str, str] = {}
        frontier = deque([source])
        seen = {source}
        while frontier:
            current = frontier.popleft()
            for nxt in adjacency.get(current, ()):
                if nxt in seen:
                    continue
                parents[nxt] = current
                if nxt == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(nxt)
                frontier.append(nxt)
        return None

    def can_convert(self, source: str, target: str) -> bool:
        """True iff a (possibly composed) conversion exists."""
        if source == target:
            return True
        return self._conversion_path(source, target) is not None

    def convert(self, value: object, source: str, target: str) -> object:
        """Apply the (composed) conversion ``source -> target``.

        Raises :class:`ConversionError` when no route exists.
        """
        path = self._conversion_path(source, target)
        if path is None:
            raise ConversionError(f"no conversion function {source} -> {target}")
        for from_type, to_type in zip(path, path[1:]):
            value = self._conversions[(from_type, to_type)](value)
        return value

    def least_common_supertype(self, first: str, second: str) -> Optional[str]:
        """The least upper bound of two types in the hierarchy, or None."""
        if first not in self.hierarchy or second not in self.hierarchy:
            return None
        return self.hierarchy.least_upper_bound(first, second)

    def subtype(self, lower: str, upper: str) -> bool:
        """``lower <= upper`` in the type hierarchy."""
        if lower not in self.hierarchy or upper not in self.hierarchy:
            return False
        return self.hierarchy.leq(lower, upper)

    # -- validation ------------------------------------------------------------------

    def validate(self, check_routes: bool = False, probes: Sequence[object] = ()) -> None:
        """Check the paper's closure conditions.

        * every ``tau1 <= tau2`` hierarchy edge has a conversion route;
        * with ``check_routes``, all composition routes between each type
          pair agree on the given probe values (the paper's uniqueness
          assumption).
        """
        for lower, upper in self.hierarchy.edges():
            if not self.can_convert(str(lower), str(upper)):
                raise TypeSystemError(
                    f"hierarchy requires a conversion {lower} -> {upper} "
                    f"but none is registered or composable"
                )
        if not check_routes:
            return
        types = [str(t) for t in self.hierarchy.terms]
        for source in types:
            for target in types:
                routes = self._all_paths(source, target, limit=8)
                if len(routes) < 2:
                    continue
                for probe in probes:
                    outcomes = set()
                    for route in routes:
                        value = probe
                        for from_type, to_type in zip(route, route[1:]):
                            value = self._conversions[(from_type, to_type)](value)
                        outcomes.add(value)
                    if len(outcomes) > 1:
                        raise TypeSystemError(
                            f"conversion routes {source} -> {target} disagree "
                            f"on probe {probe!r}: {sorted(map(str, outcomes))}"
                        )

    def _all_paths(self, source: str, target: str, limit: int) -> List[List[str]]:
        adjacency: Dict[str, List[str]] = {}
        for (from_type, to_type) in self._conversions:
            if from_type != to_type:
                adjacency.setdefault(from_type, []).append(to_type)
        paths: List[List[str]] = []

        def walk(current: str, trail: List[str]) -> None:
            if len(trail) > limit or len(paths) > 32:
                return
            if current == target and len(trail) > 1:
                paths.append(list(trail))
                return
            for nxt in adjacency.get(current, ()):
                if nxt not in trail:
                    trail.append(nxt)
                    walk(nxt, trail)
                    trail.pop()

        walk(source, [source])
        return paths

    def __repr__(self) -> str:
        return (
            f"TypeSystem({len(self.hierarchy)} types, "
            f"{len(self._conversions)} conversions)"
        )


def default_type_system() -> TypeSystem:
    """The type system used by the bibliographic experiments.

    ``string`` at the top; ``int`` and ``year`` below it with numeric
    parsing, so year comparisons are numeric, plus a measurement branch
    (mm/cm/m) and a currency branch (usd/eur) exercising real conversion
    functions, mirroring the paper's centimetre/US-dollar discussion.
    """
    system = TypeSystem()
    system.add_type("int", supertype=STRING, parser=lambda raw: int(str(raw)),
                    member=lambda value: isinstance(value, int))
    system.add_type("year", supertype="int", parser=lambda raw: int(str(raw)),
                    member=lambda value: isinstance(value, int) and 0 <= value <= 9999)
    system.add_conversion("int", STRING, str)
    system.add_conversion("year", "int", int)

    # Measurements: a "length" supertype (canonical unit: metres) so
    # mm-vs-cm comparisons find a numeric least common supertype instead
    # of degrading to string comparison.
    system.add_type("length", supertype=STRING, parser=lambda raw: float(str(raw)))
    system.add_type("length_mm", supertype="length", parser=lambda raw: float(str(raw)))
    system.add_type("length_cm", supertype="length", parser=lambda raw: float(str(raw)))
    system.add_type("length_m", supertype="length", parser=lambda raw: float(str(raw)))
    system.add_conversion("length", STRING, lambda value: str(value))
    system.add_conversion("length_mm", "length", lambda value: float(value) / 1000.0)
    system.add_conversion("length_cm", "length", lambda value: float(value) / 100.0)
    system.add_conversion("length_m", "length", lambda value: float(value))
    system.add_conversion("length_mm", "length_cm", lambda value: float(value) / 10.0)
    system.add_conversion("length_cm", "length_mm", lambda value: float(value) * 10.0)
    system.add_conversion("length_cm", "length_m", lambda value: float(value) / 100.0)
    system.add_conversion("length_m", "length_cm", lambda value: float(value) * 100.0)

    # Currency: canonical unit of the "currency" supertype is USD.
    system.add_type("currency", supertype=STRING, parser=lambda raw: float(str(raw)))
    system.add_type("usd", supertype="currency", parser=lambda raw: float(str(raw)))
    system.add_type("eur", supertype="currency", parser=lambda raw: float(str(raw)))
    system.add_conversion("currency", STRING, lambda value: str(value))
    system.add_conversion("usd", "currency", lambda value: float(value))
    system.add_conversion("eur", "currency", lambda value: round(float(value) / 0.9, 6))
    system.add_conversion("usd", "eur", lambda value: round(float(value) * 0.9, 6))
    system.add_conversion("eur", "usd", lambda value: round(float(value) / 0.9, 6))
    return system
