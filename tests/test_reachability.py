"""Every definition under ``src/repro`` is reached, and no module imports
what it does not use.

A definition (a module-level function, class or constant, or a method
or class nested in a class) is *reached* when it is referenced outside
its own body anywhere under ``src/``, ``examples/`` or ``benchmarks/``.
A module-level definition is referenced by any mention of its name: a
``Name``, an ``Attribute``, an imported name, or a string constant equal
to the name.  A class member is referenced only by an attribute access
(``x.name``) or a dynamic lookup: the name argument of ``getattr`` /
``hasattr`` / ``setattr``, a ``HOOK = "..."`` constant (such as
``HOOK = "instance_of"``) or an ``__all__`` entry.  A local variable,
an import or a string that merely shares a member's name does not reach
it.  References from ``tests/`` do not count, so a definition only
tests call is unreached.  Dunder methods are called by the interpreter
and are never reported.

A module-level import in a non-``__init__`` module is *unused* when the
module never names it (a string annotation counts) and no module
anywhere imports that name from it (a deliberate re-export).

A definition nothing reaches either goes, or is listed in ``KEEP`` with
the reason it stays (a paper operator, an entry point, a test oracle or
seam).
``KEEP`` cannot go stale: an entry that no longer exists, or that is now
reached, fails the check too.

Stdlib only; run it directly (``python tests/test_reachability.py``,
exit status 1 on a finding) or through pytest.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]

# Trees whose references reach a definition, and the tree that defines.
READERS = ("src", "examples", "benchmarks")
DEFINER = "src/repro"
# Trees whose ``from module import name`` makes an import a re-export.
IMPORTERS = ("src", "examples", "benchmarks", "tests")
# Builtins whose second argument names the attribute they look up.
DYNAMIC_LOOKUPS = ("getattr", "hasattr", "setattr")

# An unreached definition stays only as a paper operator or definition,
# an entry point, or a test oracle or seam (a helper that tests of other,
# kept behaviour call).  Having a unit test of its own is no reason to
# stay: such a definition goes, and so does every test that pins only it.
KEEP: Dict[str, str] = {
    # The paper's operators and definitions.
    "repro.core.system.TossSystem.project": "the TOSS projection operator (Sec. 5)",
    "repro.core.algebra.TossAlgebra.lift": "[EI]_F, the base case of the TOSS algebra (Sec. 5)",
    "repro.ontology.maker.OntologyMaker.make": "the ontology maker on one instance (Fig. 8); tests' seam",
    "repro.core.instance.SemistructuredInstance.type_of": "t(o, attr), the instance typing (Sec. 3)",
    "repro.core.types.TypeSystem.in_domain": "dom(tau), a type's domain (Sec. 3)",
    "repro.core.types.TypeSystem.subtype": "the subtype order of the type system (Sec. 3)",
    "repro.ontology.fusion.FusionResult.psi": "psi, the fusion's term-to-node map (Sec. 4)",
    "repro.ontology.fusion.FusionResult.node_of": "psi of one term (Sec. 4)",
    "repro.similarity.sea.SimilarityEnhancement.mu_inverse": "the inverse of mu (Def. 8)",
    "repro.similarity.sea.SimilarityEnhancement.cohabiting": "Def. 8's ~ test; tests' oracle",
    # Entry points.
    "repro.data.samples.sample_system": "the README's Figs. 1/2 system",
    "repro.serving.server.QueryServer.execute": "the server's one-request call (docs/SERVING.md)",
    # Test oracles and seams.
    "repro.tax.tree.trees_equal": "tests' structural oracle for trees",
    "repro.tax.tree.canonical_keys": "tests' order-free oracle for collections",
    "repro.tax.pattern.pattern_of": "tests' seam: a pattern from (label, parent, edge) rows",
    "repro.similarity.seo.SimilarityEnhancedOntology.for_hierarchy": "tests' seam: an SEO over a hand-built hierarchy",
    "repro.faults.inject": "tests' seam: arm one fault plan in-process",
    "repro.serving.supervisor.SupervisedWorkerPool.worker_pids": "tests' seam: the chaos suite kills workers by pid",
    "repro.xmldb.database.Database.drop_collection": "tests' seam: a dropped collection must miss every memo",
    "repro.data.venues.venue_by_key": "tests' seam: the corpus tests read a paper's venue through it",
}


class Definition(NamedTuple):
    qualname: str
    name: str
    path: Path
    lineno: int
    lines: int


def python_files(root: Path, trees) -> Iterator[Path]:
    for tree in trees:
        base = root / tree
        if base.is_dir():
            for path in sorted(base.rglob("*.py")):
                if "__pycache__" not in path.parts:
                    yield path


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def module_name(root: Path, path: Path) -> str:
    parts = list(path.relative_to(root / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def references(node: ast.AST) -> Counter:
    """Every identifier ``node`` mentions, with its count."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            for part in sub.name.split("."):
                found[part] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found[sub.value] += 1
    return found


def member_references(node: ast.AST) -> Counter:
    """Every name ``node`` reaches a class member by, with its count: an
    attribute access, or a dynamic lookup (the name argument of
    ``getattr`` / ``hasattr`` / ``setattr``, a ``HOOK = "..."`` constant
    or an ``__all__`` entry)."""
    found: Counter = Counter()

    def constant(value: ast.AST) -> None:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            found[value.value] += 1

    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name) and sub.func.id in DYNAMIC_LOOKUPS and len(sub.args) > 1:
                constant(sub.args[1])
        elif isinstance(sub, (ast.Assign, ast.AnnAssign)) and sub.value is not None:
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "HOOK" in names:
                constant(sub.value)
            if "__all__" in names and isinstance(sub.value, (ast.List, ast.Tuple)):
                for element in sub.value.elts:
                    constant(element)
    return found


def definitions(module: ast.Module, prefix: str, path: Path) -> Iterator[Tuple[Definition, ast.AST]]:
    """Each module-level function, class and constant, and each method
    or class nested in a class, with its node."""
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    lines = node.end_lineno - node.lineno + 1
                    yield Definition(f"{prefix}.{target.id}", target.id, path,
                                     node.lineno, lines), node

    def walk(body, scope):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{scope}.{node.name}"
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield Definition(qualname, node.name, path, node.lineno,
                                 node.end_lineno - first + 1), node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, qualname)

    yield from walk(module.body, prefix)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def scan(root: Path = ROOT) -> Tuple[Dict[str, Definition], List[Definition]]:
    """Every definition under ``DEFINER`` by qualified name, and those
    that nothing outside their own body reaches: a module-level
    definition by any mention of its name, a class member only by
    ``member_references``."""
    seen: Counter = Counter()
    seen_members: Counter = Counter()
    for path in python_files(root, READERS):
        module = parse(path)
        seen.update(references(module))
        seen_members.update(member_references(module))
    defined: Dict[str, Definition] = {}
    unreached: List[Definition] = []
    for path in python_files(root, (DEFINER,)):
        prefix = module_name(root, path)
        for definition, node in definitions(parse(path), prefix, path):
            defined[definition.qualname] = definition
            if is_dunder(definition.name):
                continue
            member = definition.qualname.count(".") > prefix.count(".") + 1
            count, own = (seen_members, member_references) if member else (seen, references)
            if count[definition.name] - own(node)[definition.name] <= 0:
                unreached.append(definition)
    return defined, unreached


def _module_imports(module: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """``(statement, bound name)`` for each import at module level
    (also under a module-level ``if`` / ``try``)."""
    stack = list(module.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _imported_from(root: Path) -> set:
    """``(module, name)`` for each ``from module import name`` in the tree."""
    pairs = set()
    for path in python_files(root, IMPORTERS):
        package = module_name(root, path) if path.is_relative_to(root / "src") else ""
        is_package = path.name == "__init__.py"
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package.split(".")
                drop = node.level - 1 if is_package else node.level
                base = base[: len(base) - drop] if drop else base
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module or ""
            for alias in node.names:
                pairs.add((source, alias.name))
    return pairs


def _used_names(module: ast.Module) -> Counter:
    used: Counter = Counter()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation, or an ``__all__`` entry.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for sub in ast.walk(expression):
                if isinstance(sub, ast.Name):
                    used[sub.id] += 1
    return used


def unused_imports(root: Path = ROOT) -> List[str]:
    """Module-level imports in non-``__init__`` modules under ``DEFINER``
    that the module never uses and no other module imports from it."""
    reexported = _imported_from(root)
    found = []
    for path in python_files(root, (DEFINER,)):
        if path.name == "__init__.py":
            continue
        module = parse(path)
        used = _used_names(module)
        name_of_module = module_name(root, path)
        for statement, bound in _module_imports(module):
            if used[bound] or (name_of_module, bound) in reexported:
                continue
            relative = path.relative_to(root)
            found.append(f"{relative}:{statement.lineno}: {bound}")
    return found


# --------------------------------------------------------------- checks

def definition_problems(root: Path = ROOT) -> List[str]:
    """An unreached definition missing from ``KEEP``, and a stale ``KEEP``
    entry, one line each."""
    defined, unreached = scan(root)
    problems = [
        f"{d.path.relative_to(root)}:{d.lineno}: {d.qualname} is reached by nothing "
        f"({d.lines} lines): delete it, or add it to KEEP with the reason it stays"
        for d in unreached
        if d.qualname not in KEEP
    ]
    unreached_names = {d.qualname for d in unreached}
    for qualname in sorted(KEEP):
        if qualname not in defined:
            problems.append(f"KEEP names {qualname}, which no longer exists")
        elif qualname not in unreached_names:
            problems.append(f"KEEP names {qualname}, which is now reached: drop the entry")
    return problems


def import_problems(root: Path = ROOT) -> List[str]:
    return [f"{line} is imported and never used" for line in unused_imports(root)]


_SYNTHETIC = {
    "src/repro/__init__.py": "",
    "src/repro/lib.py": (
        "import os\n"
        "from typing import List\n"
        "HOOK = 'hooked'\n"
        "UNUSED = 1\n"
        "def used(xs: List[int]):\n"
        "    return len(xs)\n"
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0\n"
        "def hooked(node):\n"
        "    return node\n"
        "class Thing:\n"
        "    def __repr__(self):\n"
        "        return 'Thing'\n"
        "    def unused_method(self):\n"
        "        return 1\n"
        "    def shadowed(self):\n"
        "        return 2\n"
        "    def looked_up(self):\n"
        "        return 3\n"
    ),
    "examples/demo.py": (
        "from repro.lib import used, HOOK, Thing\n"
        "print(used([1]), getattr(object(), HOOK, None), Thing())\n"
        "shadowed = 'shadowed'\n"
        "print(shadowed, getattr(Thing(), 'looked_up')())\n"
    ),
    "tests/test_lib.py": (
        "from repro.lib import planted\n"
        "def test_planted():\n"
        "    assert planted(2) == 0\n"
    ),
}


def self_check() -> None:
    """The scanner flags a planted unreached function (called only by
    itself and by tests), an unreached constant and method, a method that
    only a same-named local and a same-named string mention, and an
    unused import, and leaves a ``getattr``-hooked function and method
    and a dunder alone."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for relative, text in _SYNTHETIC.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        flagged = {d.qualname for d in scan(root)[1]}
        expected = {"repro.lib.planted", "repro.lib.UNUSED", "repro.lib.Thing.unused_method",
                    "repro.lib.Thing.shadowed"}
        assert flagged == expected, f"scanner flagged {sorted(flagged)}, expected {sorted(expected)}"
        imports = unused_imports(root)
        assert imports == ["src/repro/lib.py:1: os"], f"unused imports: {imports}"


def test_scanner_flags_a_planted_definition_and_spares_a_hook():
    self_check()


def test_every_definition_is_reached():
    problems = definition_problems()
    assert not problems, "\n".join(problems)


def test_no_unused_module_imports():
    problems = import_problems()
    assert not problems, "\n".join(problems)


def main() -> int:
    self_check()
    problems = definition_problems() + import_problems()
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"every definition under {DEFINER} is reached ({len(KEEP)} kept by reason)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
