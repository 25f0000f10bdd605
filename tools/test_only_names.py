"""List the library names that nothing but the tests references.

The scope is every top-level function, class and module constant of the
``src/dysonprop`` modules other than ``__init__.py``, and every method of
their top-level classes.  A reference
is an AST ``Name`` or ``Attribute`` node, so docstrings, comments, strings
and import lines do not count.  References are counted in three places:
``src/`` (outside the name's own definition and outside ``__init__.py``,
which only re-exports), ``tests/`` and ``perfbench/``.

Methods are matched by attribute name.  ``Class.method`` and ``self.method``
inside the class count for that class only; any other ``obj.method`` counts
for every class that defines the method, so a method whose name another
class shares may be listed too rarely, never too often.  Dunder methods are
left out: the language calls them without naming them.

    python3 tools/test_only_names.py

Prints each name that nothing in ``src/`` or ``perfbench/`` references,
with its count of test references and, for the names kept on purpose, the
reason.  Exits 1 when some such name is not listed in ``KEPT``, else 0.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dysonprop"

# Names with no library or benchmark reference that stay, and why.
KEPT = {
    "dyson.apriori_bound": "perfbench/spans.TRACED names it",
    "dyson.apriori_tail": "perfbench/spans.TRACED names it",
    "dyson.coupled_gap": "perfbench/spans.TRACED names it",
    "dyson.TimeGrid.nodes": "the times of `DysonTerm.node_values`",
    "graded.weighted_norm": "the reference the convergence test compares against",
    "fock.FockBasis.vacuum": "an acceptance criterion uses it",
    "evolution.strong_split_residual": "the paper's split form (criterion 06)",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """``(key, name, owner class or None, node)`` for each name in scope."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield f"{module}.{node.name}.{item.name}", item.name, node.name, item
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield f"{module}.{target.id}", target.id, None, node


def _references(tree: ast.Module) -> dict[str, list[tuple[bool, str | None, int]]]:
    """``name -> [(through an attribute, qualifier, line)]`` for each read.

    The qualifier is the ``X`` of ``X.name`` (``self`` read as the enclosing
    class), else None.
    """
    refs: dict[str, list] = {}

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            reads = isinstance(getattr(child, "ctx", None), ast.Load)
            if reads and isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append((False, None, child.lineno))
            elif reads and isinstance(child, ast.Attribute):
                owner = None
                if isinstance(child.value, ast.Name):
                    owner = cls if child.value.id == "self" else child.value.id
                refs.setdefault(child.attr, []).append((True, owner, child.lineno))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(tree, None)
    return refs


def main() -> int:
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defs = [(path, *d) for path, tree in trees.items() if path.name != "__init__.py"
            for d in _definitions(path.stem, tree)]
    classes = {name for _, _, name, owner, node in defs
               if owner is None and isinstance(node, ast.ClassDef)}
    places = {"src": [p for p in trees if p.name != "__init__.py"],
              "tests": sorted((ROOT / "tests").rglob("*.py")),
              "perfbench": sorted((ROOT / "perfbench").rglob("*.py"))}
    counts = {key: Counter() for _, key, *_ in defs}
    for place, paths in places.items():
        for path in paths:
            refs = _references(trees.get(path) or ast.parse(path.read_text()))
            for def_path, key, name, owner, node in defs:
                own = range(node.lineno, node.end_lineno + 1) if def_path == path else ()
                for through_attr, qualifier, line in refs.get(name, ()):
                    if line in own:
                        continue
                    # A method is named through an attribute, and a reference
                    # qualified by a class counts for that class only.
                    if owner is not None and (not through_attr or (
                            qualifier in classes and qualifier != owner)):
                        continue
                    counts[key][place] += 1
    unused = [key for key in counts
              if not counts[key]["src"] and not counts[key]["perfbench"]]
    width = max((len(key) for key in unused), default=0)
    for key in unused:
        reason = KEPT.get(key, "no library or benchmark reference")
        print(f"{key:<{width}}  tests {counts[key]['tests']:3d}  {reason}")
    orphans = set(unused) - KEPT.keys()
    print(f"{len(unused)} of {len(counts)} names have no library or benchmark "
          f"reference; {len(orphans)} of them are not kept on purpose")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
