"""List the library names and settings that nothing but the tests uses.

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

A second rule covers settings: every defaulted parameter of a function or
method in scope, and of a class's constructor (its ``__init__``, or a
dataclass's fields), that no call in ``src/``, ``tools/`` or
``perfbench/`` binds is listed as ``key(parameter)``.  A call binds a
parameter by position or keyword, and a ``*`` splat binds every positional
parameter from its place on, a ``**`` splat every parameter.
``dataclasses.replace`` binds the fields its keywords name.  Calls are
matched by name like references, except that a bare name a calling file
defines itself is that file's, so a parameter may be listed too rarely,
never too often.

    python3 tools/test_only_names.py

Prints each name that nothing in ``src/`` or ``perfbench/`` references, and
each setting that only tests bind, with its count of test references or
binding test calls and, for those kept on purpose, the reason.  Exits 1
when some of them is not listed in ``KEPT``, else 0.
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
    "cli.main(argv)": "the console entry reads sys.argv",
    "evolution.strong_split_residual(substeps)": "the split-form check's own setting",
    "evolution.strong_split_residual(tol)": "the split-form check's own setting",
    "evolution.strong_split_residual(max_order)": "the split-form check's own setting",
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


def _defaulted(node, method: bool) -> list[tuple[str, int | None]]:
    """``(parameter, positional index or None)`` of each defaulted parameter.

    The index counts from the first argument a call passes, so a method's
    ``self`` or ``cls`` is skipped.
    """
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    out = [(name, i - skip) for i, name in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _fields(node: ast.ClassDef, classes: dict) -> list[tuple[str, bool]]:
    """``(field, has a default)`` of each constructor field of a dataclass,
    its package bases' first."""
    fields = [f for base in node.bases
              if isinstance(base, ast.Name) and base.id in classes
              for f in _fields(classes[base.id], classes)]
    return fields + [
        (item.target.id, item.value is not None) for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and "init=False" not in ast.unparse(item.value or item.target)]


def _settings(defs, classes: dict) -> list[tuple]:
    """``(definition, defaulted parameters)`` of each function, method and
    class that has some."""
    settings = []
    for d in defs:
        _, _, _, owner, node = d
        params = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = _defaulted(node, owner is not None)
        elif isinstance(node, ast.ClassDef):
            init = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"), None)
            if init is not None:
                params = _defaulted(init, True)
            elif any("dataclass" in ast.unparse(dec) for dec in node.decorator_list):
                params = [(name, i) for i, (name, default)
                          in enumerate(_fields(node, classes)) if default]
        if params:
            settings.append((d, params))
    return settings


def _bound(args: list, keywords: list, params) -> set[str]:
    """The parameters of ``params`` that a call's arguments bind."""
    bound = set()
    for i, arg in enumerate(args):
        starred = isinstance(arg, ast.Starred)
        bound |= {name for name, index in params
                  if index is not None and (index == i or starred and index >= i)}
    for kw in keywords:
        bound |= {name for name, _ in params if kw.arg is None or kw.arg == name}
    return bound


def _setting_counts(defs, classes: dict, places: dict) -> dict[str, Counter]:
    """``key(parameter) -> Counter(place -> binding calls)`` for every setting."""
    settings = _settings(defs, classes)
    counts = {f"{d[1]}({name})": Counter() for d, params in settings for name, _ in params}
    for place, paths in places.items():
        for path in paths:
            tree = ast.parse(path.read_text())
            own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                attr = isinstance(call.func, ast.Attribute)
                callee = call.func.attr if attr else getattr(call.func, "id", None)
                for (def_path, key, name, owner, node), params in settings:
                    if callee == "replace":  # dataclasses.replace(obj, field=...)
                        bound = (_bound([], call.keywords, params)
                                 if isinstance(node, ast.ClassDef) else ())
                    # A method is called through an attribute; a bare name
                    # that the calling file defines itself is that file's.
                    elif callee == name and (attr or owner is None and (
                            def_path == path or callee not in own)):
                        bound = _bound(call.args, call.keywords, params)
                    else:
                        continue
                    for param in bound:
                        counts[f"{key}({param})"][place] += 1
    return counts


def main() -> int:
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defs = [(path, *d) for path, tree in trees.items() if path.name != "__init__.py"
            for d in _definitions(path.stem, tree)]
    classes = {name: node for _, _, name, owner, node in defs
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
    setting_counts = _setting_counts(
        defs, classes, {**places, "tools": sorted((ROOT / "tools").glob("*.py"))})
    unset = [key for key, c in setting_counts.items()
             if not (c["src"] or c["tools"] or c["perfbench"])]
    counts.update({key: setting_counts[key] for key in unset})
    unused += unset
    width = max((len(key) for key in unused), default=0)
    for key in unused:
        reason = KEPT.get(key, "no library, tool or benchmark caller" if key in unset
                          else "no library or benchmark reference")
        print(f"{key:<{width}}  tests {counts[key]['tests']:3d}  {reason}")
    orphans = set(unused) - KEPT.keys()
    print(f"{len(unused) - len(unset)} of {len(defs)} names have no library or "
          f"benchmark reference and {len(unset)} of {len(setting_counts)} settings "
          f"no library, tool or benchmark caller; {len(orphans)} of them are not "
          f"kept on purpose")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
