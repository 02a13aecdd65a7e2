"""Every public module-level name and every class member in src/primearcs is
read by the package itself or by the benchmark, not by the tests alone.

A module-level name counts as reached when the syntax tree of a src/
module or of benchmark/*.py reads it outside its own definition: as a
Name in a Load context in its own module or in a module that imports it
by name, or as an Attribute off a name bound to its module
(``circle.minor_arc_l2``).  A class member (a non-dunder method or
property, an annotated dataclass or NamedTuple field) counts as read when
some src/ or benchmark tree loads an Attribute of its name outside the
member's own definition, or when benchmark/tracing.py's LAYERS patches it.
Docstrings and comments are not syntax, so they never count.  No name
is exempt: the pointwise oracles the tests compare against live in
tests/pointwise.py.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "primearcs").glob("*.py"))
BENCH = sorted((ROOT / "benchmark").glob("*.py"))


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """{name: defining statement} of the module's public functions, classes
    and assigned names."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out.update((n, node) for n in names if not n.startswith("_"))
    return out


def _attribute_read(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)


def _reads(tree: ast.Module) -> dict[tuple[str, str | None], list[ast.stmt]]:
    """{(name, None): top-level statements reading the Name} and
    {(attr, base): statements reading the Attribute off the Name base}."""
    out: dict[tuple[str, str | None], list[ast.stmt]] = {}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = node.id, None
            elif _attribute_read(node) and isinstance(node.value, ast.Name):
                key = node.attr, node.value.id
            else:
                continue
            out.setdefault(key, []).append(stmt)
    return out


def _imported_names(tree: ast.Module) -> dict[str, set[tuple[str, str]]]:
    """{module stem: (name, local alias) of each name imported from it};
    the package's modules themselves (``from . import circle``) come
    under the stem 'primearcs'."""
    out: dict[str, set[tuple[str, str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            stem = (node.module or "primearcs").split(".")[-1]
            out.setdefault(stem, set()).update(
                (a.name, a.asname or a.name) for a in node.names)
    return out


def _reached(name: str, path: Path, defn: ast.stmt, reads, imports) -> bool:
    for other, found in reads.items():
        imported = imports[other]
        keys = [(alias, None) for orig, alias in imported.get(path.stem, ())
                if orig == name]
        keys += [(name, alias) for orig, alias in imported.get("primearcs", ())
                 if orig == path.stem]
        if other == path:
            keys.append((name, None))
        if any(stmt is not defn or other != path
               for key in keys for stmt in found.get(key, ())):
            return True
    return False


def unreached_names(src=SRC, bench=BENCH) -> list[str]:
    """'module.name' of each public name of src that nothing reaches."""
    trees = {path: ast.parse(path.read_text()) for path in [*src, *bench]}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    imports = {path: _imported_names(tree) for path, tree in trees.items()}
    return [f"{path.stem}.{name}" for path in src
            for name, defn in _public_definitions(trees[path]).items()
            if not _reached(name, path, defn, reads, imports)]


def _members(cls: ast.ClassDef) -> dict[str, ast.stmt]:
    """{name: defining statement} of the class's non-dunder methods and
    properties and its annotated fields."""
    out = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            name = node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            out[name] = node
    return out


def _traced(bench) -> set[str]:
    """The attribute names that benchmark/tracing.py's LAYERS patches."""
    for path in bench:
        if path.stem != "tracing":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                            for t in node.targets)):
                return {layer.elts[1].value for layer in node.value.elts}
    return set()


def unread_members(src=SRC, bench=BENCH) -> list[str]:
    """'module.Class.member' of each class member of src that nothing reads."""
    trees = {path: ast.parse(path.read_text()) for path in [*src, *bench]}
    reads = Counter(node.attr for tree in trees.values()
                    for node in ast.walk(tree) if _attribute_read(node))
    traced = _traced(bench)
    out = []
    for path in src:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, defn in _members(cls).items():
                own = sum(_attribute_read(node) and node.attr == name
                          for node in ast.walk(defn))
                if reads[name] == own and name not in traced:
                    out.append(f"{path.stem}.{cls.name}.{name}")
    return out


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_every_class_member_is_read():
    assert unread_members() == []


def test_guard_sees_a_name_only_tests_use(tmp_path):
    # a public function that no module or benchmark refers to is reported;
    # one mention in a docstring or comment does not rescue it
    mod = tmp_path / "mod.py"
    mod.write_text('"""Calls helper() and dead()."""\n\n'
                   "def helper():\n    return 1\n\n\n"
                   "def dead():  # helper\n    return dead()\n\n\n"
                   "def live():\n    return helper()\n")
    user = tmp_path / "user.py"
    user.write_text("from pkg.mod import live\n\nlive()\n")
    assert unreached_names([mod], [user]) == ["mod.dead"]


def test_guard_sees_a_function_named_like_a_field(tmp_path):
    # a field of the same name, its annotation and its reads off a record
    # do not reach the module function
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass\n\n\n"
                   "@dataclass\nclass Row:\n    score: float\n\n\n"
                   "def score(row):\n    return row.score\n\n\n"
                   "def live():\n    return Row(1.0).score\n")
    user = tmp_path / "user.py"
    user.write_text("from pkg.mod import live\n\nprint(live().score)\n")
    assert unreached_names([mod], [user]) == ["mod.score"]


# the public functions deleted because only tests reached them
DELETED = ["circle.V", "circle.classify_minor", "search.count_bound_report",
           "meansquare.double_integral_bound_check", "expsums.fourth_moment_S2",
           "expsums.s_minus_u_l1_bound", "rational.dirichlet_approx",
           "rational.sequence_x", "optimizer.max_feasible_k",
           "search.residual", "circle.integrand"]


def _copies(directory, paths, stem, edit):
    """Copies of paths in directory, the one of stem edited by edit."""
    directory.mkdir(exist_ok=True)
    out = []
    for path in paths:
        copy = directory / path.name
        text = path.read_text()
        copy.write_text(edit(text) if path.stem == stem else text)
        out.append(copy)
    return out


@pytest.mark.parametrize("qualname", DELETED)
def test_guard_fails_if_a_deleted_name_returns(tmp_path, qualname):
    # put the function back into a copy of src/ and the guard reports it
    stem, name = qualname.split(".")
    copies = _copies(tmp_path, SRC, stem, lambda text: text + (
        f"\n\ndef {name}(*args):\n    return args\n"))
    assert unreached_names(copies, BENCH) == [qualname]


def test_member_guard_sees_an_unread_field(tmp_path):
    # a field that no src/ or benchmark tree reads is reported; its
    # neighbour, a name the package reads, is not
    copies = _copies(tmp_path, SRC, "search", lambda text: text + (
        "\n\nclass Planted(NamedTuple):\n    count: int\n"
        "    never_read: bool = False\n"))
    assert unread_members(copies, BENCH) == ["search.Planted.never_read"]


def test_member_guard_counts_traced_layers(tmp_path):
    # a method that only the benchmark's LAYERS names is read by the trace
    src = _copies(tmp_path / "src", SRC, "search", lambda text: text + (
        "\n\nclass Planted:\n    def traced_only(self):\n"
        "        return self\n"))
    assert unread_members(src, BENCH) == ["search.Planted.traced_only"]
    layers = "\nLAYERS = [\n"
    layer = ('    ((search.Planted,), "traced_only", '
             '"search.Planted.traced_only", None),\n')
    bench = _copies(tmp_path / "bench", BENCH, "tracing",
                    lambda text: text.replace(layers, layers + layer))
    assert layer in (tmp_path / "bench" / "tracing.py").read_text()
    assert unread_members(src, bench) == []
