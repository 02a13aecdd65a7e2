"""Every public module-level name in src/primearcs is reached by the package
itself or by the benchmark, not by the tests alone.

A name counts as reached when the syntax tree of a src/ module or of
benchmark/*.py refers to it outside its own definition: as a Name in its
own module or in a module that imports it by name, or as an Attribute
(``circle.minor_arc_l2``) anywhere.  Docstrings and comments are not
syntax, so they never count.  The only names exempt are the test oracles
below, which exist to be compared against.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "primearcs").glob("*.py"))
BENCH = sorted((ROOT / "benchmark").glob("*.py"))

# the pointwise counting integrand, the oracle for integrate_I's panels
ORACLES = {"circle.integrand"}


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


def _references(tree: ast.Module):
    """(kind, name, top-level statement) of every Name and Attribute."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield "name", node.id, stmt
            elif isinstance(node, ast.Attribute):
                yield "attr", node.attr, stmt


def _imported_names(tree: ast.Module) -> dict[str, set[tuple[str, str]]]:
    """{module stem: (name, local alias) of each name imported from it}."""
    out: dict[str, set[tuple[str, str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            stem = node.module.split(".")[-1]
            out.setdefault(stem, set()).update(
                (a.name, a.asname or a.name) for a in node.names)
    return out


def _reached(name: str, path: Path, defn: ast.stmt, trees, imports) -> bool:
    for other, tree in trees.items():
        local = {alias for orig, alias in imports[other].get(path.stem, ())
                 if orig == name}
        if other == path:
            local.add(name)
        if any(ref in local if kind == "name" else ref == name
               for kind, ref, stmt in _references(tree)
               if not (other == path and stmt is defn)):
            return True
    return False


def unreached_names(src=SRC, bench=BENCH) -> list[str]:
    """'module.name' of each public name of src that nothing reaches."""
    trees = {path: ast.parse(path.read_text()) for path in [*src, *bench]}
    imports = {path: _imported_names(tree) for path, tree in trees.items()}
    return [f"{path.stem}.{name}" for path in src
            for name, defn in _public_definitions(trees[path]).items()
            if f"{path.stem}.{name}" not in ORACLES
            and not _reached(name, path, defn, trees, imports)]


def test_every_public_name_is_reached():
    assert unreached_names() == []


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


# the public functions deleted because only tests reached them
DELETED = ["circle.V", "circle.classify_minor", "search.count_bound_report",
           "meansquare.double_integral_bound_check", "expsums.fourth_moment_S2",
           "expsums.s_minus_u_l1_bound", "rational.dirichlet_approx",
           "rational.sequence_x", "optimizer.max_feasible_k"]


@pytest.mark.parametrize("qualname", DELETED)
def test_guard_fails_if_a_deleted_name_returns(tmp_path, qualname):
    # put the function back into a copy of src/ and the guard reports it
    stem, name = qualname.split(".")
    copies = []
    for path in SRC:
        copy = tmp_path / path.name
        text = path.read_text()
        if path.stem == stem:
            text += f"\n\ndef {name}(*args):\n    return args\n"
        copy.write_text(text)
        copies.append(copy)
    assert unreached_names(copies, BENCH) == [qualname]
