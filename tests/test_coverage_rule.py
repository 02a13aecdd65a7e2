"""PrimeTable.require is the one rule for what a prime table covers.

No src/primearcs module but primes.py holds a Compare node with an operand
that reads an Attribute named ``limit``.  Such a check elsewhere is a second
rule, and rules drift apart (a float root with a relative slack in one
place, an exact power in another).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "primearcs").glob("*.py"))


def limit_comparisons(src=SRC) -> list[str]:
    """'module:line' of each line outside primes.py holding a comparison
    with an operand that reads ``.limit``."""
    out = set()
    for path in src:
        if path.stem == "primes":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Attribute) and n.attr == "limit"
                    for operand in (node.left, *node.comparators)
                    for n in ast.walk(operand)):
                out.add((path.stem, node.lineno))
    return [f"{stem}:{line}" for stem, line in sorted(out)]


def test_only_primes_compares_with_the_limit():
    assert limit_comparisons() == []


def test_guard_sees_a_planted_check(tmp_path):
    # a bound checked against table.limit in a copy of search.py is reported
    copies = []
    for path in SRC:
        copy = tmp_path / path.name
        text = path.read_text()
        if path.stem == "search":
            text += "\n\ndef planted(table, hi):\n    if hi > table.limit:\n" \
                    "        return hi\n"
        copy.write_text(text)
        copies.append(copy)
    lines = (tmp_path / "search.py").read_text().splitlines()
    assert limit_comparisons(copies) == [f"search:{len(lines) - 1}"]
