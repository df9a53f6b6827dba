"""Every public top-level function and class of the package has a caller.

A name counts as used when some ``ast.Name`` or ``ast.Attribute`` in
``src/eqthink`` mentions it outside its own definition.  Tests do not count:
a helper that only tests reach is library surface that no command needs.
"""

import ast
from collections import Counter
from pathlib import Path

import eqthink

SRC = Path(eqthink.__file__).parent

# Public names kept without an in-package caller, each with its reason.
EXEMPT = {
    "big_add": "bignum API: perfbench and the acceptance tests call it",
    "big_mul": "bignum API: perfbench and the acceptance tests call it",
    "to_bits": "bignum API: the acceptance tests call it",
    "from_bits": "bignum API: the acceptance tests call it",
    "derive_truth_table": "the acceptance tests check truth tables through it",
}


def _mentions(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _unused_public_names() -> set[str]:
    public: set[str] = set()
    mentions: Counter[str] = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        mentions.update(_mentions(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
                # mentions inside its own definition (recursion) do not count
                mentions[node.name] -= sum(1 for m in _mentions(node) if m == node.name)
    return {name for name in public if mentions[name] <= 0}


def test_every_public_helper_has_a_caller():
    unused = _unused_public_names()
    assert unused - EXEMPT.keys() == set()
    # an exemption for a name that is gone, or has gained a caller, is stale
    assert unused >= EXEMPT.keys()
