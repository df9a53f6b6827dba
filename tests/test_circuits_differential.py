"""Circuit-layer code against the code it replaced, kept here verbatim.

* ``_NandOps``, ``_ImplOps``, the ``to_basis`` that drove them and the
  ``ripple_carry`` that looked ports up by name.  The lowering tables and
  formula-built adder cells must add the same gates in the same order, so
  every netlist is byte-identical to theirs.
* ``exhaustive_equiv`` with its own assignment loop, and the
  ``derive_truth_table`` with its own ``product`` loop.  Equivalence results
  (witness included) and truth tables must be equal to theirs.
* The guard decision's own truth-table interpreter: ``_guard_table``,
  ``_atom`` and their constants.  The guard decision must give the same
  verdicts.
"""

import itertools
import json
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from test_admissibility import _guard_sets

from eqthink import admissibility, circuits, prover
from eqthink.admissibility import _MAX_ASSIGNMENTS, _shape, _simplify
from eqthink.circuits import (
    BASES,
    GATE_ARITY,
    EquivResult,
    Gate,
    Netlist,
    _Builder,
    simulate,
)
from eqthink.errors import BadWidth, CircuitError, EqError, PortMismatch, TooManyInputs
from eqthink.evaluator import DefEnv
from eqthink.syntax import NIL_LIT, T_LIT, App, SymLit, Term, Var, parse_term, print_term

# -- the replaced code, verbatim ----------------------------------------------


def to_basis(n: Netlist, basis: str) -> Netlist:
    if basis not in BASES:
        raise CircuitError(f"unknown basis {basis!r} (expected nand or impl)")
    b = _Builder(list(n.inputs))
    build = _NandOps(b) if basis == "nand" else _ImplOps(b)
    k = len(n.inputs)
    mapped: list[int] = list(range(k))
    for g in n.gates:
        args = [mapped[x] for x in g.args]
        mapped.append(build.translate(g.kind, args))
    return b.finish([mapped[o] for o in n.outputs])


class _NandOps:
    def __init__(self, b: _Builder):
        self.b = b

    def nand(self, x: int, y: int) -> int:
        return self.b.gate("NAND", x, y)

    def inv(self, x: int) -> int:
        return self.nand(x, x)

    def one(self) -> int:
        if not self.b.inputs:
            raise CircuitError("nand basis needs at least one input to build constants")
        p = 0
        return self.nand(p, self.inv(p))

    def translate(self, kind: str, a: list[int]) -> int:
        if kind == "NAND":
            return self.nand(a[0], a[1])
        if kind == "NOT":
            return self.inv(a[0])
        if kind == "AND":
            return self.inv(self.nand(a[0], a[1]))
        if kind == "OR":
            return self.nand(self.inv(a[0]), self.inv(a[1]))
        if kind == "NOR":
            return self.inv(self.nand(self.inv(a[0]), self.inv(a[1])))
        if kind == "XOR":
            m = self.nand(a[0], a[1])
            return self.nand(self.nand(a[0], m), self.nand(a[1], m))
        if kind == "IMPL":
            return self.nand(a[0], self.inv(a[1]))
        if kind == "CONST1":
            return self.one()
        return self.inv(self.one())


class _ImplOps:
    def __init__(self, b: _Builder):
        self.b = b

    def impl(self, x: int, y: int) -> int:
        return self.b.gate("IMPL", x, y)

    def zero(self) -> int:
        return self.b.gate("CONST0")

    def inv(self, x: int) -> int:
        return self.impl(x, self.zero())

    def or_(self, x: int, y: int) -> int:
        return self.impl(self.inv(x), y)

    def and_(self, x: int, y: int) -> int:
        return self.inv(self.impl(x, self.inv(y)))

    def translate(self, kind: str, a: list[int]) -> int:
        if kind == "IMPL":
            return self.impl(a[0], a[1])
        if kind == "NOT":
            return self.inv(a[0])
        if kind == "AND":
            return self.and_(a[0], a[1])
        if kind == "OR":
            return self.or_(a[0], a[1])
        if kind == "NAND":
            return self.impl(a[0], self.inv(a[1]))
        if kind == "NOR":
            return self.inv(self.or_(a[0], a[1]))
        if kind == "XOR":
            return self.or_(
                self.and_(a[0], self.inv(a[1])), self.and_(self.inv(a[0]), a[1])
            )
        if kind == "CONST0":
            return self.zero()
        return self.inv(self.zero())


class _PortBuilder(_Builder):
    """The builder as the old adder used it, with ports looked up by name."""

    def port(self, name: str) -> int:
        return self.inputs.index(name)


def ripple_carry(width: int) -> Netlist:
    if width < 1:
        raise BadWidth(f"adder width must be at least 1, got {width}")
    names = [f"x{i}" for i in range(width)] + [f"y{i}" for i in range(width)] + ["cin"]
    b = _PortBuilder(names)
    carry = b.port("cin")
    sums: list[int] = []
    for i in range(width):
        x = b.port(f"x{i}")
        y = b.port(f"y{i}")
        half = b.gate("XOR", x, y)
        sums.append(b.gate("XOR", half, carry))
        carry = b.gate("OR", b.gate("AND", x, y), b.gate("AND", carry, half))
    return b.finish(sums + [carry])


def exhaustive_equiv(a: Netlist, b: Netlist) -> EquivResult:
    """Compare on all assignments; the witness, if any, is the
    lexicographically least differing one (ports sorted, 0 before 1)."""
    if sorted(a.inputs) != sorted(b.inputs):
        raise PortMismatch(
            f"port names differ: {sorted(a.inputs)} vs {sorted(b.inputs)}"
        )
    if len(a.outputs) != len(b.outputs):
        raise PortMismatch(
            f"output counts differ: {len(a.outputs)} vs {len(b.outputs)}"
        )
    names = sorted(a.inputs)
    if len(names) > 20:
        raise TooManyInputs(f"{len(names)} inputs exceed the 20-input limit")
    for mask in range(1 << len(names)):
        assignment = {
            name: (mask >> (len(names) - 1 - i)) & 1 for i, name in enumerate(names)
        }
        if simulate(a, assignment) != simulate(b, assignment):
            return EquivResult(False, assignment)
    return EquivResult(True)


# The error the old truth table raised; errors.py no longer has it.
class TooManyVariables(EqError):
    code = "TooManyVariables"


def derive_truth_table(f: Term) -> list[tuple[dict[str, bool], bool]]:
    """One row per assignment; variables in sorted order, true first."""
    net = circuits.formula_to_circuit(f)
    names = net.inputs
    if len(names) > 20:
        raise TooManyVariables(f"{len(names)} variables exceed the 20-variable limit")
    rows: list[tuple[dict[str, bool], bool]] = []
    for values in product((True, False), repeat=len(names)):
        (bit,) = circuits.simulate(net, {n: int(v) for n, v in zip(names, values)})
        rows.append((dict(zip(names, values)), bit == 1))
    return rows


# The outcomes of comparing two arguments' integer coercions (-1, 0, 1) at
# which each relation holds; swapping the arguments flips the relation.
_HOLDS = {"<": (-1,), "<=": (-1, 0), "=": (0,), ">": (1,), ">=": (0, 1)}
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">": "<", ">=": "<="}
_ORDERING = (-1, 0, 1)
_BOOLEAN = (False, True)
_CONNECTIVES = {
    "not": lambda a: not a,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "implies": lambda a, b: not a or b,
    "xor": lambda a, b: a != b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "if": lambda c, a, b: a if c else b,
}


def _atom(t: Term) -> tuple[object, tuple]:
    """The variable an atom reads and the values of it at which it holds."""
    if isinstance(t, App) and t.op in _HOLDS:
        a, b = t.args
        op = t.op
        if print_term(b) < print_term(a):
            a, b, op = b, a, _FLIP[op]
        return (a, b), _HOLDS[op]
    return t, (True,)


def _guard_table(
    guards: list[Term | None], prov: DefEnv, atoms: frozenset[str] = frozenset()
) -> list[tuple[bool, ...]] | None:
    """Each guard's truth under every assignment to the atoms left after
    simplification, or None past _MAX_ASSIGNMENTS.  None as a guard holds."""
    terms = [T_LIT if g is None else _simplify(g, prov, atoms) for g in guards]
    found: dict[Term, tuple] = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if _shape(t, atoms) is not None:
            continue
        if isinstance(t, App) and t.op in _CONNECTIVES:
            stack.extend(t.args)
        elif t not in found:
            found[t] = _atom(t)
    domains = {key: _ORDERING if isinstance(key, tuple) else _BOOLEAN for key, _ in found.values()}
    if math.prod(len(values) for values in domains.values()) > _MAX_ASSIGNMENTS:
        return None

    def holds(t: Term, assignment: dict) -> bool:
        shape = _shape(t, atoms)
        if shape is not None:
            return shape != "nil"
        if isinstance(t, App) and t.op in _CONNECTIVES:
            return _CONNECTIVES[t.op](*(holds(a, assignment) for a in t.args))
        key, values = found[t]
        return assignment[key] in values

    table = []
    for combo in itertools.product(*domains.values()):
        assignment = dict(zip(domains, combo))
        table.append(tuple(holds(t, assignment) for t in terms))
    return table


def guards_exclusive(g1: Term | None, g2: Term | None, prov: DefEnv) -> bool:
    """True when no input makes both guards hold (None stands for no guard)."""
    table = _guard_table([g1, g2], prov)
    return table is not None and not any(a and b for a, b in table)


def guards_exhaustive(
    guards: list[Term | None], prov: DefEnv, atoms: frozenset[str] = frozenset()
) -> bool:
    """True when every input makes at least one guard hold."""
    table = _guard_table(guards, prov, atoms)
    return table is not None and all(any(row) for row in table)


# -- comparisons ----------------------------------------------------------------


def _random_netlist(rng: random.Random) -> Netlist:
    """Every gate kind at least once, in random order, with random earlier
    arguments; one netlist in five is closed (no input ports)."""
    k = 0 if rng.random() < 0.2 else rng.randint(1, 4)
    kinds = list(GATE_ARITY) + [rng.choice(list(GATE_ARITY)) for _ in range(rng.randint(0, 8))]
    rng.shuffle(kinds)
    if k == 0:
        kinds.insert(0, rng.choice(["CONST0", "CONST1"]))
    gates = []
    for kind in kinds:
        nodes = k + len(gates)
        gates.append(Gate(kind, tuple(rng.randrange(nodes) for _ in range(GATE_ARITY[kind]))))
    total = k + len(gates)
    outputs = [rng.randrange(total) for _ in range(rng.randint(1, 3))]
    return Netlist([f"p{i}" for i in range(k)], gates, outputs)


def _lowered(lower, net: Netlist, basis: str) -> str:
    try:
        return json.dumps(lower(net, basis).to_json(), sort_keys=True)
    except CircuitError as exc:
        return f"{type(exc).__name__}: {exc.message}"


@pytest.mark.parametrize("basis", BASES)
def test_to_basis_matches_gate_by_gate_lowering(basis):
    rng = random.Random(f"to_basis-{basis}")
    refused = 0
    for _ in range(500):
        net = _random_netlist(rng)
        want = _lowered(to_basis, net, basis)
        assert _lowered(circuits.to_basis, net, basis) == want, net.to_json()
        refused += want.startswith("CircuitError")
    # only closed netlists are refused, and only by the nand basis
    assert (refused > 0) == (basis == "nand")


def test_ripple_carry_matches_port_lookup_adder():
    for width in range(1, 33):
        assert circuits.ripple_carry(width).to_json() == ripple_carry(width).to_json()


def _mutant(net: Netlist, rng: random.Random) -> Netlist:
    """net with one gate replaced by a different one over earlier nodes."""
    i = rng.randrange(len(net.gates))
    nodes = len(net.inputs) + i
    while True:
        kind = rng.choice(list(GATE_ARITY))
        if GATE_ARITY[kind] and not nodes:
            continue
        gate = Gate(kind, tuple(rng.randrange(nodes) for _ in range(GATE_ARITY[kind])))
        if gate != net.gates[i]:
            break
    return Netlist(net.inputs, net.gates[:i] + [gate] + net.gates[i + 1 :], net.outputs)


def test_exhaustive_equiv_matches_the_mask_loop():
    rng = random.Random("exhaustive_equiv")
    differing = 0
    for _ in range(400):
        net = _random_netlist(rng)
        mutant = _mutant(net, rng)
        assert circuits.exhaustive_equiv(net, net) == exhaustive_equiv(net, net) == EquivResult(True)
        want = exhaustive_equiv(net, mutant)
        assert circuits.exhaustive_equiv(net, mutant) == want, (net.to_json(), mutant.to_json())
        assert circuits.exhaustive_equiv(mutant, net) == exhaustive_equiv(mutant, net)
        differing += not want.equivalent
    # Many mutated gates feed no output; still, both results occur often.
    assert 50 < differing < 350


def _random_formula(rng: random.Random, names: list[str], depth: int) -> Term:
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(names if names and rng.random() < 0.9 else ["t", "nil"])
        return SymLit(leaf) if leaf in ("t", "nil") else Var(leaf)
    op = rng.choice(["not", "and", "or", "implies", "xor", "nand", "nor"])
    arity = 1 if op == "not" else 2
    return App(op, tuple(_random_formula(rng, names, depth - 1) for _ in range(arity)))


def test_derive_truth_table_matches_the_product_loop():
    rng = random.Random("derive_truth_table")
    widths = set()
    for _ in range(60):
        names = [f"v{i}" for i in range(rng.randint(0, 10))]
        f = _random_formula(rng, names, 6)
        assert prover.derive_truth_table(f) == derive_truth_table(f), print_term(f)
        widths.add(len(circuits.formula_to_circuit(f).inputs))
    assert {0, 10} <= widths


def test_simplify_decides_connectives_as_the_truth_functions_did():
    """A connective whose argument shapes are all known folds to the value
    the replaced truth functions gave.  x is known to be an atom, so only
    the all-nil cases are ground (and evaluated); the fold decides the rest."""
    env = DefEnv()
    known = {Var("x"): True, App("cons", (Var("x"), Var("x"))): True, NIL_LIT: False}
    for op in ("not", "and", "or", "implies", "xor", "nand", "nor"):
        for args in product(known, repeat=1 if op == "not" else 2):
            want = T_LIT if _CONNECTIVES[op](*(known[a] for a in args)) else NIL_LIT
            assert _simplify(App(op, args), env, frozenset({"x"})) == want, (op, args)


@settings(max_examples=300)
@given(_guard_sets())
def test_guard_decision_matches_the_guard_table(case):
    _, texts = case
    env = DefEnv()
    guards = [parse_term(text) for text in texts]
    assert admissibility.guards_exclusive(guards[0], guards[1], env) == guards_exclusive(
        guards[0], guards[1], env
    ), texts
    assert admissibility.guards_exhaustive(guards, env) == guards_exhaustive(guards, env), texts


def _combined(rng: random.Random, atoms: list[Term]) -> Term:
    g, *rest = atoms
    for part in rest:
        op = rng.choice(["and", "or", "implies", "xor", "if"])
        g = App("if", (part, g, App("not", (g,)))) if op == "if" else App(op, (g, part))
    return App("not", (g,)) if rng.random() < 0.3 else g


def test_guard_decision_matches_on_every_pair_of_relations():
    """Two relations over one pair, each in either argument order, and a
    conditional over three."""
    env = DefEnv()
    x, y = Var("x"), Var("y")
    relations = [App(op, args) for op in _HOLDS for args in ((x, y), (y, x))]
    for g1, g2 in product(relations, repeat=2):
        assert admissibility.guards_exclusive(g1, g2, env) == guards_exclusive(g1, g2, env)
        assert admissibility.guards_exhaustive([g1, g2], env) == guards_exhaustive([g1, g2], env)
    for test, then, other in product(relations, repeat=3):
        g = [App("if", (test, then, other))]
        assert admissibility.guards_exhaustive(g, env) == guards_exhaustive(g, env), g


def _straddling_guards(rng: random.Random, pairs: int, booleans: int) -> list[Term]:
    """Guards over ``pairs`` relations (each over its own two variables, in
    either order) and ``booleans`` boolean atoms, every atom used once:
    2 or 3 guards that share out the atoms, or one guard and its negation."""
    atoms = []
    for i in range(pairs):
        x, y = Var(f"x{i}"), Var(f"y{i}")
        if rng.random() < 0.5:
            x, y = y, x
        atoms.append(App(rng.choice(list(_HOLDS)), (x, y)))
    atoms += [App("consp", (Var(f"z{j}"),)) for j in range(booleans)]
    rng.shuffle(atoms)
    if len(atoms) == 1 or rng.random() < 0.3:
        g = _combined(rng, atoms)
        return [g, App("not", (g,))]
    count = rng.randint(2, min(3, len(atoms)))
    return [_combined(rng, atoms[k::count]) for k in range(count)]


def test_guard_decision_matches_the_guard_table_around_the_cap():
    """3^7 orderings are within the cap and decided, 3^8 are past it."""
    rng = random.Random("guard cap")
    env = DefEnv()
    seen = set()
    for pairs in range(1, 10):
        for booleans in range(3):
            for _ in range(2):
                guards = _straddling_guards(rng, pairs, booleans)
                exclusive = guards_exclusive(guards[0], guards[1], env)
                exhaustive = guards_exhaustive(guards, env)
                assert admissibility.guards_exclusive(guards[0], guards[1], env) == exclusive, guards
                assert admissibility.guards_exhaustive(guards, env) == exhaustive, guards
                decided = 3**pairs * 2**booleans <= _MAX_ASSIGNMENTS
                assert (_guard_table(guards, env) is not None) == decided
                seen.add((decided, exclusive, exhaustive))
    assert {(True, True, True), (True, False, False), (False, False, False)} <= seen
