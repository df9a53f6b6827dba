"""Gate-level netlists, formula conversion, basis rewrites, adders, bignums.

A netlist is a DAG: input ports occupy node ids 0..k-1 in declaration
order, gates follow, and every gate argument references a strictly
smaller node id, so construction order is topological order.  Outputs
are an ordered list of node ids.

``CONNECTIVES`` is the one list of boolean connectives and ``truth_table``
the one enumeration of assignments; equivalence, the prover's truth tables
and admission's guard decision all build on them.

Gates are built from formulas only.  A basis rewrite is a table giving
each gate kind outside the basis as a formula over its arguments ``a``
and ``b`` (nand builds constants from ``p``, the first input port), and a
ripple-carry cell is its sum and carry formulas.  The builder shares
structurally equal gates, so a repeated subformula costs one gate.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .errors import (
    BadWidth,
    CircuitError,
    CycleDetected,
    MissingInput,
    NonBooleanOperator,
    NonCanonicalInput,
    PortMismatch,
    TooManyInputs,
)
from .records import Record, set_field
from .syntax import App, SymLit, Term, Var, parse_term, subterms

GATE_ARITY = {
    "AND": 2,
    "OR": 2,
    "NOT": 1,
    "NAND": 2,
    "NOR": 2,
    "XOR": 2,
    "IMPL": 2,
    "CONST0": 0,
    "CONST1": 0,
}

_GATE_FN = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "NAND": lambda a, b: 1 - (a & b),
    "NOR": lambda a, b: 1 - (a | b),
    "XOR": lambda a, b: a ^ b,
    "IMPL": lambda a, b: (1 - a) | b,
}

CONNECTIVES = {
    "and": "AND",
    "or": "OR",
    "not": "NOT",
    "nand": "NAND",
    "nor": "NOR",
    "xor": "XOR",
    "implies": "IMPL",
}

# Each gate kind as a formula over its arguments a and b.
_GATE_FORMULA: dict[str, Term] = {
    gate: App(op, (Var("a"), Var("b"))[: GATE_ARITY[gate]]) for op, gate in CONNECTIVES.items()
} | {"CONST1": SymLit("t"), "CONST0": SymLit("nil")}


class Gate(Record):
    __slots__ = _fields = ("kind", "args")

    def __init__(self, kind: str, args: tuple[int, ...]):
        set_field(self, "kind", kind)
        set_field(self, "args", args)


class Netlist:
    def __init__(self, inputs: list[str], gates: list[Gate], outputs: list[int]):
        if len(set(inputs)) != len(inputs):
            raise CircuitError("duplicate input port name")
        self.inputs = list(inputs)
        self.gates = list(gates)
        self.outputs = list(outputs)
        k = len(self.inputs)
        for i, g in enumerate(self.gates):
            if g.kind not in GATE_ARITY:
                raise CircuitError(f"unknown gate kind {g.kind}")
            if len(g.args) != GATE_ARITY[g.kind]:
                raise CircuitError(f"gate {k + i} ({g.kind}) has wrong arity")
            for a in g.args:
                if a < 0 or a >= k + len(self.gates):
                    raise CircuitError(f"gate {k + i} references missing node {a}")
                if a >= k + i:
                    raise CycleDetected(f"gate {k + i} references node {a} ahead of it")
        for o in self.outputs:
            if o < 0 or o >= k + len(self.gates):
                raise CircuitError(f"output references missing node {o}")
        if not self.outputs:
            raise CircuitError("netlist needs at least one output")

    def to_json(self) -> dict:
        return {
            "inputs": list(self.inputs),
            "gates": [{"kind": g.kind, "args": list(g.args)} for g in self.gates],
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json(cls, data) -> "Netlist":
        """The netlist ``to_json`` wrote; ``ValueError`` if ``data`` lacks its
        shape or breaks a rule of the constructor."""
        if not isinstance(data, dict) or not {"inputs", "gates", "outputs"} <= data.keys():
            raise ValueError('netlist JSON must be an object with "inputs", "gates" and "outputs"')
        inputs, gates = data["inputs"], data["gates"]
        if not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs):
            raise ValueError("netlist inputs must be a list of port names")
        if not isinstance(gates, list) or not all(
            isinstance(g, dict) and isinstance(g.get("kind"), str) for g in gates
        ):
            raise ValueError('netlist gates must be a list of objects with a "kind" name')
        try:
            return cls(
                inputs,
                [Gate(g["kind"], _node_ids(g.get("args"), "gate args")) for g in gates],
                list(_node_ids(data["outputs"], "outputs")),
            )
        except CircuitError as exc:  # well-typed, yet no netlist
            raise ValueError(exc.message) from None

    def to_dot(self) -> str:
        lines = ["digraph netlist {", "  rankdir=LR;"]
        for i, name in enumerate(self.inputs):
            lines.append(f'  n{i} [shape=box, label="{name}"];')
        k = len(self.inputs)
        for i, g in enumerate(self.gates):
            lines.append(f'  n{k + i} [label="{g.kind}"];')
            for a in g.args:
                lines.append(f"  n{a} -> n{k + i};")
        for j, o in enumerate(self.outputs):
            lines.append(f'  out{j} [shape=plaintext, label="out{j}"];')
            lines.append(f"  n{o} -> out{j};")
        lines.append("}")
        return "\n".join(lines)


def _node_ids(ids, what: str) -> tuple[int, ...]:
    if not isinstance(ids, list) or not all(type(i) is int for i in ids):
        raise ValueError(f"netlist {what} must be a list of node ids")
    return tuple(ids)


class _Builder:
    """Netlist under construction with structural sharing of gates."""

    def __init__(self, inputs: list[str]):
        self.inputs = list(inputs)
        self.gates: list[Gate] = []
        self._cache: dict[tuple, int] = {}

    def gate(self, kind: str, *args: int) -> int:
        key = (kind,) + args
        node = self._cache.get(key)
        if node is None:
            self.gates.append(Gate(kind, args))
            node = len(self.inputs) + len(self.gates) - 1
            self._cache[key] = node
        return node

    def finish(self, outputs: list[int]) -> Netlist:
        return Netlist(self.inputs, self.gates, outputs)


def simulate(n: Netlist, assignment: dict[str, int]) -> list[int]:
    missing = [p for p in n.inputs if p not in assignment]
    if missing:
        raise MissingInput(f"no value for port(s) {', '.join(missing)}")
    unknown = [p for p in assignment if p not in n.inputs]
    if unknown:
        raise MissingInput(f"value for unknown port(s) {', '.join(unknown)}")
    values: list[int] = []
    for p in n.inputs:
        bit = assignment[p]
        if bit not in (0, 1):
            raise CircuitError(f"port {p} must be 0 or 1")
        values.append(bit)
    for g in n.gates:
        if g.kind == "CONST0":
            values.append(0)
        elif g.kind == "CONST1":
            values.append(1)
        elif g.kind == "NOT":
            values.append(1 - values[g.args[0]])
        else:
            values.append(_GATE_FN[g.kind](values[g.args[0]], values[g.args[1]]))
    return [values[o] for o in n.outputs]


# ---------------------------------------------------------------------------
# Formula <-> circuit


def formula_to_circuit(f: Term) -> Netlist:
    names = sorted(_formula_vars(f))
    b = _Builder(names)
    out = _build_formula(f, b, {name: i for i, name in enumerate(names)}, {})
    return b.finish([out])


def _formula_vars(f: Term) -> set[str]:
    out: set[str] = set()
    for t in subterms(f):
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, SymLit):
            if t.name not in ("t", "nil"):
                raise NonBooleanOperator(f"{t.name} is not a boolean constant", t.loc)
        elif isinstance(t, App):
            if t.op not in CONNECTIVES:
                raise NonBooleanOperator(f"{t.op} is not a boolean connective", t.loc)
        else:
            raise NonBooleanOperator("integer literals are not boolean formulas", t.loc)
    return out


def _build_formula(f: Term, b: _Builder, nodes: dict[str, int], lowering: dict[str, Term]) -> int:
    """Add f's gates to b and return its node; variables name the nodes in
    ``nodes``.  A gate kind in ``lowering`` is built as its formula there,
    applied to the already built arguments."""
    if isinstance(f, Var):
        return nodes[f.name]
    if isinstance(f, SymLit):
        kind, args = ("CONST1" if f.name == "t" else "CONST0"), []
    else:
        kind, args = CONNECTIVES[f.op], [_build_formula(a, b, nodes, lowering) for a in f.args]
    formula = lowering.get(kind)
    if formula is None:
        return b.gate(kind, *args)
    return _build_formula(formula, b, dict(zip("ab", args), p=0), lowering)


# ---------------------------------------------------------------------------
# Truth tables and exhaustive equivalence


def truth_table(n: Netlist) -> Iterator[tuple[dict[str, int], list[int]]]:
    """Each assignment to n's ports with n's outputs under it, in
    lexicographic order (ports sorted, 0 before 1); at most 20 ports."""
    names = sorted(n.inputs)
    if len(names) > 20:
        raise TooManyInputs(f"{len(names)} inputs exceed the 20-input limit")
    for bits in product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, bits))
        yield assignment, simulate(n, assignment)


class EquivResult(Record):
    __slots__ = _fields = ("equivalent", "witness")

    def __init__(self, equivalent: bool, witness: dict[str, int] | None = None):
        set_field(self, "equivalent", equivalent)
        set_field(self, "witness", witness)

    def to_json(self):
        return {"equivalent": self.equivalent, "witness": self.witness}


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
    for (assignment, out_a), (_, out_b) in zip(truth_table(a), truth_table(b)):
        if out_a != out_b:
            return EquivResult(False, assignment)
    return EquivResult(True)


# ---------------------------------------------------------------------------
# Universality bases
#
# A formula may use the other kinds of its own table.  nand's XOR builds
# its inner (nand a b) once; impl's XOR is the xor-def lemma.

_LOWERINGS: dict[str, dict[str, Term]] = {
    basis: {kind: parse_term(src) for kind, src in table.items()}
    for basis, table in {
        "nand": {
            "NOT": "(nand a a)",
            "AND": "(not (nand a b))",
            "OR": "(nand (not a) (not b))",
            "NOR": "(not (or a b))",
            "XOR": "(nand (nand a (nand a b)) (nand b (nand a b)))",
            "IMPL": "(nand a (not b))",
            "CONST1": "(nand p (not p))",
            "CONST0": "(not t)",
        },
        "impl": {
            "NOT": "(implies a nil)",
            "OR": "(implies (not a) b)",
            "AND": "(not (implies a (not b)))",
            "NAND": "(implies a (not b))",
            "NOR": "(not (or a b))",
            "XOR": "(or (and a (not b)) (and (not a) b))",
            "CONST1": "(not nil)",
        },
    }.items()
}

BASES = tuple(_LOWERINGS)


def to_basis(n: Netlist, basis: str) -> Netlist:
    if basis not in BASES:
        raise CircuitError(f"unknown basis {basis!r} (expected nand or impl)")
    # A closed netlist starts with a constant, which nand builds from port p.
    if basis == "nand" and not n.inputs:
        raise CircuitError("nand basis needs at least one input to build constants")
    b = _Builder(list(n.inputs))
    mapped: list[int] = list(range(len(n.inputs)))
    for g in n.gates:
        args = dict(zip("ab", (mapped[x] for x in g.args)))
        mapped.append(_build_formula(_GATE_FORMULA[g.kind], b, args, _LOWERINGS[basis]))
    return b.finish([mapped[o] for o in n.outputs])


# ---------------------------------------------------------------------------
# Ripple-carry adder


_SUM = parse_term("(xor (xor x y) c)")
_CARRY = parse_term("(or (and x y) (and c (xor x y)))")


def ripple_carry(width: int) -> Netlist:
    """n-bit adder: inputs x0.., y0.., cin; outputs s0.., cout.

    Cell i is the sum and carry formulas over x = xi, y = yi and the
    carry c into it; the two share their (xor x y) gate.
    """
    if width < 1:
        raise BadWidth(f"adder width must be at least 1, got {width}")
    names = [f"x{i}" for i in range(width)] + [f"y{i}" for i in range(width)] + ["cin"]
    b = _Builder(names)
    carry = len(names) - 1
    sums: list[int] = []
    for i in range(width):
        cell = {"x": i, "y": width + i, "c": carry}
        sums.append(_build_formula(_SUM, b, cell, {}))
        carry = _build_formula(_CARRY, b, cell, {})
    return b.finish(sums + [carry])


# ---------------------------------------------------------------------------
# Bignum binary numerals (little-endian bit lists)

Bits = list


def check_bits(a: Bits) -> None:
    if not isinstance(a, list) or not a:
        raise NonCanonicalInput("a numeral is a non-empty list of bits")
    for bit in a:
        if bit not in (0, 1) or isinstance(bit, bool):
            raise NonCanonicalInput(f"bit {bit!r} is not 0 or 1")
    if len(a) > 1 and a[-1] == 0:
        raise NonCanonicalInput("numeral has a trailing zero")


def to_bits(n: int) -> Bits:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise NonCanonicalInput("numerals encode naturals only")
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n & 1)
        n >>= 1
    return out


def from_bits(a: Bits) -> int:
    check_bits(a)
    value = 0
    for bit in reversed(a):
        value = (value << 1) | bit
    return value


def _add_into(acc: Bits, a: Bits, shift: int) -> None:
    """Add a * 2**shift into acc in place.  Canonical operands keep acc
    canonical (a = [0] only at shift 0); the caller checks them."""
    end = shift + len(a)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    carry = 0
    for i, bit in enumerate(a, shift):
        total = acc[i] + bit + carry
        acc[i] = total & 1
        carry = total >> 1
    i = end
    while carry and i < len(acc):
        # bit + 1 leaves 1 - bit and carries the old bit
        carry = acc[i]
        acc[i] = 1 - carry
        i += 1
    if carry:
        acc.append(1)


def big_add(a: Bits, b: Bits) -> Bits:
    check_bits(a)
    check_bits(b)
    out = list(a)
    _add_into(out, b, 0)
    return out


def big_mul(a: Bits, b: Bits) -> Bits:
    """Shift-and-add: for each set bit of b, add a, shifted to that bit's
    position, into the accumulator."""
    check_bits(a)
    check_bits(b)
    if a == [0] or b == [0]:
        return [0]
    acc = [0]
    for i, bit in enumerate(b):
        if bit:
            _add_into(acc, a, i)
    return acc
