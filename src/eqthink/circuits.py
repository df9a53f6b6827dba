"""Gate-level netlists, formula conversion, basis rewrites, adders, bignums.

A netlist is a DAG: input ports occupy node ids 0..k-1 in declaration
order, gates follow, and every gate argument references a strictly
smaller node id, so construction order is topological order.  Outputs
are an ordered list of node ids.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .syntax import App, SymLit, Term, Var, subterms

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

_OP_TO_GATE = {
    "and": "AND",
    "or": "OR",
    "not": "NOT",
    "nand": "NAND",
    "nor": "NOR",
    "xor": "XOR",
    "implies": "IMPL",
}


@dataclass(frozen=True)
class Gate:
    kind: str
    args: tuple[int, ...]


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
        """The netlist ``to_json`` wrote; ``ValueError`` if ``data`` lacks its shape."""
        if not isinstance(data, dict) or not {"inputs", "gates", "outputs"} <= data.keys():
            raise ValueError('netlist JSON must be an object with "inputs", "gates" and "outputs"')
        inputs, gates = data["inputs"], data["gates"]
        if not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs):
            raise ValueError("netlist inputs must be a list of port names")
        if not isinstance(gates, list) or not all(
            isinstance(g, dict) and isinstance(g.get("kind"), str) for g in gates
        ):
            raise ValueError('netlist gates must be a list of objects with a "kind" name')
        return cls(
            inputs,
            [Gate(g["kind"], _node_ids(g.get("args"), "gate args")) for g in gates],
            list(_node_ids(data["outputs"], "outputs")),
        )

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

    def port(self, name: str) -> int:
        return self.inputs.index(name)

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
    out = _build_formula(f, b)
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
            if t.op not in _OP_TO_GATE:
                raise NonBooleanOperator(f"{t.op} is not a boolean connective", t.loc)
        else:
            raise NonBooleanOperator("integer literals are not boolean formulas", t.loc)
    return out


def _build_formula(f: Term, b: _Builder) -> int:
    if isinstance(f, Var):
        return b.port(f.name)
    if isinstance(f, SymLit):
        return b.gate("CONST1" if f.name == "t" else "CONST0")
    args = [_build_formula(a, b) for a in f.args]
    return b.gate(_OP_TO_GATE[f.op], *args)


# ---------------------------------------------------------------------------
# Exhaustive equivalence


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    witness: dict[str, int] | None = None

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


# ---------------------------------------------------------------------------
# Universality bases

BASES = ("nand", "impl")


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


# ---------------------------------------------------------------------------
# Ripple-carry adder


def ripple_carry(width: int) -> Netlist:
    """n-bit adder: inputs x0.., y0.., cin; outputs s0.., cout.

    Cells share the x^y gate between the sum and carry expressions:
    s = (x^y)^c and c' = (x&y) | (c&(x^y)).
    """
    if width < 1:
        raise BadWidth(f"adder width must be at least 1, got {width}")
    names = [f"x{i}" for i in range(width)] + [f"y{i}" for i in range(width)] + ["cin"]
    b = _Builder(names)
    carry = b.port("cin")
    sums: list[int] = []
    for i in range(width):
        x = b.port(f"x{i}")
        y = b.port(f"y{i}")
        half = b.gate("XOR", x, y)
        sums.append(b.gate("XOR", half, carry))
        carry = b.gate("OR", b.gate("AND", x, y), b.gate("AND", carry, half))
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
