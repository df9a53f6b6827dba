"""Lowerings and adders against the gate-by-gate builders they replaced.

``_NandOps``, ``_ImplOps``, the ``to_basis`` that drove them and the
``ripple_carry`` that looked ports up by name are kept here verbatim.  The
lowering tables and formula-built adder cells must add the same gates in
the same order, so every netlist is byte-identical to theirs.
"""

import json
import random

import pytest

from eqthink import circuits
from eqthink.circuits import BASES, GATE_ARITY, Gate, Netlist, _Builder
from eqthink.errors import BadWidth, CircuitError

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
