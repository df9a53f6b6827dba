"""Netlists, basis rewrites, adders, and bignum bit vectors.

Circuit semantics are cross-checked against formula evaluation, and
bignum arithmetic against host integers; both routes must agree.
"""

import itertools
import json

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from eqthink import circuits
from eqthink.circuits import (
    BASES,
    Gate,
    Netlist,
    big_add,
    big_mul,
    check_bits,
    exhaustive_equiv,
    formula_to_circuit,
    from_bits,
    ripple_carry,
    simulate,
    to_basis,
    to_bits,
)
from eqthink.errors import (
    BadWidth,
    CircuitError,
    CycleDetected,
    MissingInput,
    NonBooleanOperator,
    NonCanonicalInput,
    PortMismatch,
    TooManyInputs,
)
from eqthink.evaluator import evaluate
from eqthink.syntax import App, parse_term
from eqthink.values import NIL, T

formulas = st.recursive(
    st.sampled_from(["x", "y", "z", "w", "t", "nil"]).map(parse_term),
    lambda inner: st.one_of(
        st.tuples(
            st.sampled_from(["and", "or", "xor", "nand", "nor", "implies"]), inner, inner
        ).map(lambda t: App(t[0], (t[1], t[2]))),
        inner.map(lambda t: App("not", (t,))),
    ),
    max_leaves=12,
)


def _all_assignments(names):
    for row in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, row))


# -- netlist construction and validation -------------------------------------


def test_netlist_validation_errors():
    with pytest.raises(CircuitError):
        Netlist(("x", "x"), (), (0,))  # duplicate port
    with pytest.raises(CircuitError):
        Netlist(("x",), (Gate("FROB", (0,)),), (1,))  # unknown kind
    with pytest.raises(CircuitError):
        Netlist(("x",), (Gate("NOT", (0, 0)),), (1,))  # bad arity
    with pytest.raises(CycleDetected):
        Netlist(("x",), (Gate("NOT", (2,)), Gate("NOT", (1,))), (1,))
    with pytest.raises(CircuitError):
        Netlist(("x",), (), ())  # no outputs
    with pytest.raises(CircuitError):
        Netlist(("x",), (), (7,))  # dangling output


def test_simulate_gates():
    n = Netlist(("a", "b"), (Gate("NAND", (0, 1)),), (2,))
    assert simulate(n, {"a": 1, "b": 1}) == [0]
    assert simulate(n, {"a": 0, "b": 1}) == [1]
    with pytest.raises(MissingInput):
        simulate(n, {"a": 1})
    with pytest.raises(MissingInput):
        simulate(n, {"a": 1, "b": 0, "zz": 1})
    with pytest.raises(CircuitError):
        simulate(n, {"a": 2, "b": 0})


def test_constants_need_no_inputs():
    n = Netlist((), (Gate("CONST1", ()), Gate("NOT", (0,))), (0, 1))
    assert simulate(n, {}) == [1, 0]


# -- formula conversion -------------------------------------------------------


@given(formulas)
def test_circuit_agrees_with_formula_evaluation(f):
    net = formula_to_circuit(f)
    for assignment in _all_assignments(net.inputs):
        bindings = {k: (T if v else NIL) for k, v in assignment.items()}
        want = evaluate(f, bindings, None) is not NIL
        assert simulate(net, assignment) == [1 if want else 0]


def test_formula_rejects_non_boolean():
    for src in ["(+ x y)", "(cons x y)", "(or x 3)", "(and x 'pig)"]:
        with pytest.raises(NonBooleanOperator):
            formula_to_circuit(parse_term(src))


def test_input_ports_sorted_and_shared_subterms_cached():
    net = formula_to_circuit(parse_term("(or (and y x) (and y x))"))
    assert tuple(net.inputs) == ("x", "y")
    assert len(net.gates) == 2  # AND cached, one OR on top


# -- equivalence --------------------------------------------------------------


def test_equiv_reports_least_witness():
    a = formula_to_circuit(parse_term("(and x y)"))
    b = formula_to_circuit(parse_term("(nand x y)"))
    result = exhaustive_equiv(a, b)
    assert not result.equivalent
    assert result.witness == {"x": 0, "y": 0}


def test_equiv_requires_same_ports_and_width():
    a = formula_to_circuit(parse_term("(and x y)"))
    c = formula_to_circuit(parse_term("(and x z)"))
    with pytest.raises(PortMismatch):
        exhaustive_equiv(a, c)
    two_out = Netlist(("x", "y"), (Gate("AND", (0, 1)),), (2, 2))
    with pytest.raises(PortMismatch):
        exhaustive_equiv(a, two_out)


def test_equiv_input_budget():
    names = tuple(f"v{i:02d}" for i in range(21))
    big = Netlist(names, (Gate("OR", (0, 1)),), (21,))
    with pytest.raises(TooManyInputs):
        exhaustive_equiv(big, big)


def test_equiv_stops_at_the_first_difference(monkeypatch):
    """Two 20-input netlists that differ at the all-zero assignment, the
    first in scan order, cost one simulation each."""
    calls = []
    monkeypatch.setattr(circuits, "simulate", lambda n, a: calls.append(a) or simulate(n, a))
    names = tuple(f"v{i:02d}" for i in range(20))
    a = Netlist(names, (Gate("OR", (0, 1)),), (20,))
    b = Netlist(names, (Gate("NOR", (0, 1)),), (20,))
    result = exhaustive_equiv(a, b)
    assert result.witness == dict.fromkeys(names, 0)
    assert len(calls) == 2


# -- bases --------------------------------------------------------------------


@given(formulas, st.sampled_from(BASES))
def test_basis_rewrite_preserves_behavior(f, basis):
    net = formula_to_circuit(f)
    # lowering a closed formula needs a port to synthesize constants from
    assume(net.inputs)
    lowered = to_basis(net, basis)
    allowed = {"nand": {"NAND"}, "impl": {"IMPL", "CONST0"}}[basis]
    assert {g.kind for g in lowered.gates} <= allowed
    assert exhaustive_equiv(net, lowered).equivalent


def test_closed_netlist_lowers_only_to_impl():
    # No input port to build nand's constants from; impl has CONST0.
    closed = Netlist((), (Gate("CONST1", ()), Gate("NOT", (0,))), (0, 1))
    with pytest.raises(CircuitError) as exc:
        to_basis(closed, "nand")
    assert exc.value.message == "nand basis needs at least one input to build constants"
    lowered = to_basis(closed, "impl")
    assert {g.kind for g in lowered.gates} == {"IMPL", "CONST0"}
    assert exhaustive_equiv(closed, lowered).equivalent


def test_basis_gate_budget_for_absorption():
    net = formula_to_circuit(parse_term("(and (or x y) y)"))
    assert len(to_basis(net, "nand").gates) == 5
    assert len(to_basis(net, "impl").gates) == 6


def test_unknown_basis_rejected():
    net = formula_to_circuit(parse_term("(and x y)"))
    with pytest.raises(CircuitError):
        to_basis(net, "xor")


# -- adders -------------------------------------------------------------------


def test_ripple_carry_small_widths_exhaustive():
    for width in (1, 2, 3, 4):
        net = ripple_carry(width)
        for x in range(2**width):
            for y in range(2**width):
                for cin in (0, 1):
                    assignment = {f"x{i}": (x >> i) & 1 for i in range(width)}
                    assignment |= {f"y{i}": (y >> i) & 1 for i in range(width)}
                    assignment["cin"] = cin
                    bits = simulate(net, assignment)
                    got = sum(b << i for i, b in enumerate(bits))
                    assert got == x + y + cin, (width, x, y, cin)


def test_ripple_carry_rejects_bad_width():
    with pytest.raises(BadWidth):
        ripple_carry(0)
    with pytest.raises(BadWidth):
        ripple_carry(-3)


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    net = ripple_carry(3)
    again = Netlist.from_json(json.loads(json.dumps(net.to_json(), sort_keys=True)))
    assert again.to_json() == net.to_json()
    assert exhaustive_equiv(net, again).equivalent


def test_to_dot_mentions_every_gate():
    net = formula_to_circuit(parse_term("(xor x y)"))
    dot = net.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("XOR") >= 1


# -- bignum bit vectors -------------------------------------------------------


def test_check_bits_rules():
    check_bits([0])
    check_bits([1, 0, 1])
    for bad in ([], [2], [1, True], [1, 0], [0, 0]):
        with pytest.raises(NonCanonicalInput):
            check_bits(bad)


@given(st.integers(0, 10**40))
def test_bits_round_trip(n):
    assert from_bits(to_bits(n)) == n
    check_bits(to_bits(n))


def _check_big_op(op, a, b, want):
    bits_a, bits_b = to_bits(a), to_bits(b)
    out = op(bits_a, bits_b)
    assert from_bits(out) == want
    # the carry loop works in place; neither operand may change
    assert bits_a == to_bits(a) and bits_b == to_bits(b)


# Long carry chains (2^k - 1 plus 1), zero on either side, and operands of
# very different lengths.
@example(2**600 - 1, 1)
@example(1, 2**600 - 1)
@example(2**64 - 1, 2**64 - 1)
@example(0, 0)
@example(0, 2**600 - 1)
@example(2**600 - 1, 0)
@example(1, 2**600)
@example(2**600 + 2**599, 3)
@given(st.integers(0, 10**30), st.integers(0, 10**30))
def test_big_add_matches_integers(a, b):
    _check_big_op(big_add, a, b, a + b)


@example(2**600 - 1, 2**600 - 1)
@example(2**64 - 1, 2**64 - 1)
@example(0, 0)
@example(0, 2**600 - 1)
@example(2**600 - 1, 0)
@example(1, 2**600 - 1)
@example(2**600 - 1, 3)
@example(2**600, 2**599 + 1)
@given(st.integers(0, 10**20), st.integers(0, 10**20))
def test_big_mul_matches_integers(a, b):
    _check_big_op(big_mul, a, b, a * b)


def test_big_ops_reject_non_canonical():
    with pytest.raises(NonCanonicalInput):
        big_add([1, 0], [1])
    with pytest.raises(NonCanonicalInput):
        big_mul([1, 0], [1])
    with pytest.raises(NonCanonicalInput):
        big_mul([1], [])
