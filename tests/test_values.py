from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink.evaluator import evaluate
from eqthink.syntax import parse_term
from eqthink.values import (
    NIL,
    Pair,
    Symbol,
    T,
    from_json,
    from_list,
    is_true_list,
    print_value,
    to_json,
    to_list,
    value_compare,
    value_equal,
)

atoms = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from([Symbol(s) for s in ("a", "b", "nil", "t", "zebra")]),
)
values = st.recursive(atoms, lambda v: st.builds(Pair, v, v), max_leaves=12)


def test_symbols_are_interned():
    assert Symbol("foo") is Symbol("foo")
    assert Symbol("nil") is NIL
    assert Symbol("t") is T


def test_from_list_to_list_round_trip():
    items = [1, Symbol("a"), Pair(2, 3)]
    assert to_list(from_list(items)) == items
    assert from_list([]) is NIL


@given(st.lists(values, max_size=8))
def test_from_list_matches_pair_built_lists_without_pair_init(items):
    built = NIL
    for item in reversed(items):
        built = Pair(item, built)
    calls = []
    init = Pair.__init__

    def counting(self, head, tail):
        calls.append(head)
        init(self, head, tail)

    with mock.patch.object(Pair, "__init__", counting):
        made = from_list(items)
    assert calls == []
    assert made == built and hash(made) == hash(built)
    assert repr(made) == repr(built) and print_value(made) == print_value(built)


def test_is_true_list():
    assert is_true_list(NIL)
    assert is_true_list(from_list([1, 2]))
    assert not is_true_list(Pair(1, 2))
    assert not is_true_list(5)


def test_print_value_forms():
    assert print_value(NIL) == "nil"
    assert print_value(T) == "t"
    assert print_value(-3) == "-3"
    assert print_value(Symbol("a")) == "'a"
    assert print_value(from_list([1, 2, 3])) == "'(1 2 3)"
    assert print_value(Pair(1, 2)) == "(cons 1 2)"
    assert print_value(Pair(Symbol("a"), Pair(1, 2))) == "(cons 'a (cons 1 2))"
    assert print_value(from_list([Pair(1, 2)])) == "(cons (cons 1 2) nil)"


nested = st.recursive(
    atoms,
    lambda v: st.one_of(st.builds(Pair, v, v), st.lists(v, max_size=4).map(from_list)),
    max_leaves=12,
)


@given(nested)
def test_printed_values_read_back(v):
    assert value_equal(evaluate(parse_term(print_value(v))), v)


@given(values, values)
def test_value_equal_matches_compare(a, b):
    assert value_equal(a, b) == (value_compare(a, b) == 0)


@given(values, values)
def test_compare_antisymmetric(a, b):
    assert value_compare(a, b) == -value_compare(b, a)


@given(values, values, values)
def test_compare_transitive(a, b, c):
    if value_compare(a, b) <= 0 and value_compare(b, c) <= 0:
        assert value_compare(a, c) <= 0


def _ranked_compare(a, b):
    """``value_compare`` as written before its rank tests were inlined: the
    differential oracle for the current one."""

    def rank(v):
        if isinstance(v, int):
            return 0
        if isinstance(v, Symbol):
            return 1
        return 2

    while True:
        ra, rb = rank(a), rank(b)
        if ra != rb:
            return -1 if ra < rb else 1
        if ra == 0:
            return -1 if a < b else (0 if a == b else 1)
        if ra == 1:
            return -1 if a.name < b.name else (0 if a.name == b.name else 1)
        c = _ranked_compare(a.head, b.head)
        if c != 0:
            return c
        a, b = a.tail, b.tail


@given(nested, nested)
def test_value_compare_matches_ranked_oracle(a, b):
    assert value_compare(a, b) == _ranked_compare(a, b)
    assert value_compare(b, a) == -value_compare(a, b)


@given(values)
def test_json_round_trip(v):
    assert value_equal(from_json(to_json(v)), v)


def test_json_encodings():
    assert to_json(from_list([1, 2])) == [1, 2]
    assert to_json(Symbol("cat")) == "cat"
    assert to_json(Pair(1, 2)) == {"cons": [1, 2]}
    assert value_equal(from_json("nil"), NIL)


def test_json_rejects_booleans():
    with pytest.raises(ValueError):
        from_json(True)
    with pytest.raises(ValueError):
        from_json([1, False])


def test_long_improper_list_prints_and_converts_in_one_walk():
    # 20k elements is deeper than the default recursion limit and slow
    # under a walk that retests the tail at every level.
    n = 20_000
    v = Symbol("end")
    for i in reversed(range(n)):
        v = Pair(i, v)
    assert print_value(v) == "".join(f"(cons {i} " for i in range(n)) + "'end" + ")" * n
    node = to_json(v)
    for i in range(n):
        assert node["cons"][0] == i
        node = node["cons"][1]
    assert node == "end"
