import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink import values as values_module
from eqthink.evaluator import evaluate
from eqthink.syntax import IntLit, parse_term, print_term
from eqthink.values import (
    NIL,
    Pair,
    Symbol,
    T,
    _spine,
    from_json,
    from_list,
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


def _old_print_value(v):
    """``print_value`` as it was before it visited each pair once, kept
    verbatim as the reference."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Symbol):
        return v.name if v in (T, NIL) else "'" + v.name
    datum = _old_datum(v)
    if datum is not None:
        return "'" + datum
    heads, end = _spine(v)
    opens = "".join(f"(cons {_old_print_value(h)} " for h in heads)
    return opens + _old_print_value(end) + ")" * len(heads)


def _old_datum(v):
    """The value inside a quoted literal, or None if it holds an improper pair."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Symbol):
        return v.name
    heads, end = _spine(v)
    if end is not NIL:
        return None
    items = [_old_datum(x) for x in heads]
    if None in items:
        return None
    return "(" + " ".join(items) + ")"


@given(nested)
def test_print_value_matches_the_old_printer(v):
    assert print_value(v) == _old_print_value(v)


def test_print_value_walks_each_pair_once():
    # A list whose one element is such a list, down to an improper pair:
    # a printer that looks for a quoted datum again at every level walks
    # the nest once per level.
    depth = 200
    v = Pair(1, 2)
    for _ in range(depth):
        v = Pair(v, NIL)
    walks = []

    def counting(x):
        walks.append(x)
        return _spine(x)

    with mock.patch.object(values_module, "_spine", counting):
        printed = print_value(v)
    assert printed == "(cons " * depth + "(cons 1 2)" + " nil)" * depth
    assert len(walks) <= depth + 1 + 2


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


@pytest.mark.parametrize("limit", [4300, 640])
def test_integers_past_the_conversion_limit_read_and_print_in_full(limit):
    # CPython refuses int-text conversion past a digit limit (4300 by
    # default, at least 640 when set).  Reading and printing lift it for
    # the one conversion it refuses and leave the caller's limit in place.
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    power = str(2**15000)
    try:
        sys.set_int_max_str_digits(limit)
        literal = "9" * 5000
        assert parse_term(literal) == IntLit(10**5000 - 1)
        assert parse_term(f"'({literal})").args[0].value == 10**5000 - 1
        assert print_term(parse_term(f"(f -{literal})")) == f"(f -{literal})"
        assert print_value(2**15000) == power and len(power) == 4516
        assert print_value(from_list([-(2**15000)])) == f"'(-{power})"
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(caller)
