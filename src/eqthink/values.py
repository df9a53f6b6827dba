"""Runtime values: arbitrary-precision integers, symbols, and pairs.

Pairs may be improper (any value in the tail), so list helpers distinguish
true lists from other shapes.  Equality and ordering walk the tail spine
iteratively because lists in the workbench routinely reach thousands of
elements, which would overflow Python's recursion limit.
"""

from __future__ import annotations


class Symbol:
    """An interned symbol. `t` and `nil` are the boolean constants."""

    __slots__ = ("name",)
    _interned: dict[str, "Symbol"] = {}

    def __new__(cls, name: str) -> "Symbol":
        sym = cls._interned.get(name)
        if sym is None:
            sym = object.__new__(cls)
            sym.name = name
            cls._interned[name] = sym
        return sym

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"

    def __hash__(self) -> int:
        return hash(self.name)


NIL = Symbol("nil")
T = Symbol("t")


class Pair:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail

    def __eq__(self, other):
        if not isinstance(other, Pair):
            return NotImplemented
        return value_equal(self, other)

    def __hash__(self):
        h = 0x517CC1B7
        node = self
        while isinstance(node, Pair):
            h = hash((h, hash(node.head)))
            node = node.tail
        return hash((h, hash(node)))

    def __repr__(self):
        return f"Pair({self.head!r}, {self.tail!r})"


class BlankPair(Pair):
    """A ``Pair`` made empty and filled by its maker: ``BlankPair()``, then
    a store to ``head`` and one to ``tail`` before anything reads it.

    Its ``__init__`` is ``object.__init__``, which is C code, so making one
    enters no Python frame; ``Pair(head, tail)`` enters one for
    ``Pair.__init__``, which about doubles the cost of a cell.  In every
    other way it is a ``Pair``: it compares, hashes, orders, prints and
    converts to JSON like one.  Generated code and ``from_list`` build
    their cells with it.
    """

    __slots__ = ()
    __init__ = object.__init__


Value = int | Symbol | Pair


def truthy(v: Value) -> bool:
    """Any value other than nil counts as true."""
    return v is not NIL


def value_equal(a: Value, b: Value) -> bool:
    while True:
        if a is b:
            return True
        if isinstance(a, Pair) and isinstance(b, Pair):
            if not value_equal(a.head, b.head):
                return False
            a, b = a.tail, b.tail
            continue
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return False


def value_compare(a: Value, b: Value) -> int:
    """Total order: integers < symbols < pairs; -1, 0, or 1.

    Integers compare numerically, symbols lexicographically, and pairs
    component-wise (head first, then tail along the spine).
    """
    while True:
        if isinstance(a, int):
            if not isinstance(b, int):
                return -1
            return -1 if a < b else (0 if a == b else 1)
        if isinstance(b, int):
            return 1
        if isinstance(a, Symbol):
            if not isinstance(b, Symbol):
                return -1
            return -1 if a.name < b.name else (0 if a.name == b.name else 1)
        if isinstance(b, Symbol):
            return 1
        c = value_compare(a.head, b.head)
        if c != 0:
            return c
        a, b = a.tail, b.tail


def from_list(items) -> Value:
    out: Value = NIL
    for item in reversed(list(items)):
        cell = BlankPair()
        cell.head = item
        cell.tail = out
        out = cell
    return out


def _spine(v: Value) -> tuple[list[Value], Value]:
    """The heads along a value's tail spine, and the atom the spine ends in."""
    heads = []
    while isinstance(v, Pair):
        heads.append(v.head)
        v = v.tail
    return heads, v


def to_list(v: Value) -> list[Value]:
    """Unpack a true list; raises ValueError on improper lists or atoms."""
    out, end = _spine(v)
    if end is not NIL:
        raise ValueError(f"not a true list (ends in {print_value(end)})")
    return out


def is_true_list(v: Value) -> bool:
    while isinstance(v, Pair):
        v = v.tail
    return v is NIL


def print_value(v: Value) -> str:
    """Render a value as re-readable surface syntax.

    True lists print as quoted literals like '(1 2 3); improper pairs, and
    lists that hold one anywhere inside, fall back to explicit (cons ...)
    applications.
    """
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Symbol):
        return v.name if v in (T, NIL) else "'" + v.name
    datum = _datum(v)
    if datum is not None:
        return "'" + datum
    heads, end = _spine(v)
    opens = "".join(f"(cons {print_value(h)} " for h in heads)
    return opens + print_value(end) + ")" * len(heads)


def _datum(v: Value) -> str | None:
    """The value inside a quoted literal, or None if it holds an improper pair."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Symbol):
        return v.name
    heads, end = _spine(v)
    if end is not NIL:
        return None
    items = [_datum(x) for x in heads]
    if None in items:
        return None
    return "(" + " ".join(items) + ")"


def to_json(v: Value):
    """Values as JSON: ints stay ints, symbols become strings, lists arrays.

    Improper pairs become {"cons": [head, tail]} objects.
    """
    if isinstance(v, int):
        return v
    if isinstance(v, Symbol):
        return v.name
    heads, end = _spine(v)
    if end is NIL:
        return [to_json(x) for x in heads]
    out = to_json(end)
    for h in reversed(heads):
        out = {"cons": [to_json(h), out]}
    return out


def from_json(data) -> Value:
    if isinstance(data, bool):
        raise ValueError("JSON booleans have no value mapping; use \"t\"/\"nil\"")
    if isinstance(data, int):
        return data
    if isinstance(data, str):
        return Symbol(data)
    if isinstance(data, list):
        return from_list(from_json(x) for x in data)
    if (
        isinstance(data, dict)
        and set(data) == {"cons"}
        and isinstance(data["cons"], list)
        and len(data["cons"]) == 2
    ):
        return Pair(from_json(data["cons"][0]), from_json(data["cons"][1]))
    raise ValueError(f"cannot map JSON value {data!r} into the language")
