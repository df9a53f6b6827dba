"""Evaluator semantics pinned against an independent tree-walking oracle.

The oracle below re-derives the language semantics from scratch:
totalized selectors and arithmetic, strict binary connectives, and the
cost model (primitives cost 1, `if` pays 1 plus test plus taken branch,
a call pays 1 plus its body), one step at a time against its fuel.  It
shares no code with the compiled evaluator beyond the value types.
"""

import itertools
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqthink.admissibility import admit
from eqthink.errors import (
    BadArity,
    SourceLocation,
    StepLimitExceeded,
    UnboundVariable,
    UnknownOperator,
)
from eqthink import evaluator
from eqthink.evaluator import _MAX_NESTING, DEFAULT_FUEL, DefEnv, eval_counting, evaluate
from eqthink.properties import Pass, run_property
from eqthink.syntax import (
    NIL_LIT,
    PRIMITIVE_ARITY,
    T_LIT,
    App,
    IntLit,
    SymLit,
    Var,
    parse_program,
    parse_term,
)
from eqthink.values import (
    NIL,
    BlankPair,
    Pair,
    Symbol,
    T,
    from_list,
    print_value,
    to_json,
    to_list,
    value_compare,
    value_equal,
)


def _as_int(v):
    return v if isinstance(v, int) else 0


def _bool(flag):
    return T if flag else NIL


class Oracle:
    def __init__(self, env=None, fuel=DEFAULT_FUEL):
        self.env = env
        self.fuel = fuel
        self.steps = 0
        self.per = Counter()

    def step(self, op):
        self.steps += 1
        self.per[op] += 1
        if self.steps > self.fuel:
            raise StepLimitExceeded("step limit exceeded")

    def run(self, t, bindings):
        if isinstance(t, IntLit):
            return t.value
        if isinstance(t, SymLit):
            return Symbol(t.name)
        if isinstance(t, Var):
            return bindings[t.name]
        op, args = t.op, t.args
        if op == "if":
            self.step(op)
            test = self.run(args[0], bindings)
            return self.run(args[1] if test is not NIL else args[2], bindings)
        vals = [self.run(a, bindings) for a in args]
        self.step(op)
        if op == "cons":
            return Pair(vals[0], vals[1])
        if op == "first":
            return vals[0].head if isinstance(vals[0], Pair) else NIL
        if op == "rest":
            return vals[0].tail if isinstance(vals[0], Pair) else NIL
        if op == "consp":
            return _bool(isinstance(vals[0], Pair))
        if op == "equal":
            return _bool(value_equal(vals[0], vals[1]))
        if op in ("=", "<", "<=", ">", ">="):
            a, b = _as_int(vals[0]), _as_int(vals[1])
            table = {
                "=": a == b, "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
            }
            return _bool(table[op])
        if op == "+":
            return _as_int(vals[0]) + _as_int(vals[1])
        if op == "-":
            return _as_int(vals[0]) - _as_int(vals[1])
        if op == "*":
            return _as_int(vals[0]) * _as_int(vals[1])
        if op == "1+":
            return _as_int(vals[0]) + 1
        if op == "1-":
            return _as_int(vals[0]) - 1
        if op == "zp":
            return _bool(not (isinstance(vals[0], int) and vals[0] > 0))
        if op == "not":
            return _bool(vals[0] is NIL)
        if op == "and":
            return _bool(vals[0] is not NIL and vals[1] is not NIL)
        if op == "or":
            return _bool(vals[0] is not NIL or vals[1] is not NIL)
        if op == "implies":
            return _bool(vals[0] is NIL or vals[1] is not NIL)
        if op == "xor":
            return _bool((vals[0] is not NIL) != (vals[1] is not NIL))
        if op == "nand":
            return _bool(not (vals[0] is not NIL and vals[1] is not NIL))
        if op == "nor":
            return _bool(vals[0] is NIL and vals[1] is NIL)
        if op == "before":
            return _bool(value_compare(vals[0], vals[1]) < 0)
        record = self.env.defs[op]
        frame = dict(zip(record.defun.params, vals))
        return self.run(record.defun.body, frame)


def agree(src, bindings=None, env=None):
    t = parse_term(src)
    bindings = bindings or {}
    value, count = eval_counting(t, bindings, env)
    oracle = Oracle(env)
    expected = oracle.run(t, bindings)
    assert value_equal(value, expected), f"{src}: {value} != {expected}"
    assert count.total == oracle.steps, f"{src}: {count.total} != {oracle.steps}"
    assert count.per_operator == dict(oracle.per)
    return value, count


# Terms over every primitive, `if` in every position, variables bound
# from a frame, and calls into `_library()`; `forever`, `stuck` and large
# arguments to the counting functions run out of `_FUEL`.
_VARS = ("x", "y", "z")
_LIBRARY_ARITY = {
    "app": 2, "nth-down": 2, "count-down": 1, "forever": 1, "insert": 2, "stuck": 1,
    "sum-acc": 2, "twins": 1, "size": 1, "sizes": 1, "nest-heads": 1, "twice": 1, "all-pos": 1,
    "tw": 1, "tally": 3, "swap": 3, "rank": 3,
}
_FUEL = 3000


def _applications(inner):
    ops = {**PRIMITIVE_ARITY, **_LIBRARY_ARITY}
    return st.one_of(
        *(
            st.tuples(*[inner] * arity).map(lambda args, op=op: App(op, args))
            for op, arity in ops.items()
        )
    )


terms = st.recursive(
    st.one_of(
        st.integers(-50, 50).map(IntLit),
        st.sampled_from(["t", "nil", "a"]).map(SymLit),
        st.sampled_from(_VARS).map(Var),
    ),
    _applications,
    max_leaves=25,
)
values = st.recursive(
    st.one_of(st.integers(-9, 9), st.sampled_from([NIL, T, Symbol("a")])),
    lambda inner: st.one_of(
        st.builds(Pair, inner, inner), st.lists(inner, max_size=4).map(from_list)
    ),
    max_leaves=8,
)
frames = st.fixed_dictionaries({name: values for name in _VARS})


# Mostly literals, so that whole subterms are ground and fold to constants.
ground_heavy_terms = st.recursive(
    st.one_of(
        st.integers(-50, 50).map(IntLit),
        st.sampled_from(["t", "nil", "a"]).map(SymLit),
        st.integers(-3, 3).map(IntLit),
        st.just(Var("x")),
    ),
    _applications,
    max_leaves=25,
)


def _matches_oracle(t, frame, env, fuel=_FUEL):
    """Value, total, tallies and the fuel outcome agree with the oracle."""
    try:
        value, count = eval_counting(t, frame, env, fuel)
    except StepLimitExceeded:
        with pytest.raises(StepLimitExceeded):
            Oracle(env, fuel).run(t, frame)
        return
    oracle = Oracle(env, fuel)
    assert value_equal(value, oracle.run(t, frame))
    assert count.total == oracle.steps
    assert count.per_operator == dict(oracle.per)
    # The fuel outcome is exact: the total fits, one step less does not.
    assert eval_counting(t, frame, env, count.total)[1] == count
    if count.total:
        with pytest.raises(StepLimitExceeded):
            eval_counting(t, frame, env, count.total - 1)


@given(st.one_of(terms, ground_heavy_terms), frames)
def test_matches_oracle_on_random_terms(t, frame):
    _matches_oracle(t, frame, _library())


# A region drawn from a small pool repeats the applications the translator
# shares along a path: selectors, tests, integer coercions of the same
# operands, and relations over `y` and `(first x)` that complement or
# mirror one another.  `and` chains and `if`s nested on one test decide
# tests that the branches below them meet again.
_POOL = [
    Var("x"), Var("y"), IntLit(0), IntLit(2), NIL_LIT,
    App("first", (Var("x"),)), App("rest", (Var("x"),)), App("first", (Var("y"),)),
    App("consp", (Var("x"),)), App("consp", (Var("y"),)),
    App("equal", (Var("x"), NIL_LIT)), App("<=", (Var("y"), App("first", (Var("x"),)))),
    App("zp", (Var("y"),)), App("not", (App("consp", (Var("x"),)),)),
    *(App(op, (Var("y"), App("first", (Var("x"),)))) for op in (">", ">=", "<")),
]
_SHARED_OPS = ("cons", "first", "rest", "consp", "equal", "<", "<=", ">", ">=", "+", "1-", "zp",
               "not", "and", "or", "xor", "insert", "app")


def _and_chain(tests):
    chain = tests[-1]
    for test in reversed(tests[:-1]):
        chain = App("and", (test, chain))
    return chain


def _shared_regions(inner):
    arity = {**PRIMITIVE_ARITY, **_LIBRARY_ARITY}
    return st.one_of(
        st.sampled_from(_SHARED_OPS).flatmap(
            lambda op: st.tuples(*[inner] * arity[op]).map(lambda args: App(op, args))
        ),
        st.tuples(st.lists(inner, min_size=1, max_size=4), inner, inner).map(
            lambda c: App("if", (_and_chain(c[0]), c[1], c[2]))
        ),
        st.tuples(inner, inner, inner, inner, inner).map(
            lambda c: App("if", (c[0], App("if", (c[0], c[1], c[2])), App("if", (c[0], c[3], c[4]))))
        ),
        st.tuples(inner, inner, inner).map(
            lambda c: App("if", (App("and", (c[0], c[1])), App("if", (c[0], c[2], c[1])), c[0]))
        ),
    )


shared_terms = st.recursive(st.sampled_from(_POOL), _shared_regions, max_leaves=20)


@given(shared_terms, frames)
def test_shared_subterms_match_oracle(t, frame):
    _matches_oracle(t, frame, _library())


@pytest.mark.parametrize("one, other", itertools.product(("<", "<=", ">", ">="), repeat=2))
def test_relations_over_the_same_operands_match_oracle(one, other):
    # Two relations meet over the same operands on one path: in a branch
    # decided by the first, after it in an `and` chain, and side by side,
    # over operands that are less, equal, greater and not integers.
    a, b = f"({one} y (first x))", f"({other} y (first x))"
    shapes = [f"(if {a} {b} {b})", f"(if (and (consp x) {a}) (not {b}) (cons {a} {b}))",
              f"(if (and {a} {b}) 1 2)", f"(cons {a} (cons {b} nil))",
              f"(if (and {b} {a}) {a} {b})"]
    env = _library()
    for shape, x, y in itertools.product(shapes, [-1, 0, 1, Symbol("a")], [0, T]):
        _matches_oracle(parse_term(shape), {"x": from_list([x]), "y": y}, env)


_SORT_INPUTS = st.lists(st.integers(-20, 20), max_size=12).map(from_list)
_BITS = st.lists(st.integers(0, 1), max_size=10).map(from_list)


@pytest.mark.parametrize(
    "call, inputs",
    [
        ("(insert x y)", (st.integers(-20, 20), _SORT_INPUTS)),
        ("(insertion-sort x)", (_SORT_INPUTS,)),
        ("(merge (merge-sort x) (merge-sort y))", (_SORT_INPUTS, _SORT_INPUTS)),
        ("(merge-sort x)", (st.one_of(_SORT_INPUTS, values),)),
        ("(avl-insert x (build-avl y))", (st.integers(-20, 20), _SORT_INPUTS)),
        ("(avl-insert x y)", (values, values)),
        ("(badd x y)", (_BITS, _BITS)),
        ("(badd x y)", (values, values)),
    ],
)
def test_corpus_operators_match_oracle(corpus_env, call, inputs):
    t = parse_term(call)

    @settings(max_examples=25)
    @given(st.tuples(*inputs))
    def check(args):
        _matches_oracle(t, dict(zip(("x", "y"), args)), corpus_env, fuel=200_000)

    check()


def test_growth_curves_keep_their_step_totals(merge_sort_curve, insertion_worst_curve):
    assert merge_sort_curve == {
        16: 3107, 32: 7404, 64: 17838, 128: 40937, 256: 92399, 512: 207407,
        1024: 457490, 2048: 1004368, 4096: 2180242,
    }
    assert insertion_worst_curve == {
        16: 2099, 32: 8291, 64: 32963, 128: 131459, 256: 525059, 512: 2098691,
        1024: 8391683, 2048: 33560579, 4096: 134230019,
    }


_SAMPLES = [NIL, T, Symbol("a"), 0, 1, -2, Pair(1, NIL), Pair(NIL, 2)]


def _literal(v, name):
    if isinstance(v, int):
        return IntLit(v)
    if isinstance(v, Symbol):
        return SymLit(v.name)
    return Var(name)


def test_primitives_match_oracle_on_sample_values():
    env = DefEnv()
    for op, arity in PRIMITIVE_ARITY.items():
        for args in itertools.product(_SAMPLES, repeat=arity):
            frame = {f"v{i}": v for i, v in enumerate(args)}
            for t in (
                App(op, tuple(Var(name) for name in frame)),
                App(op, tuple(_literal(v, name) for name, v in frame.items())),
            ):
                value, count = eval_counting(t, frame, env)
                oracle = Oracle(env)
                assert value_equal(value, oracle.run(t, frame)), (op, args)
                assert count.total == oracle.steps and count.per_operator == dict(oracle.per)


def _located(t, counter):
    """``t`` with a distinct source location on every node, in reading order."""
    loc = SourceLocation("<term>", next(counter), 1)
    if isinstance(t, App):
        return App(t.op, tuple(_located(a, counter) for a in t.args), loc=loc)
    return type(t)(t.name if isinstance(t, (Var, SymLit)) else t.value, loc=loc)


def _first_fault(t, env, frame):
    """The error of the first offending node in left-to-right depth-first
    order, an operator before its arguments."""
    if isinstance(t, Var) and t.name not in frame:
        return UnboundVariable(f"variable {t.name} is not bound", t.loc)
    if not isinstance(t, App):
        return None
    if t.op not in PRIMITIVE_ARITY:
        want = env.arity(t.op)
        if want is None:
            return UnknownOperator(f"unknown operator {t.op}", t.loc)
        if want != len(t.args):
            return BadArity(f"{t.op} takes {want} argument(s), got {len(t.args)}", t.loc)
    for a in t.args:
        fault = _first_fault(a, env, frame)
        if fault is not None:
            return fault
    return None


def _faulty_applications(inner):
    return st.one_of(
        _applications(inner),
        st.tuples(inner).map(lambda args: App("mystery", args)),
        st.tuples(inner, inner).map(lambda args: App("unknown", args)),
        st.tuples(inner).map(lambda args: App("app", args)),
    )


faulty_terms = st.recursive(
    st.one_of(
        st.integers(-5, 5).map(IntLit),
        st.sampled_from(["x", "w"]).map(Var),
    ),
    _faulty_applications,
    max_leaves=12,
)


@given(faulty_terms)
def test_first_offending_node_raises(t):
    env = _library()
    frame = {"x": 1}
    t = _located(t, itertools.count(1))
    fault = _first_fault(t, env, frame)
    if fault is None:
        return
    with pytest.raises(type(fault)) as raised:
        eval_counting(t, frame, env, _FUEL)
    assert type(raised.value) is type(fault)
    assert (raised.value.message, raised.value.location) == (fault.message, fault.location)


_DEEP = 5000
_DEEP_NESTS = {
    "then": lambda t: App("if", (Var("x"), t, IntLit(1))),
    "else": lambda t: App("if", (NIL_LIT, IntLit(1), t)),
    "test": lambda t: App("if", (t, IntLit(1), IntLit(2))),
    "argument": lambda t: App("1+", (App("if", (T_LIT, t, Var("x"))),)),
    "cons": lambda t: App("cons", (Var("x"), t)),
    "1+": lambda t: App("1+", (t,)),
}


@pytest.mark.parametrize("position", sorted(_DEEP_NESTS))
def test_deep_nests_match_oracle(position):
    t = Var("x")
    for _ in range(_DEEP):
        t = _DEEP_NESTS[position](t)
    frame = {"x": 3}
    value, count = eval_counting(t, frame, None)
    oracle = Oracle()
    assert value_equal(value, oracle.run(t, frame))
    assert count.total == oracle.steps
    assert count.per_operator == dict(oracle.per)


def test_frozen_cost_examples():
    _, c = agree("(first (cons 1 nil))")
    assert c.total == 2 and c.per_operator == {"cons": 1, "first": 1}
    _, c = agree("(if t 1 2)")
    assert c.total == 1
    _, c = agree("(if (equal 1 2) (+ 1 1) (* 2 (+ 1 1)))")
    assert c.total == 4
    v, c = agree("nil")
    assert v is NIL and c.total == 0


def test_totalized_primitives():
    assert evaluate(parse_term("(first 5)"), {}, None) is NIL
    assert evaluate(parse_term("(rest nil)"), {}, None) is NIL
    assert evaluate(parse_term("(+ 'a 1)"), {}, None) == 1
    assert evaluate(parse_term("(zp 'a)"), {}, None) is T
    assert evaluate(parse_term("(zp 0)"), {}, None) is T
    assert evaluate(parse_term("(zp 3)"), {}, None) is NIL
    assert evaluate(parse_term("(and 7 'sym)"), {}, None) is T
    assert evaluate(parse_term("(or nil nil)"), {}, None) is NIL


def _library() -> DefEnv:
    env = DefEnv()
    forms = parse_program(
        """
        (defun app (xs ys) :trust
          (if (consp xs) (cons (first xs) (app (rest xs) ys)) ys))
        (defun nth-down (n xs) :trust
          (if (zp n) (first xs) (nth-down (1- n) (rest xs))))
        (defun count-down (n) :trust
          (if (zp n) 0 (count-down (1- n))))
        (defun forever (n) :trust (forever (1+ n)))
        (defun insert (x ys) :trust
          (if (equal ys nil)
              (cons x nil)
              (if (and (consp ys) (<= x (first ys)))
                  (cons x ys)
                  (if (and (consp ys) (> x (first ys)))
                      (cons (first ys) (insert x (rest ys)))
                      nil))))
        (defun stuck (n) :trust (if (stuck n) 1 2))
        (defun sum-acc (xs acc) :trust
          (if (consp xs) (sum-acc (rest xs) (+ acc (first xs))) acc))
        (defun twins (xs) :trust
          (if (consp xs) (cons (first xs) (cons (first xs) (twins (rest xs)))) nil))
        (defun size (xs) :trust (if (consp xs) (1+ (size (rest xs))) 0))
        (defun sizes (xss) :trust
          (if (consp xss) (cons (size (first xss)) (sizes (rest xss))) nil))
        (defun nest-heads (xs) :trust
          (if (consp xs) (cons (nest-heads (rest xs)) nil) nil))
        (defun twice (n) :trust (if (zp n) 0 (twice (twice (1- n)))))
        (defun all-pos (xs) :trust
          (if (consp xs) (if (all-pos (rest xs)) (< 0 (first xs)) nil) t))
        (defun tw (xs) :trust
          (if (consp xs) (cons (first xs) (if (< 0 (first xs)) (tw (rest xs)) nil)) nil))
        (defun tally (n m xs) :trust
          (if (consp xs)
              (if (< n (first xs)) (tally n (1+ m) (rest xs)) (tally (1+ n) m (rest xs)))
              (+ n m)))
        (defun swap (a b xs) :trust (if (consp xs) (swap b a (rest xs)) (- a b)))
        (defun rank (y xs n) :trust
          (if (consp xs)
              (if (consp y)
                  (if (< (first y) (first xs)) (rank y (rest xs) (1+ n)) (rank y (rest xs) n))
                  (rank y (rest xs) n))
              n))
        """
    )
    for form in forms:
        env.define(form)
    return env


@pytest.fixture
def few_frames(monkeypatch):
    """Evaluation under a recursion limit of 2000, which it may not raise."""
    monkeypatch.setattr(evaluator, "_raise_recursion_limit", lambda: None)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# Every self-call of these sits in tail position or as the last argument of
# a `cons` chain in tail position, so each is emitted as one loop: an
# accumulator, the library's own `app`, `insert` and `nth-down`, a chain
# two cells deep, and a loop that calls `size` every round.  The rest probe
# which parameters a round leaves alone: `insert` compares an unchanged
# head that may be a list, `tally` rebinds each of its two counters on only
# one of two self-calls, `swap` exchanges its two operands every round, and
# `rank` takes the `first` of an unchanged parameter only where it is known
# to be a pair.
_LOOPS = ["(sum-acc x 0)", "(app x x)", "(insert 0 x)", "(nth-down 3 x)", "(twins x)",
          "(sizes x)", "(insert (first x) (rest x))", "(tally 0 0 x)", "(swap (first x) 3 x)",
          "(rank (first x) x 0)"]
# These stay recursive: a self-call in a `cons` head, in an `if` test, and
# in an `if` under a `cons`.  `twice` has one as another self-call's
# argument.
_RECURSIONS = ["(nest-heads x)", "(all-pos x)", "(tw x)"]
_NESTED_LISTS = st.lists(
    st.one_of(st.integers(-9, 9), st.lists(st.integers(-9, 9), max_size=4).map(from_list)),
    max_size=10,
).map(from_list)


@pytest.mark.parametrize("call", [*_LOOPS, *_RECURSIONS, "(twice (size x))"])
@given(x=_NESTED_LISTS)
def test_loop_shapes_match_oracle(call, x):
    env = _library()
    t = parse_term(call)
    total = eval_counting(t, {"x": x}, env)[1].total
    # The exact total and one step less, then a fuel that runs out halfway.
    _matches_oracle(t, {"x": x}, env, total)
    _matches_oracle(t, {"x": x}, env, total // 2)


def test_loop_shapes_need_no_frame_per_round(few_frames):
    env = _library()
    long = {"x": from_list(range(1, 5001))}
    for call in _LOOPS:
        evaluate(parse_term(call), long, env)
    for call in [*_RECURSIONS, "(twice 5000)"]:
        with pytest.raises(RecursionError):
            evaluate(parse_term(call), long, env)


def test_corpus_loops_use_no_python_frames(corpus_env, few_frames):
    n = 50_000
    cases = [
        ("(insert x y)", n, range(n), list(range(n + 1))),
        ("(merge x y)", range(0, 2 * n, 2), range(1, 2 * n, 2), list(range(2 * n))),
        ("(append x y)", range(n), range(n), [*range(n), *range(n)]),
    ]
    for call, x, y, expected in cases:
        x = x if isinstance(x, int) else from_list(x)
        value = evaluate(parse_term(call), {"x": x, "y": from_list(y)}, corpus_env)
        assert to_list(value) == expected, call


@given(st.lists(st.integers(-99, 99), max_size=15), st.lists(st.integers(-99, 99), max_size=15))
def test_user_function_against_host_append(xs, ys):
    env = _library()
    value = evaluate(
        App("app", (Var("a"), Var("b"))), {"a": from_list(xs), "b": from_list(ys)}, env
    )
    assert to_list(value) == xs + ys


def test_generated_code_makes_pairs_without_pair_init(corpus_env, monkeypatch):
    x, y = from_list(range(200, 0, -1)), from_list(range(200))
    cases = [
        ("(insertion-sort x)", list(range(1, 201))),
        ("(merge-sort x)", list(range(1, 201))),
        ("(append x y)", [*range(200, 0, -1), *range(200)]),
        ("(cons (first y) x)", [0, *range(200, 0, -1)]),
    ]
    calls = []
    init = Pair.__init__

    def counting(self, head, tail):
        calls.append(head)
        init(self, head, tail)

    monkeypatch.setattr(Pair, "__init__", counting)
    for call, expected in cases:
        assert to_list(evaluate(parse_term(call), {"x": x, "y": y}, corpus_env)) == expected
    assert calls == []


def _built(data):
    """Plain data as a value built with ``Pair(h, t)``: ints, symbol names,
    lists, and (head, tail) tuples for improper pairs."""
    if isinstance(data, int):
        return data
    if isinstance(data, str):
        return Symbol(data)
    if isinstance(data, tuple):
        return Pair(_built(data[0]), _built(data[1]))
    out = NIL
    for item in reversed(data):
        out = Pair(_built(item), out)
    return out


_DATA = st.recursive(
    st.integers(-9, 9) | st.sampled_from(["a", "b", "nil", "t"]),
    lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner),
    max_leaves=20,
)
# Copies made by generated code: a cons returned from a recursion, cons
# chains one and two cells deep built by loops, and a cons shared as an
# argument.
_COPIES = [
    "(copy x)",
    "(copy-spine x)",
    "(copy-two x)",
    "(if (consp x) (first (cons (cons (first x) (rest x)) nil)) x)",
]


@given(data=_DATA, other=_DATA)
def test_evaluated_pairs_are_indistinguishable_from_built_ones(data, other):
    env = DefEnv()
    for form in parse_program(
        """
        (defun copy (x) :trust (if (consp x) (cons (copy (first x)) (copy (rest x))) x))
        (defun copy-spine (x) :trust (if (consp x) (cons (first x) (copy-spine (rest x))) x))
        (defun copy-two (x) :trust
          (if (and (consp x) (consp (rest x)))
              (cons (first x) (cons (first (rest x)) (copy-two (rest (rest x)))))
              (copy-spine x)))
        """
    ):
        env.define(form)
    built, other = _built(data), _built(other)
    for call in _COPIES:
        value = evaluate(parse_term(call), {"x": built}, env)
        assert type(value) is (BlankPair if isinstance(built, Pair) else type(built))
        assert value == built and built == value and hash(value) == hash(built)
        assert repr(value) == repr(built) and print_value(value) == print_value(built)
        assert to_json(value) == to_json(built) and value_compare(value, built) == 0
        assert value_compare(value, other) == value_compare(built, other)
        assert value_compare(other, value) == value_compare(other, built)
        assert (value == other) == (built == other)


def test_call_cost_is_one_plus_body():
    env = _library()
    _, c = eval_counting(parse_term("(count-down 0)"), {}, env)
    # one call + one zp test inside one if
    assert c.total == 3
    _, c = eval_counting(parse_term("(count-down 2)"), {}, env)
    assert c.total == 3 + 2 * 4  # each extra level adds call + if + zp + 1-
    agree("(nth-down 2 (cons 10 (cons 11 (cons 12 nil))))", env=env)


def _in_plain_thread(job):
    box = []
    worker = threading.Thread(target=lambda: box.append(job()))
    worker.start()
    worker.join()
    return box[0]


def test_deep_recursion_runs_without_host_overflow():
    env = _library()
    term = parse_term("(count-down 200000)")
    assert evaluate(term, {}, env) == 0
    assert _in_plain_thread(lambda: evaluate(term, {}, env)) == 0


def test_evaluation_starts_no_thread():
    env = _library()
    evaluate(parse_term("(count-down 10)"), {}, env)
    [p] = parse_program("(defproperty always (x :value (random-integer)) (equal x x))")
    assert run_property(p, 0) == Pass(100)
    [d] = parse_program("(defeqs n (xs) (n0 (n nil) 0) (n1 (n (cons x xs)) (1+ (n xs))))")
    assert admit(d, DefEnv(), domains=("list",)).admitted
    assert threading.enumerate() == [threading.current_thread()]


def test_step_limit():
    env = _library()
    with pytest.raises(StepLimitExceeded):
        evaluate(parse_term("(forever 0)"), {}, env, fuel=10_000)
    with pytest.raises(StepLimitExceeded):
        eval_counting(parse_term("(count-down 50)"), {}, env, 10)


def test_if_test_that_recurses_forever_meets_the_fuel():
    env = _library()
    with pytest.raises(StepLimitExceeded):
        eval_counting(parse_term("(stuck 0)"), {}, env, 1000)


def test_primitive_tests_deeper_than_one_function_match_oracle():
    # The recursive leaf sits under more primitive-only tests than one
    # generated function nests, so the path crosses two split-off branches.
    body = "(chain (1- n))"
    for k in reversed(range(2 * _MAX_NESTING + 5)):
        body = f"(if (= n {k}) {k} {body})"
    env = DefEnv()
    [chain] = parse_program(f"(defun chain (n) :trust {body})")
    env.define(chain)
    for n in (0, _MAX_NESTING, 2 * _MAX_NESTING + 10):
        _, count = agree(f"(chain {n})", env=env)
        assert eval_counting(parse_term(f"(chain {n})"), {}, env, count.total)[1] == count
        with pytest.raises(StepLimitExceeded):
            eval_counting(parse_term(f"(chain {n})"), {}, env, count.total - 1)


def test_loop_with_an_exit_split_off_matches_oracle(few_frames):
    # The self-call sits one branch deep, so `down` is a loop, but its exit
    # nests deeper than one function does: the loop calls the split-off
    # branch as it would another operator.
    exit = "(count-down m)"
    for k in reversed(range(_MAX_NESTING + 5)):
        exit = f"(if (= m {k}) {k} {exit})"
    env = _library()
    [down] = parse_program(f"(defun down (n m) :trust (if (< 0 n) (down (1- n) m) {exit}))")
    env.define(down)
    assert evaluate(parse_term("(down 5000 2)"), {}, env) == 2
    for n, m in itertools.product((0, 3), (0, 7, _MAX_NESTING + 10)):
        t = parse_term(f"(down {n} {m})")
        total = eval_counting(t, {}, env)[1].total
        _matches_oracle(t, {}, env, total)
        _matches_oracle(t, {}, env, total // 2)


def test_evaluate_goes_through_eval_counting(monkeypatch):
    calls = []
    counting = evaluator.eval_counting

    def wrapper(*args):
        calls.append(args)
        return counting(*args)

    monkeypatch.setattr(evaluator, "eval_counting", wrapper)
    assert evaluate(parse_term("(1+ 1)"), {}, None) == 2
    assert len(calls) == 1


def test_evaluated_term_keeps_equality_hash_and_repr():
    env = _library()
    ran = parse_term("(app (cons 1 nil) (cons x nil))")
    assert evaluate(ran, {"x": 2}, env) == from_list([1, 2])
    fresh = parse_term("(app (cons 1 nil) (cons x nil))")
    assert ran.shape == evaluator._shape(fresh)
    assert ran == fresh and hash(ran) == hash(fresh) and repr(ran) == repr(fresh)


def test_equal_terms_share_one_translation(monkeypatch):
    env = _library()
    translations = []
    translate = evaluator._Translator.translate

    def spy(self, t):
        translations.append(t)
        return translate(self, t)

    monkeypatch.setattr(evaluator._Translator, "translate", spy)
    first = parse_term("(count-down n)")
    second = parse_term("(count-down n)")
    assert first is not second
    for t, n in ((first, 3), (second, 4), (first, 5)):
        assert eval_counting(t, {"n": n}, env)[1].total == 4 * n + 3
    assert translations == [first]


def test_step_counts_read_and_compare_by_total_and_tallies():
    env = _library()
    t = parse_term("(insert 3 (cons 1 (cons 2 (cons 5 nil))))")
    _, count = eval_counting(t, {}, env)
    oracle = Oracle(env)
    oracle.run(t, {})
    assert count.per_operator == count.per_operator == dict(oracle.per)
    assert eval_counting(t, {}, env)[1] == count
    # Equal totals, different tallies.
    one_up = eval_counting(parse_term("(1+ 1)"), {}, env)[1]
    one_down = eval_counting(parse_term("(1- 1)"), {}, env)[1]
    assert one_up.total == one_down.total and one_up != one_down


def test_unbound_and_unknown_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse_term("(+ x 1)"), {}, None)
    with pytest.raises(UnknownOperator):
        evaluate(parse_term("(mystery 1 2)"), {}, DefEnv())


def test_branches_decided_by_the_path_are_still_translated():
    env = _library()
    with pytest.raises(UnknownOperator):
        evaluate(parse_term("(if (consp x) (if (consp x) 1 (mystery 2)) 3)"), {"x": 1}, env)
    with pytest.raises(BadArity):
        evaluate(parse_term("(if (and (consp x) t) (if (consp x) 1 (app 1)) 3)"), {"x": 1}, env)
    with pytest.raises(UnboundVariable):
        evaluate(parse_term("(if (consp '(1)) 1 w)"), {}, env)


def test_copies_translate_their_own_terms():
    env = _library()
    child = env.copy()
    [g] = parse_program("(defun g (n) :trust (count-down n))")
    child.define(g)
    term = parse_term("(g 2)")
    assert eval_counting(term, {}, child)[1].per_operator["g"] == 1
    with pytest.raises(UnknownOperator):
        evaluate(term, {}, env)


def test_eval_counting_value_matches_evaluate():
    env = _library()
    t = parse_term("(app (cons 1 nil) (cons 2 nil))")
    assert value_equal(eval_counting(t, {}, env)[0], evaluate(t, {}, env))


def test_per_operator_tallies_sum_to_total():
    env = _library()
    _, c = eval_counting(parse_term("(app (cons 1 (cons 2 nil)) nil)"), {}, env)
    assert sum(c.per_operator.values()) == c.total
    assert c.per_operator["app"] == 3


def test_determinism():
    env = _library()
    t = parse_term("(app (cons 1 nil) (cons 2 nil))")
    runs = [eval_counting(t, {}, env) for _ in range(3)]
    assert len({r[1].total for r in runs}) == 1
    assert all(value_equal(runs[0][0], r[0]) for r in runs)


def test_default_fuel_is_hundred_million():
    assert DEFAULT_FUEL == 10**8
