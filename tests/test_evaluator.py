"""Evaluator semantics pinned against an independent tree-walking oracle.

The oracle below re-derives the language semantics from scratch:
totalized selectors and arithmetic, strict binary connectives, and the
cost model (primitives cost 1, `if` pays 1 plus test plus taken branch,
a call pays 1 plus its body).  It shares no code with the compiled
evaluator beyond the value types.
"""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink.admissibility import admit
from eqthink.errors import StepLimitExceeded, UnboundVariable, UnknownOperator
from eqthink.evaluator import DEFAULT_FUEL, DefEnv, eval_counting, evaluate
from eqthink.properties import Pass, run_property
from eqthink.syntax import App, IntLit, SymLit, Var, parse_program, parse_term
from eqthink.values import NIL, Pair, Symbol, T, from_list, to_list, value_compare, value_equal


def _as_int(v):
    return v if isinstance(v, int) else 0


def _bool(flag):
    return T if flag else NIL


class Oracle:
    def __init__(self, env=None):
        self.env = env
        self.steps = 0

    def run(self, t, bindings):
        if isinstance(t, IntLit):
            return t.value
        if isinstance(t, SymLit):
            return Symbol(t.name)
        if isinstance(t, Var):
            return bindings[t.name]
        op, args = t.op, t.args
        if op == "if":
            self.steps += 1
            test = self.run(args[0], bindings)
            return self.run(args[1] if test is not NIL else args[2], bindings)
        vals = [self.run(a, bindings) for a in args]
        self.steps += 1
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
    return value, count


closed_terms = st.recursive(
    st.one_of(
        st.integers(-50, 50).map(lambda n: IntLit(n)),
        st.sampled_from(["t", "nil"]).map(SymLit),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: App("cons", p)),
        st.tuples(inner, inner).map(lambda p: App("+", p)),
        st.tuples(inner, inner).map(lambda p: App("equal", p)),
        st.tuples(inner, inner).map(lambda p: App("or", p)),
        st.tuples(inner, inner).map(lambda p: App("before", p)),
        st.tuples(inner).map(lambda p: App("first", p)),
        st.tuples(inner).map(lambda p: App("not", p)),
        st.tuples(inner).map(lambda p: App("zp", p)),
        st.tuples(inner, inner, inner).map(lambda p: App("if", p)),
    ),
    max_leaves=25,
)


@given(closed_terms)
def test_matches_oracle_on_random_closed_terms(t):
    value, count = eval_counting(t, {}, None)
    oracle = Oracle()
    assert value_equal(value, oracle.run(t, {}))
    assert count.total == oracle.steps


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
        """
    )
    for form in forms:
        env.define(form)
    return env


@given(st.lists(st.integers(-99, 99), max_size=15), st.lists(st.integers(-99, 99), max_size=15))
def test_user_function_against_host_append(xs, ys):
    env = _library()
    value = evaluate(
        App("app", (Var("a"), Var("b"))), {"a": from_list(xs), "b": from_list(ys)}, env
    )
    assert to_list(value) == xs + ys


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


def test_unbound_and_unknown_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse_term("(+ x 1)"), {}, None)
    with pytest.raises(UnknownOperator):
        evaluate(parse_term("(mystery 1 2)"), {}, DefEnv())


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
