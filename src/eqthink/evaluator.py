"""Total evaluator with step counting.

Semantics are total in the hosted language: ``first``/``rest`` of a
non-pair give nil, arithmetic coerces non-integers to 0, ``zp n`` is t
unless n is a positive integer, and any non-nil value is true in an
``if`` test.  The only runtime errors are unbound variables, unknown
operators, and running out of fuel.

Cost model: every application node visited costs one step (primitives,
``if``, and calls to defined operators alike).  ``if`` pays for its test
and the taken branch only.  Variables and literals are free.

Terms are compiled once into nested Python closures over a positional
frame; defined operators resolve through their definition record at call
time so self-recursion works.  Evaluation runs as plain calls on the
caller's thread: the closures only call Python functions, which CPython
3.11+ runs without growing the C stack.  Deep structural recursion over
long lists therefore needs only a high recursion limit, which
``eval_counting`` raises on first use.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import (
    BadArity,
    DuplicateDefinition,
    StepLimitExceeded,
    UnboundVariable,
    UnknownOperator,
)
from .syntax import IntLit, PRIMITIVE_ARITY, RawDefun, SymLit, Term, Var
from .values import NIL, Pair, Symbol, T, Value, value_compare, value_equal

DEFAULT_FUEL = 10**8
_RECURSION_LIMIT = 20_000_000

_PRIMITIVES = [name for name in PRIMITIVE_ARITY]


@dataclass(frozen=True)
class StepCount:
    total: int
    per_operator: dict[str, int] = field(default_factory=dict)


class _Counter:
    __slots__ = ("total", "fuel", "per")

    def __init__(self, fuel: int, width: int):
        self.total = 0
        self.fuel = fuel
        self.per = [0] * width


class _DefRecord:
    __slots__ = ("defun", "index", "closure")

    def __init__(self, defun: RawDefun, index: int):
        self.defun = defun
        self.index = index
        self.closure = None


class DefEnv:
    """Definition environment mapping operator names to compiled defuns.

    Only hold definitions that earned their place: compiled output of the
    admissibility checker, or raw defuns explicitly marked ``:trust``.
    """

    def __init__(self):
        self.defs: dict[str, _DefRecord] = {}
        self.op_names: list[str] = list(_PRIMITIVES)
        self.op_index: dict[str, int] = {name: i for i, name in enumerate(self.op_names)}

    def define(self, d: RawDefun) -> None:
        if d.name in PRIMITIVE_ARITY:
            raise DuplicateDefinition(f"{d.name} is a primitive", d.loc)
        if d.name in self.defs:
            raise DuplicateDefinition(f"{d.name} is already defined", d.loc)
        index = self.op_index.get(d.name)
        if index is None:
            index = len(self.op_names)
            self.op_names.append(d.name)
            self.op_index[d.name] = index
        record = _DefRecord(d, index)
        self.defs[d.name] = record
        slots = {p: i for i, p in enumerate(d.params)}
        record.closure = _compile(d.body, slots, self)

    def arity(self, name: str) -> int | None:
        if name in PRIMITIVE_ARITY:
            return PRIMITIVE_ARITY[name]
        record = self.defs.get(name)
        return len(record.defun.params) if record else None

    def names(self) -> list[str]:
        return list(self.defs)

    def copy(self) -> "DefEnv":
        """A child environment sharing existing records.

        Definitions added to the copy are invisible to the original, so it
        is safe for provisional what-if checks.
        """
        child = DefEnv.__new__(DefEnv)
        child.defs = dict(self.defs)
        child.op_names = list(self.op_names)
        child.op_index = dict(self.op_index)
        return child


# ---------------------------------------------------------------------------
# Primitive semantics over values


def _as_int(v: Value) -> int:
    return v if isinstance(v, int) else 0


def _first(a):
    return a.head if isinstance(a, Pair) else NIL


def _rest(a):
    return a.tail if isinstance(a, Pair) else NIL


_PRIM_FNS = {
    "cons": lambda a, b: Pair(a, b),
    "first": _first,
    "rest": _rest,
    "consp": lambda a: T if isinstance(a, Pair) else NIL,
    "equal": lambda a, b: T if value_equal(a, b) else NIL,
    "=": lambda a, b: T if _as_int(a) == _as_int(b) else NIL,
    "<": lambda a, b: T if _as_int(a) < _as_int(b) else NIL,
    "<=": lambda a, b: T if _as_int(a) <= _as_int(b) else NIL,
    ">": lambda a, b: T if _as_int(a) > _as_int(b) else NIL,
    ">=": lambda a, b: T if _as_int(a) >= _as_int(b) else NIL,
    "+": lambda a, b: _as_int(a) + _as_int(b),
    "-": lambda a, b: _as_int(a) - _as_int(b),
    "*": lambda a, b: _as_int(a) * _as_int(b),
    "1+": lambda a: _as_int(a) + 1,
    "1-": lambda a: _as_int(a) - 1,
    "zp": lambda a: NIL if (isinstance(a, int) and a > 0) else T,
    "not": lambda a: T if a is NIL else NIL,
    "and": lambda a, b: T if (a is not NIL and b is not NIL) else NIL,
    "or": lambda a, b: T if (a is not NIL or b is not NIL) else NIL,
    "implies": lambda a, b: T if (a is NIL or b is not NIL) else NIL,
    "xor": lambda a, b: T if (a is not NIL) != (b is not NIL) else NIL,
    "nand": lambda a, b: NIL if (a is not NIL and b is not NIL) else T,
    "nor": lambda a, b: T if (a is NIL and b is NIL) else NIL,
    "before": lambda a, b: T if value_compare(a, b) < 0 else NIL,
}


# ---------------------------------------------------------------------------
# Compilation to closures


def _compile(t: Term, slots: dict[str, int], env: DefEnv):
    if isinstance(t, Var):
        idx = slots.get(t.name)
        if idx is None:
            raise UnboundVariable(f"variable {t.name} is not bound", t.loc)

        def run_var(frame, ctr, _i=idx):
            return frame[_i]

        return run_var
    if isinstance(t, IntLit):
        v = t.value
        return lambda frame, ctr: v
    if isinstance(t, SymLit):
        s = Symbol(t.name)
        return lambda frame, ctr: s
    op = t.op
    if op == "if":
        test = _compile(t.args[0], slots, env)
        then = _compile(t.args[1], slots, env)
        alt = _compile(t.args[2], slots, env)
        opidx = env.op_index["if"]
        limit_msg = "step limit exceeded"

        def run_if(frame, ctr):
            total = ctr.total + 1
            ctr.total = total
            if total > ctr.fuel:
                raise StepLimitExceeded(limit_msg)
            ctr.per[opidx] += 1
            if test(frame, ctr) is not NIL:
                return then(frame, ctr)
            return alt(frame, ctr)

        return run_if
    if op in _PRIM_FNS:
        fn = _PRIM_FNS[op]
        opidx = env.op_index[op]
        compiled = [_compile(a, slots, env) for a in t.args]
        if len(compiled) == 1:
            a0 = compiled[0]

            def run_prim1(frame, ctr):
                total = ctr.total + 1
                ctr.total = total
                if total > ctr.fuel:
                    raise StepLimitExceeded("step limit exceeded")
                ctr.per[opidx] += 1
                return fn(a0(frame, ctr))

            return run_prim1
        a0, a1 = compiled

        def run_prim2(frame, ctr):
            total = ctr.total + 1
            ctr.total = total
            if total > ctr.fuel:
                raise StepLimitExceeded("step limit exceeded")
            ctr.per[opidx] += 1
            return fn(a0(frame, ctr), a1(frame, ctr))

        return run_prim2
    record = env.defs.get(op)
    if record is None:
        raise UnknownOperator(f"unknown operator {op}", t.loc)
    want = len(record.defun.params)
    if len(t.args) != want:
        raise BadArity(f"{op} takes {want} argument(s), got {len(t.args)}", t.loc)
    compiled = [_compile(a, slots, env) for a in t.args]
    opidx = record.index

    def run_call(frame, ctr, _args=compiled, _rec=record):
        total = ctr.total + 1
        ctr.total = total
        if total > ctr.fuel:
            raise StepLimitExceeded("step limit exceeded")
        ctr.per[opidx] += 1
        inner = [a(frame, ctr) for a in _args]
        return _rec.closure(inner, ctr)

    return run_call


# ---------------------------------------------------------------------------
# Entry points


def eval_counting(
    t: Term,
    bindings: dict[str, Value] | None = None,
    defs: DefEnv | None = None,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Value, StepCount]:
    env = defs if defs is not None else DefEnv()
    names = sorted(bindings) if bindings else []
    slots = {n: i for i, n in enumerate(names)}
    closure = _compile(t, slots, env)
    frame = [bindings[n] for n in names] if bindings else []
    ctr = _Counter(fuel, len(env.op_names))
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    value = closure(frame, ctr)
    per = {env.op_names[i]: n for i, n in enumerate(ctr.per) if n}
    return value, StepCount(ctr.total, per)


def evaluate(
    t: Term,
    bindings: dict[str, Value] | None = None,
    defs: DefEnv | None = None,
    fuel: int = DEFAULT_FUEL,
) -> Value:
    return eval_counting(t, bindings, defs, fuel)[0]
