"""Total evaluator with step counting.

Semantics are total in the hosted language: ``first``/``rest`` of a
non-pair give nil, arithmetic coerces non-integers to 0, ``zp n`` is t
unless n is a positive integer, and any non-nil value is true in an
``if`` test.  The only runtime errors are unbound variables, unknown
operators, and running out of fuel.

Cost model: every application node visited costs one step (primitives,
``if``, and calls to defined operators alike).  ``if`` pays for its test
and the taken branch only.  Variables and literals are free.

Each defined operator is translated to one generated Python function, and
so is each top-level term (memoized per ``DefEnv``, keyed by the term and
its sorted binding names, so a term is translated once however often it
runs).  Parameters and bindings become Python locals, and terms are
emitted in A-normal form: every sub-result goes to its own local, so the
emitted expressions never nest.  The primitives are inlined as Python
expressions; a call to a defined operator goes through its ``_DefRecord``
at call time, so self-recursion works and a ``DefEnv.copy()`` shares the
functions already generated.  A branch nested deeper than
``_MAX_NESTING`` moves into a function of its own, which keeps the
generated source within Python's indentation limit.

Steps are paid once per path segment.  A region is the nodes that always
run once a function is entered or an ``if`` branch is taken (an
application's arguments, an ``if`` test, but not its branches).  An ``if``
whose region applies only primitives pays nothing where it stands: its
counts go, pending, into both branches.  A path pays what it has pending,
together with the region it has reached, at the first region that applies
a defined operator, before any call runs, or else at its leaf; a branch
split off into a function of its own pays its pending count before the
call.  A payment adds its node count to the total, checks the fuel once,
and counts one hit for its payment site.  ``DefEnv.sites`` holds each
site's per-operator counts, and ``StepCount.per_operator`` multiplies
them by the hits the first time it is read.

The totals and tallies are exactly those of paying one step per node: a
region's nodes all run once it is entered, and a pending test has run on
every path that pays for it, because primitives cannot fail and the only
runtime error is running out of fuel.  The fuel outcome is exact too.
Every payment covers nodes that run unless the fuel runs out first, so
the total paid never exceeds the total the whole evaluation would reach,
and a run that fits in its fuel never raises.  A run that ends pays its
final total at its last payment and checks it; a run that never ends
calls defined operators without end, and pays for each call before it
runs.  Deferring only past primitives keeps both true: no call runs
between a test that defers and the payment that covers it.

Evaluation runs as plain calls on the caller's thread: the generated
functions only call Python functions, which CPython 3.11+ runs without
growing the C stack.  Deep structural recursion over long lists therefore
needs only a high recursion limit, which ``eval_counting`` raises before
it translates or runs anything.
"""

from __future__ import annotations

import sys
from collections import Counter

from .errors import (
    BadArity,
    DuplicateDefinition,
    StepLimitExceeded,
    UnboundVariable,
    UnknownOperator,
)
from .syntax import App, IntLit, PRIMITIVE_ARITY, RawDefun, SymLit, Term, Var
from .values import NIL, Pair, Symbol, T, Value, value_compare, value_equal

DEFAULT_FUEL = 10**8
_RECURSION_LIMIT = 20_000_000
# Branches nested deeper than this in one generated function move into a
# function of their own (Python refuses source indented 100 levels deep).
_MAX_NESTING = 40

_PRIMITIVES = [name for name in PRIMITIVE_ARITY]


class StepCount:
    """The steps one evaluation took: ``total``, and ``per_operator``.

    Generated code pays into this object as it runs: it adds to ``total``,
    checks it against ``fuel``, and counts one hit per payment site in
    ``hits``.  ``per_operator`` is expanded from the hits and the sites'
    operator counts the first time it is read, since most callers want
    only the value or the total.
    """

    __slots__ = ("total", "fuel", "hits", "_env", "_per")

    def __init__(self, fuel: int, env: "DefEnv"):
        self.total = 0
        self.fuel = fuel
        self.hits = [0] * len(env.sites)
        self._env = env
        self._per: dict[str, int] | None = None

    @property
    def per_operator(self) -> dict[str, int]:
        if self._per is None:
            env = self._env
            per = [0] * len(env.op_names)
            for site, hits in zip(env.sites, self.hits):
                if hits:
                    for index, count in site:
                        per[index] += hits * count
            self._per = {env.op_names[i]: n for i, n in enumerate(per) if n}
        return self._per

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepCount):
            return NotImplemented
        return self.total == other.total and self.per_operator == other.per_operator

    def __repr__(self) -> str:
        return f"StepCount(total={self.total}, per_operator={self.per_operator})"


class _DefRecord:
    __slots__ = ("defun", "index", "fn")

    def __init__(self, defun: RawDefun, index: int):
        self.defun = defun
        self.index = index
        self.fn = None


# The names generated code refers to besides its records and constants.
_GLOBALS = {
    "Pair": Pair,
    "NIL": NIL,
    "T": T,
    "value_equal": value_equal,
    "value_compare": value_compare,
    "StepLimitExceeded": StepLimitExceeded,
}


class DefEnv:
    """Definition environment mapping operator names to compiled defuns.

    Only hold definitions that earned their place: compiled output of the
    admissibility checker, or raw defuns explicitly marked ``:trust``.
    """

    def __init__(self):
        self.defs: dict[str, _DefRecord] = {}
        self.op_names: list[str] = list(_PRIMITIVES)
        self.op_index: dict[str, int] = {name: i for i, name in enumerate(self.op_names)}
        # The payment sites of the generated code: each one's (operator
        # index, count) pairs, indexed like ``StepCount.hits``.
        self.sites: list[tuple[tuple[int, int], ...]] = []
        # Generated functions' globals: the records and constants they use
        # and their split-off branches, one dictionary for the environment.
        self._namespace = dict(_GLOBALS)
        self._constants: dict[Value, str] = {}
        self._memo: dict[tuple, object] = {}

    def define(self, d: RawDefun) -> None:
        if d.name in PRIMITIVE_ARITY:
            raise DuplicateDefinition(f"{d.name} is a primitive", d.loc)
        if d.name in self.defs:
            raise DuplicateDefinition(f"{d.name} is already defined", d.loc)
        index = len(self.op_names)
        self.op_names.append(d.name)
        self.op_index[d.name] = index
        record = _DefRecord(d, index)
        self.defs[d.name] = record
        _raise_recursion_limit()
        record.fn = _Translator(self, d.params, f"f{index}").translate(d.body)

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
        is safe for provisional what-if checks.  The copy translates its
        own top-level terms into its own namespace.
        """
        child = DefEnv()
        child.defs = dict(self.defs)
        child.op_names = list(self.op_names)
        child.op_index = dict(self.op_index)
        child.sites = list(self.sites)
        return child

    def _top_level(self, t: Term, names: tuple[str, ...]):
        """The generated function for a top-level term over ``names``."""
        key = (_shape(t), names)
        fn = self._memo.get(key)
        if fn is None:
            fn = _Translator(self, names, f"t{len(self._memo)}").translate(t)
            self._memo[key] = fn
        return fn


def _raise_recursion_limit() -> None:
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)


def _shape(t: Term) -> tuple:
    """A term as a flat preorder tuple, to key the memo of top-level terms.

    Terms hash and compare through C recursion, which overflows the C
    stack on nests some ten thousand deep; a flat tuple does not recurse.
    """
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            out += (App, t.op, len(t.args))
            stack += reversed(t.args)
        else:
            out += (type(t), t.value if isinstance(t, IntLit) else t.name)
    return tuple(out)


# ---------------------------------------------------------------------------
# Primitives as Python source over local names {0} and {1}; {i0} and {i1}
# are the same operands coerced to integers.

# Primitives that return t or nil, as Python conditions.
_CONDITIONS = {
    "consp": "isinstance({0}, Pair)",
    "equal": "value_equal({0}, {1})",
    "=": "{i0} == {i1}",
    "<": "{i0} < {i1}",
    "<=": "{i0} <= {i1}",
    ">": "{i0} > {i1}",
    ">=": "{i0} >= {i1}",
    "zp": "not (isinstance({0}, int) and {0} > 0)",
    "not": "{0} is NIL",
    "and": "{0} is not NIL and {1} is not NIL",
    "or": "{0} is not NIL or {1} is not NIL",
    "implies": "{0} is NIL or {1} is not NIL",
    "xor": "({0} is NIL) != ({1} is NIL)",
    "nand": "{0} is NIL or {1} is NIL",
    "nor": "{0} is NIL and {1} is NIL",
    "before": "value_compare({0}, {1}) < 0",
}

_EXPRESSIONS = {
    "cons": "Pair({0}, {1})",
    "first": "{0}.head if isinstance({0}, Pair) else NIL",
    "rest": "{0}.tail if isinstance({0}, Pair) else NIL",
    "+": "{i0} + {i1}",
    "-": "{i0} - {i1}",
    "*": "{i0} * {i1}",
    "1+": "{i0} + 1",
    "1-": "{i0} - 1",
    **{op: "T if " + cond + " else NIL" for op, cond in _CONDITIONS.items()},
}


# ---------------------------------------------------------------------------
# Translation to Python source


class _Translator:
    """Emits the Python function for one term over positional parameters.

    No text of the term reaches the source: parameters, records and
    constants appear under generated names (``a0``, ``d25``, ``k3``).
    Errors are raised in the order the term is read: left to right, an
    operator before its arguments.
    """

    def __init__(self, env: DefEnv, params, name: str):
        self.env = env
        self.name = name
        self.locals = {p: f"a{i}" for i, p in enumerate(params)}
        self.signature = ", ".join(["ctr", *(f"a{i}" for i in range(len(params)))])
        self.lines: list[str] = []
        self.functions: list[str] = []
        self.temps = 0

    def translate(self, t: Term):
        self.function(t, self.name)
        namespace = self.env._namespace
        exec("\n".join(self.functions), namespace)
        return namespace[self.name]

    def function(self, t: Term, name: str) -> None:
        outer = self.lines
        self.lines = [f"def {name}({self.signature}):"]
        self.region(t, 1, None, Counter())
        self.functions.append("\n".join(self.lines))
        self.lines = outer

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def region(self, t: Term, depth: int, out: str | None, pending: Counter) -> None:
        """Put the value of the region rooted at ``t`` in ``out`` (return it
        when ``out`` is None).  Pay for the region and for ``pending``, the
        operators of the primitive-only tests passed on the way here, unless
        the region is itself such a test: then both go on to its branches."""
        ops = pending.copy()
        _tally(t, ops)
        if isinstance(t, App) and t.op == "if" and all(op in PRIMITIVE_ARITY for op in ops):
            self.result(t, depth, out, ops)
            return
        self.pay(ops, depth)
        self.result(t, depth, out, Counter())

    def pay(self, ops: Counter, depth: int) -> None:
        steps = sum(ops.values())
        if not steps:
            return
        sites = self.env.sites
        # An unknown operator has no index; translating it raises.
        sites.append(tuple(
            (self.env.op_index[op], count) for op, count in ops.items() if op in self.env.op_index
        ))
        self.emit(depth, f"n = ctr.total + {steps}")
        self.emit(depth, "ctr.total = n")
        self.emit(depth, "if n > ctr.fuel: raise StepLimitExceeded('step limit exceeded')")
        self.emit(depth, f"ctr.hits[{len(sites) - 1}] += 1")

    def result(self, t: Term, depth: int, out: str | None, pending: Counter) -> None:
        if isinstance(t, App) and t.op == "if":
            self.check_arity(t)
            test = self.condition(t.args[0], depth)
            self.emit(depth, f"if {test}:")
            self.branch(t.args[1], depth + 1, out, pending)
            self.emit(depth, "else:")
            self.branch(t.args[2], depth + 1, out, pending)
            return
        value = self.expression(t, depth)
        self.emit(depth, f"return {value}" if out is None else f"{out} = {value}")

    def branch(self, t: Term, depth: int, out: str | None, pending: Counter) -> None:
        if depth <= _MAX_NESTING:
            self.region(t, depth, out, pending)
            return
        self.pay(pending, depth)
        self.temps += 1
        name = f"{self.name}_{self.temps}"
        self.function(t, name)
        call = f"{name}({self.signature})"
        self.emit(depth, f"return {call}" if out is None else f"{out} = {call}")

    def value(self, t: Term, depth: int) -> str:
        """Emit ``t`` and return the local or global name holding its value."""
        if isinstance(t, Var):
            local = self.locals.get(t.name)
            if local is None:
                raise UnboundVariable(f"variable {t.name} is not bound", t.loc)
            return local
        if isinstance(t, IntLit):
            return self.constant(t.value)
        if isinstance(t, SymLit):
            return self.constant(Symbol(t.name))
        out = f"v{self.temps}"
        self.temps += 1
        self.result(t, depth, out, Counter())
        return out

    def condition(self, t: Term, depth: int) -> str:
        """Emit ``t`` and return a Python condition true when it is not nil."""
        if isinstance(t, App) and t.op in _CONDITIONS:
            return self.primitive(_CONDITIONS, t, depth)
        return f"{self.value(t, depth)} is not NIL"

    def expression(self, t: Term, depth: int) -> str:
        """Emit the arguments of ``t`` and return an expression for it."""
        if not isinstance(t, App):
            return self.value(t, depth)
        if t.op in _EXPRESSIONS:
            return self.primitive(_EXPRESSIONS, t, depth)
        record = self.env.defs.get(t.op)
        if record is None:
            raise UnknownOperator(f"unknown operator {t.op}", t.loc)
        want = len(record.defun.params)
        if len(t.args) != want:
            raise BadArity(f"{t.op} takes {want} argument(s), got {len(t.args)}", t.loc)
        args = [self.value(a, depth) for a in t.args]
        name = f"d{record.index}"
        self.env._namespace[name] = record
        return f"{name}.fn({', '.join(['ctr', *args])})"

    def primitive(self, templates: dict[str, str], t: App, depth: int) -> str:
        self.check_arity(t)
        args = [self.value(a, depth) for a in t.args]
        ints = [
            arg if isinstance(a, IntLit) else f"({arg} if isinstance({arg}, int) else 0)"
            for a, arg in zip(t.args, args)
        ]
        template = templates[t.op]
        if t.op == "equal" and any(isinstance(a, SymLit) for a in t.args):
            # Symbols are interned, so equality with one is identity.
            template = template.replace("value_equal({0}, {1})", "{0} is {1}")
        return template.format(*args, **{f"i{k}": v for k, v in enumerate(ints)})

    def check_arity(self, t: App) -> None:
        want = PRIMITIVE_ARITY[t.op]
        if len(t.args) != want:
            raise BadArity(f"{t.op} takes {want} argument(s), got {len(t.args)}", t.loc)

    def constant(self, v: Value) -> str:
        if v is NIL or v is T:
            return v.name.upper()
        name = self.env._constants.get(v)
        if name is None:
            name = f"k{len(self.env._constants)}"
            self.env._constants[v] = name
            self.env._namespace[name] = v
        return name


def _tally(t: Term, ops: Counter) -> None:
    """Count the operators of the region rooted at ``t``: every application
    that runs whenever ``t`` does, which stops at ``if`` branches."""
    if not isinstance(t, App):
        return
    ops[t.op] += 1
    for a in t.args[:1] if t.op == "if" else t.args:
        _tally(a, ops)


# ---------------------------------------------------------------------------
# Entry points


def eval_counting(
    t: Term,
    bindings: dict[str, Value] | None = None,
    defs: DefEnv | None = None,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Value, StepCount]:
    env = defs if defs is not None else DefEnv()
    names = tuple(sorted(bindings)) if bindings else ()
    _raise_recursion_limit()
    fn = env._top_level(t, names)
    count = StepCount(fuel, env)
    return fn(count, *[bindings[n] for n in names]), count


def evaluate(
    t: Term,
    bindings: dict[str, Value] | None = None,
    defs: DefEnv | None = None,
    fuel: int = DEFAULT_FUEL,
) -> Value:
    return eval_counting(t, bindings, defs, fuel)[0]
