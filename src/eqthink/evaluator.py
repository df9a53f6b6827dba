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
runs).  Parameters and bindings become Python locals, and the primitives
are inlined as Python expressions over locals.  Each primitive is computed
once per path: the translator keeps a table from a primitive application
(its operator and the names of its arguments) and from each integer
coercion to the local that already holds the result.  An entry made in a
region holds in every branch nested inside it and is dropped when that
branch is left.  Inside an ``if``'s then-branch each conjunct of its test
is known true, inside the else-branch a single test is known false: a
test already decided on the path emits as a constant, and ``first``/``rest``
of a local known to be a pair read ``.head``/``.tail`` directly.  An ``and``
in test position is a Python ``and`` over its conjuncts' conditions.  An
application of primitives to constants only (a quoted list, say) folds to
one constant at translation time.  Sharing is safe because primitives are
pure and total; calls to defined operators are never shared or skipped.
A call goes through its ``_DefRecord`` at call time, so self-recursion
works and a ``DefEnv.copy()`` shares the functions already generated.
A branch nested deeper than
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
between a test that defers and the payment that covers it.  Payments are
counted from the term's nodes, not from the emitted code, so a shared
result, a decided test or a folded constant changes what runs but not
what is paid: the totals, tallies and fuel outcome stay those of one step
per node.

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
        # Size facts of admitted operators: the parameter that bounds the
        # result's size (see admissibility._size_fact).
        self.size_bounds: dict[str, int] = {}

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
        child.size_bounds = dict(self.size_bounds)
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
# Primitives as Python source.  The connectives take conditions {0} and
# {1}; the other primitives take values {0} and {1}, and {i0} and {i1} are
# those values coerced to integers.

_CONNECTIVES = {
    "not": "not {0}",
    "and": "{0} and {1}",
    "or": "{0} or {1}",
    "implies": "not {0} or {1}",
    "xor": "({0}) != ({1})",
    "nand": "not ({0} and {1})",
    "nor": "not ({0} or {1})",
}

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
    "before": "value_compare({0}, {1}) < 0",
    **_CONNECTIVES,
}

# The other primitives, as Python expressions for their values.
_VALUES = {
    "cons": "Pair({0}, {1})",
    "first": "{0}.head if isinstance({0}, Pair) else NIL",
    "rest": "{0}.tail if isinstance({0}, Pair) else NIL",
    "+": "{i0} + {i1}",
    "-": "{i0} - {i1}",
    "*": "{i0} * {i1}",
    "1+": "{i0} + 1",
    "1-": "{i0} - 1",
}
_ARITHMETIC = {"+", "-", "*", "1+", "1-"}


def _host_function(op: str):
    """Primitive ``op`` as a Python function on values, built from its
    template, to fold ground applications at translation time."""
    names = [f"a{k}" for k in range(PRIMITIVE_ARITY[op])]
    args = [f"({a} is not NIL)" for a in names] if op in _CONNECTIVES else names
    ints = {f"i{k}": f"({a} if isinstance({a}, int) else 0)" for k, a in enumerate(names)}
    if op in _CONDITIONS:
        body = f"T if ({_CONDITIONS[op].format(*args, **ints)}) else NIL"
    else:
        body = _VALUES[op].format(*args, **ints)
    return eval(f"lambda {', '.join(names)}: {body}", dict(_GLOBALS))


_HOST = {op: _host_function(op) for op in (*_CONDITIONS, *_VALUES)}


def _fold(t: Term) -> dict[int, Value]:
    """The value of every ground primitive application in ``t``, keyed by
    node id: applications of the right arity whose arguments are literals
    or ground applications themselves.  One postorder pass, no recursion."""
    ground: dict[int, Value] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        if not isinstance(node, App):
            continue
        if not done:
            stack.append((node, True))
            stack += ((a, False) for a in node.args)
            continue
        host = _HOST.get(node.op)
        if host is None or len(node.args) != PRIMITIVE_ARITY[node.op]:
            continue
        args = [_literal(a) if not isinstance(a, App) else ground.get(id(a)) for a in node.args]
        if None not in args:
            ground[id(node)] = host(*args)
    return ground


def _literal(t: Term) -> Value | None:
    if isinstance(t, IntLit):
        return t.value
    if isinstance(t, SymLit):
        return Symbol(t.name)
    return None


# ---------------------------------------------------------------------------
# Translation to Python source


class _Translator:
    """Emits the Python function for one term over positional parameters.

    No text of the term reaches the source: parameters, records and
    constants appear under generated names (``a0``, ``d25``, ``k3``).
    Errors are raised in the order the term is read: left to right, an
    operator before its arguments.

    ``known`` is the table of what the path being emitted has computed: a
    primitive application's key (its operator and argument names, or
    ``("int", name)`` for an integer coercion) maps to the name holding
    its value, a Python bool for a test, or to ``True``/``False`` for a
    test the path has decided.  A branch extends the table and drops its
    entries on the way out.
    """

    def __init__(self, env: DefEnv, params, name: str):
        self.env = env
        self.name = name
        self.locals = {p: f"a{i}" for i, p in enumerate(params)}
        self.signature = ", ".join(["ctr", *(f"a{i}" for i in range(len(params)))])
        self.lines: list[str] = []
        self.functions: list[str] = []
        self.temps = 0
        self.known: dict[tuple, str] = {}
        self.ground: dict[int, Value] = {}

    def translate(self, t: Term):
        self.ground = _fold(t)
        self.function(t, self.name)
        namespace = self.env._namespace
        exec("\n".join(self.functions), namespace)
        return namespace[self.name]

    def function(self, t: Term, name: str) -> None:
        outer, known = self.lines, self.known
        self.lines = [f"def {name}({self.signature}):"]
        self.known = {}
        self.region(t, 1, None, Counter())
        self.functions.append("\n".join(self.lines))
        self.lines, self.known = outer, known

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def temp(self) -> str:
        self.temps += 1
        return f"v{self.temps}"

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
            test, keys = self.condition(t.args[0], depth)
            conjunction = isinstance(t.args[0], App) and t.args[0].op == "and"
            self.emit(depth, f"if {test}:")
            self.branch(t.args[1], depth + 1, out, pending, dict.fromkeys(keys, "True"))
            self.emit(depth, "else:")
            # A false conjunction says nothing about any one conjunct.
            refuted = {} if conjunction else dict.fromkeys(keys, "False")
            self.branch(t.args[2], depth + 1, out, pending, refuted)
            return
        value = self.expression(t, depth)
        self.emit(depth, f"return {value}" if out is None else f"{out} = {value}")

    def branch(self, t: Term, depth: int, out: str | None, pending: Counter, facts: dict) -> None:
        known = self.known
        self.known = {**known, **facts}
        if depth <= _MAX_NESTING:
            self.region(t, depth, out, pending)
        else:
            self.pay(pending, depth)
            self.temps += 1
            name = f"{self.name}_{self.temps}"
            self.function(t, name)
            call = f"{name}({self.signature})"
            self.emit(depth, f"return {call}" if out is None else f"{out} = {call}")
        self.known = known

    def value(self, t: Term, depth: int) -> str:
        """Emit ``t`` and return the local or global name holding its value."""
        if isinstance(t, Var):
            local = self.locals.get(t.name)
            if local is None:
                raise UnboundVariable(f"variable {t.name} is not bound", t.loc)
            return local
        ground = self.folded(t)
        if ground is not None:
            return self.constant(ground)
        if t.op in _CONDITIONS:
            test = self.test(t, depth)[0]
            if test in ("True", "False"):
                return "T" if test == "True" else "NIL"
            out = self.temp()
            self.emit(depth, f"{out} = T if {test} else NIL")
            return out
        if t.op in _VALUES:
            return self.share(t, depth)[1]
        out = self.temp()
        self.result(t, depth, out, Counter())
        return out

    def folded(self, t: Term) -> Value | None:
        """The value of ``t`` if it is ground, else None."""
        return self.ground.get(id(t)) if isinstance(t, App) else _literal(t)

    def condition(self, t: Term, depth: int) -> tuple[str, list[tuple]]:
        """Emit the test ``t`` and return a Python condition true when it is
        not nil, with the table keys of the tests it is a conjunction of.
        An ``and`` becomes a Python ``and`` over its conjuncts."""
        if not (isinstance(t, App) and t.op == "and") or self.folded(t) is not None:
            return self.test(t, depth)
        self.check_arity(t)
        parts, keys = [], []
        for a in t.args:
            part, more = self.condition(a, depth)
            parts.append(part)
            keys += more
        if "False" in parts:
            return "False", keys
        return " and ".join(p for p in parts if p != "True") or "True", keys

    def test(self, t: Term, depth: int) -> tuple[str, list[tuple]]:
        """Emit ``t`` and return a Python condition atom true when it is not
        nil, with its table key if it is a test."""
        ground = self.folded(t)
        if ground is not None:
            return ("False" if ground is NIL else "True"), []
        if isinstance(t, App) and t.op in _CONDITIONS:
            key, name = self.share(t, depth)
            return name, [key]
        value = self.value(t, depth)
        return f"{value} is not NIL", []

    def share(self, t: App, depth: int) -> tuple[tuple, str]:
        """Emit primitive application ``t`` unless the table holds it, and
        return its key and the name holding its value."""
        key, args = self.arguments(t, depth)
        name = self.known.get(key)
        if name is None:
            name = self.temp()
            self.emit(depth, f"{name} = {self.primitive(t, args, depth)}")
            self.known[key] = name
            if t.op in _ARITHMETIC:
                self.known[("int", name)] = name
        return key, name

    def arguments(self, t: App, depth: int) -> tuple[tuple, list[str]]:
        self.check_arity(t)
        if t.op in _CONNECTIVES:
            args = [self.test(a, depth)[0] for a in t.args]
        else:
            args = [self.value(a, depth) for a in t.args]
        return (t.op, *args), args

    def primitive(self, t: App, args: list[str], depth: int) -> str:
        """A Python expression for ``t`` over its emitted arguments."""
        if t.op in ("first", "rest"):
            pair = self.known.get(("consp", args[0]), f"isinstance({args[0]}, Pair)")
            field = f"{args[0]}.{'head' if t.op == 'first' else 'tail'}"
            return {"True": field, "False": "NIL"}.get(pair, f"{field} if {pair} else NIL")
        template = _CONDITIONS.get(t.op) or _VALUES[t.op]
        if t.op == "equal" and any(isinstance(a, SymLit) for a in t.args):
            # Symbols are interned, so equality with one is identity.
            template = "{0} is {1}"
        ints = {}
        if "{i" in template:
            ints = {f"i{k}": self.integer(arg, depth) for k, arg in enumerate(args)}
        return template.format(*args, **ints)

    def integer(self, name: str, depth: int) -> str:
        """The name holding ``name``'s value coerced to an integer."""
        key = ("int", name)
        coerced = self.known.get(key)
        if coerced is None:
            coerced = self.temp()
            self.emit(depth, f"{coerced} = {name} if isinstance({name}, int) else 0")
            self.known[key] = coerced
        return coerced

    def expression(self, t: Term, depth: int) -> str:
        """Emit the arguments of ``t`` and return an expression for it."""
        if not isinstance(t, App) or t.op in _CONDITIONS or self.folded(t) is not None:
            return self.value(t, depth)
        if t.op in _VALUES:
            key, args = self.arguments(t, depth)
            return self.known.get(key) or self.primitive(t, args, depth)
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

    def check_arity(self, t: App) -> None:
        want = PRIMITIVE_ARITY[t.op]
        if len(t.args) != want:
            raise BadArity(f"{t.op} takes {want} argument(s), got {len(t.args)}", t.loc)

    def constant(self, v: Value) -> str:
        if v is NIL or v is T:
            name = v.name.upper()
        else:
            name = self.env._constants.get(v)
            if name is None:
                name = f"k{len(self.env._constants)}"
                self.env._constants[v] = name
                self.env._namespace[name] = v
        self.known[("int", name)] = name if isinstance(v, int) else "0"
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
