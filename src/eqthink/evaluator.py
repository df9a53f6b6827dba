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
so is each top-level term (memoized per ``DefEnv``, keyed by the term's
flat shape, computed once per term object and kept on it, and its sorted
binding names, so a term is translated once however often it runs).
Parameters and bindings become Python locals, and the primitives are
inlined as Python expressions over locals.  Each primitive is computed
once per path: the translator keeps a table from a primitive application
(its operator and the names of its arguments) and from each integer
coercion to the local that already holds the result.  An entry made in a
region holds in every branch nested inside it and is dropped when that
branch is left.  Inside an ``if``'s then-branch each conjunct of its test
is known true, inside the else-branch a single test is known false: a
test already decided on the path emits as a constant, and ``first``/``rest``
of a local known to be a pair read ``.head``/``.tail`` directly.  An integer
relation whose complement over the same argument names is on the path
(``<`` and ``>=``, ``<=`` and ``>``) is that test negated, or the flipped
constant if it is decided; both compare the same coerced integers.  An
``and`` in test position is a Python ``and`` over its conjuncts'
conditions.  An application of primitives to constants only (a quoted
list, say) folds to one constant at translation time.  Sharing is safe
because primitives are pure and total; calls to defined operators are
never shared or skipped.  A call goes through its ``_DefRecord`` at call
time, so self-recursion works and a ``DefEnv.copy()`` shares the functions
already generated.  A branch nested deeper than ``_MAX_NESTING`` moves
into a function of its own, which keeps the generated source within
Python's indentation limit.

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

A defined operator whose every self-call sits in tail position (its body,
or a branch of an ``if`` in tail position) or as the last argument of a
chain of ``cons`` in tail position is emitted as one ``while`` loop: tail
recursion modulo cons (Friedman and Wise, 1975; Leijen and Lorenzen, POPL
2023).  A self-call rebinds the parameters it changes and goes round
again.  The ``cons`` cells above it are built destination-passing after a
head cell, whose tail the loop returns: a round links its new cells in
after the last one, and the round that ends stores its value as the last
tail.  The loop writes only cells it made and has not yet returned, an
unfilled cell never enters the per-path table, and running out of fuel
drops the partial list with the exception.  An operator with a
self-call anywhere else (an argument, a ``cons`` head, a test, an ``if``
under a ``cons``, or a branch split off at ``_MAX_NESTING``) stays
recursive.  Each round pays what the call it replaces paid, at the same
sites, and checks the fuel at every payment, so totals, tallies and the
fuel outcome are unchanged.  Only where the counts are kept moves:
``total`` and the hits of the payments that can go round again are Python
locals, written to the ``StepCount`` before a call to another generated
function (which pays into it), before raising ``StepLimitExceeded``, and at
the end.

A parameter that every self-call passes on unchanged is invariant, and its
integer coercion is computed once, before the ``while``, for every round
and branch.  Only coercions move: one is total and reads only the
parameter, so it holds on every path, while a ``first`` emitted under a
path fact reads ``.head``, which only that path allows.

A ``cons`` is emitted as three statements, ``v = BlankPair()``,
``v.head = h`` and ``v.tail = t``.  The last cell of a chain a loop builds
gets only the first two; its tail is stored by the next round or at the
exit, before anything reads it.  ``Pair(h, t)`` would enter a Python frame
for ``Pair.__init__`` on every cell (CPython 3.11 does not specialise class
instantiation), which about doubles the cost of a cell; ``BlankPair`` is a
``Pair`` whose ``__init__`` is C code.  A folded constant is still made by
``Pair``.

Evaluation runs as plain calls on the caller's thread: the generated
functions only call Python functions, which CPython 3.11+ runs without
growing the C stack.  Deep structural recursion over long lists therefore
needs only a high recursion limit, which ``eval_counting`` raises before
it translates or runs anything; a loop needs no frame per round at all.
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
from .values import NIL, BlankPair, Pair, Symbol, T, Value, value_compare, value_equal

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
    """A defined operator: its defun, operator index and generated function."""

    __slots__ = ("defun", "index", "fn")

    def __init__(self, defun: RawDefun, index: int):
        self.defun = defun
        self.index = index
        self.fn = None


# The names generated code refers to besides its records and constants.
_GLOBALS = {
    "Pair": Pair,
    "BlankPair": BlankPair,
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
        record.fn = _Translator(self, d.params, f"f{index}", d.name).translate(d.body)

    def arity(self, name: str) -> int | None:
        if name in PRIMITIVE_ARITY:
            return PRIMITIVE_ARITY[name]
        record = self.defs.get(name)
        return len(record.defun.params) if record else None

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


def _shape(term: Term) -> tuple:
    """A term as a flat preorder tuple, to key the memo of top-level terms.

    Terms hash and compare through C recursion, which overflows the C
    stack on nests some ten thousand deep; a flat tuple does not recurse.
    It is computed once per term object: an ``App`` keeps it in ``shape``.
    """
    shape = getattr(term, "shape", None)
    if shape is None:
        out, stack = [], [term]
        while stack:
            t = stack.pop()
            if isinstance(t, App):
                out += (App, t.op, len(t.args))
                stack += reversed(t.args)
            else:
                out += (type(t), t.value if isinstance(t, IntLit) else t.name)
        shape = tuple(out)
        if isinstance(term, App):
            object.__setattr__(term, "shape", shape)
    return shape


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

# The other primitives, as Python expressions for their values.  Generated
# code builds a ``cons`` as statements instead (``_Translator.cons``); the
# template folds ground ones.
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
# Integer relations and their complements over the same operands.
_COMPLEMENTS = {"<": ">=", ">=": "<", "<=": ">", ">": "<="}


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
    test the path has decided; a relation may map to its complement's
    condition negated.  A branch extends the table and drops its entries on
    the way out.

    A defined operator ``op`` whose self-calls all sit on the loop spine
    (see ``_loop_spine``) is emitted as one ``while`` loop instead: while
    ``spine`` is set, the function being emitted is that loop.  The
    coercions of its ``invariant`` parameters are kept in ``hoisted``,
    which no branch drops, and emitted in ``preamble``, before the loop.
    """

    def __init__(self, env: DefEnv, params, name: str, op: str | None = None):
        self.env = env
        self.name = name
        self.op = op
        self.params = [f"a{i}" for i in range(len(params))]
        self.locals = dict(zip(params, self.params))
        self.signature = ", ".join(["ctr", *self.params])
        self.lines: list = []
        self.functions: list[str] = []
        self.temps = 0
        self.known: dict[tuple, str] = {}
        self.ground: dict[int, Value] = {}
        self.spine: set[int] | None = None
        self.loop_sites: list[int] = []
        self.cells = False
        self.invariant: set[str] = set()
        self.hoisted: dict[tuple, str] = {}
        self.preamble: list[str] = []

    def translate(self, t: Term):
        self.ground = _fold(t)
        spine = _loop_spine(t, self.op, len(self.params)) if self.op else None
        if spine:
            self.loop_function(t, spine)
        else:
            self.function(t, self.name)
        namespace = self.env._namespace
        exec("\n".join(self.functions), namespace)
        return namespace[self.name]

    def function(self, t: Term, name: str) -> None:
        outer, known, spine = self.lines, self.known, self.spine
        self.lines = [f"def {name}({self.signature}):"]
        self.known = {}
        self.spine = None
        self.region(t, 1, None, Counter())
        self.functions.append("\n".join(self.lines))
        self.lines, self.known, self.spine = outer, known, spine

    def loop_function(self, t: Term, spine: set[int]) -> None:
        """Emit the operator as one loop: a self-call rebinds the parameters
        and goes round again, and a ``cons`` chain above it is linked in
        after ``cell``, the last cell so far, whose tail the next round or
        the exit fills (``root`` is the head cell, whose tail is the value).
        ``total`` and the hits of payments that can go round again live in
        locals, flushed to ``ctr`` before a call, before raising and at the
        end; a round that ends puts its value in ``r``."""
        self.spine = spine
        self.invariant = set(self.params)
        stack = [t]
        while stack:
            node = stack.pop()
            if node.op == self.op:
                self.invariant -= {p for p, a in zip(self.params, node.args)
                                   if not isinstance(a, Var) or self.locals.get(a.name) != p}
            stack += (a for a in node.args if id(a) in spine)
        self.region(t, 2, None, Counter())
        body, self.lines = self.lines, []
        flush = ["ctr.total = total", *(f"ctr.hits[{s}] += h{s}" for s in self.loop_sites)]
        zero = [" = ".join(f"h{s}" for s in self.loop_sites) + " = 0"] if self.loop_sites else []
        self.emit(0, f"def {self.name}({self.signature}):")
        cells = ["root = cell = BlankPair()"] if self.cells else []
        for line in ["total = ctr.total", "fuel = ctr.fuel", *zero, *cells, *self.preamble]:
            self.emit(1, line)
        self.emit(1, "while True:")
        for line in body:
            if isinstance(line, tuple):
                depth, before_call = line
                for part in flush + zero if before_call else flush:
                    self.emit(depth, part)
            else:
                self.lines.append(line)
        for part in flush:
            self.emit(1, part)
        if self.cells:
            self.emit(1, "cell.tail = r")
            self.emit(1, "return root.tail")
        else:
            self.emit(1, "return r")
        self.functions.append("\n".join(self.lines))

    def flush(self, depth: int, before_call: bool = False) -> None:
        """Mark where the loop writes its locals to ``ctr``; the loop's
        payment sites are known only once it is emitted."""
        self.lines.append((depth, before_call))

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
        self.pay(ops, depth, self.spine is not None and id(t) in self.spine)
        self.result(t, depth, out, Counter())

    def pay(self, ops: Counter, depth: int, looping: bool = False) -> None:
        """Pay for ``ops``; in a loop, ``looping`` says the path may go
        round again, so the site's hits are counted in a local."""
        steps = sum(ops.values())
        if not steps:
            return
        sites = self.env.sites
        # An unknown operator has no index; translating it raises.
        sites.append(tuple(
            (self.env.op_index[op], count) for op, count in ops.items() if op in self.env.op_index
        ))
        site = len(sites) - 1
        if self.spine is None:
            self.emit(depth, f"n = ctr.total + {steps}")
            self.emit(depth, "ctr.total = n")
            self.emit(depth, "if n > ctr.fuel: raise StepLimitExceeded('step limit exceeded')")
            self.emit(depth, f"ctr.hits[{site}] += 1")
            return
        self.emit(depth, f"total += {steps}")
        self.emit(depth, "if total > fuel:")
        self.flush(depth + 1)
        self.emit(depth + 1, "raise StepLimitExceeded('step limit exceeded')")
        if looping:
            self.loop_sites.append(site)
            self.emit(depth, f"h{site} += 1")
        else:
            self.emit(depth, f"ctr.hits[{site}] += 1")

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
        if out is None and self.spine is not None and id(t) in self.spine:
            self.recur(t, depth)
            return
        self.finish(depth, out, self.expression(t, depth))

    def finish(self, depth: int, out: str | None, value: str) -> None:
        """Put ``value`` in ``out``, or end the call with it."""
        if out is not None:
            self.emit(depth, f"{out} = {value}")
        elif self.spine is None:
            self.emit(depth, f"return {value}")
        else:
            self.emit(depth, f"r = {value}")
            self.emit(depth, "break")

    def recur(self, t: App, depth: int) -> None:
        """Emit a self-call under a chain of ``cons`` heads (none, for a
        plain tail call) as the next round of the loop.  The chain's cells
        are new, filled in order, and linked in after ``cell``, which starts
        as a head cell that is never returned; the last cell's tail is left
        for the next round or the exit to store, and no unfilled cell enters
        ``known``."""
        heads = []
        while t.op == "cons":
            heads.append(self.value(t.args[0], depth))
            t = t.args[1]
        args = [self.value(a, depth) for a in t.args]
        if heads:
            self.cells = True
            last = first = self.cons(depth, heads[-1])
            for head in reversed(heads[:-1]):
                first = self.cons(depth, head, first)
            self.emit(depth, f"cell.tail = {first}")
            self.emit(depth, f"cell = {last}")
        moved = [(p, a) for p, a in zip(self.params, args) if p != a]
        if moved:
            self.emit(depth, f"{', '.join(p for p, _ in moved)} = {', '.join(a for _, a in moved)}")
        self.emit(depth, "continue")

    def call(self, expression: str, depth: int) -> str:
        """A call to another generated function.  A loop first writes its
        locals to ``ctr``, which the callee pays into, and reads the total
        back afterwards."""
        if self.spine is None:
            return expression
        self.flush(depth, before_call=True)
        out = self.temp()
        self.emit(depth, f"{out} = {expression}")
        self.emit(depth, "total = ctr.total")
        return out

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
            self.finish(depth, out, self.call(f"{name}({self.signature})", depth))
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
        """Emit primitive application ``t`` unless the table holds it or
        its complement, and return its key and the name holding its value
        (a condition, for a test)."""
        key, args = self.arguments(t, depth)
        name = self.known.get(key)
        complement = self.known.get((_COMPLEMENTS.get(t.op), *args))
        if name is None and complement is not None:
            # Both compare the same coerced integers, so one is the other negated.
            name = {"True": "False", "False": "True"}.get(complement, f"not {complement}")
            self.known[key] = name
        elif name is None:
            if t.op == "cons":
                name = self.cons(depth, *args)
            else:
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
        if t.op == "cons":
            return self.cons(depth, *args)
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

    def cons(self, depth: int, head: str, tail: str | None = None) -> str:
        """Emit a new pair in a fresh local and return its name:
        ``BlankPair()`` and two slot stores, which enter no Python frame,
        where ``Pair(head, tail)`` enters its ``__init__``.  Without a
        ``tail``, a loop stores it later."""
        cell = self.temp()
        self.emit(depth, f"{cell} = BlankPair()")
        self.emit(depth, f"{cell}.head = {head}")
        if tail is not None:
            self.emit(depth, f"{cell}.tail = {tail}")
        return cell

    def integer(self, name: str, depth: int) -> str:
        """The name holding ``name``'s value coerced to an integer.  In a
        loop, that of an invariant parameter goes in the preamble, and every
        round and branch reuses it."""
        hoist = self.spine is not None and name in self.invariant
        table = self.hoisted if hoist else self.known
        key = ("int", name)
        coerced = table.get(key)
        if coerced is None:
            coerced = self.temp()
            line = f"{coerced} = {name} if isinstance({name}, int) else 0"
            if hoist:
                self.preamble.append(line)
            else:
                self.emit(depth, line)
            table[key] = coerced
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
        return self.call(f"{name}.fn({', '.join(['ctr', *args])})", depth)

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


def _loop_spine(body: Term, op: str, arity: int) -> set[int] | None:
    """The ids of the nodes in tail position of ``body`` that lead, through
    tail positions, to a self-call of ``op``, when every self-call is one
    of them; else None, and the operator is emitted as plain recursion.

    Tail positions are the body, the branches of an ``if`` in tail
    position, and the last argument of a ``cons`` in tail position when
    that argument is itself a ``cons`` or a self-call: a chain of cells
    ends in the next round, never in an ``if``.  A self-call also must not
    sit in a branch split off into a function of its own; the loop's body
    starts at nesting depth 2."""
    order: list[tuple[App, bool]] = []
    spine: set[int] = set()
    stack: list[tuple[Term, bool, int]] = [(body, True, 2)]
    while stack:
        t, tail, depth = stack.pop()
        if not isinstance(t, App):
            continue
        if t.op == op:
            if not tail or depth > _MAX_NESTING or len(t.args) != arity:
                return None
            spine.add(id(t))
        order.append((t, tail))
        if t.op == "if" and len(t.args) == 3:
            stack += [(t.args[0], False, depth), (t.args[1], tail, depth + 1), (t.args[2], tail, depth + 1)]
        elif t.op == "cons" and len(t.args) == 2:
            last = t.args[1]
            chained = tail and isinstance(last, App) and last.op in ("cons", op)
            stack += [(t.args[0], False, depth), (last, chained, depth)]
        else:
            stack += [(a, False, depth) for a in t.args]
    if not spine:
        return None
    # Preorder reversed visits every node after the nodes below it.
    for t, tail in reversed(order):
        if tail and t.op in ("if", "cons") and any(id(a) in spine for a in t.args[1:]):
            spine.add(id(t))
    return spine


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
