"""Total evaluator with step counting.

Semantics are total in the hosted language: ``first``/``rest`` of a
non-pair give nil, arithmetic coerces non-integers to 0, ``zp n`` is t
unless n is a positive integer, and any non-nil value is true in an
``if`` test.  The only runtime error is running out of fuel.

Cost model: every application node visited costs one step (primitives,
``if``, and calls to defined operators alike).  ``if`` pays for its test
and the taken branch only.  Variables and literals are free.

Each defined operator is translated to one generated Python function, and
so is each top-level term (memoized per ``DefEnv``, keyed by the term's
flat shape, computed once per term object and kept on it, and its sorted
binding names, so a term is translated once however often it runs).
Defining an operator only checks it; it is translated when an evaluation
first reaches it (``DefEnv._top_level``), so loading a corpus translates
nothing and an evaluation translates only the operators it can reach,
once each.
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
constant if it is decided; both compare the same coerced integers.  A
connective over decided tests is decided too.  An application of
primitives to constants only (a quoted list, say) folds to one constant
at translation time.  Sharing is safe because primitives are pure and
total; calls to defined operators are never shared or skipped.  A call
goes through its ``_DefRecord`` at call time, so self-recursion works and
a ``DefEnv.copy()`` shares the records: a function generated in one
member of the family serves every member.  A branch
nested deeper than ``_MAX_NESTING`` moves into a function of its own,
which keeps the generated source within Python's indentation limit.

A term is checked once, before it is translated (``_check``): the first
unbound variable, unknown operator or wrong argument count in read order
(left to right, an operator before its arguments) is raised, and a
definition that fails its check leaves the environment as it was.  The
translator therefore raises nothing, and it emits only code that some
path runs: a branch the path decides against is not translated at all.

A guard ``(and p q ...)`` is decided one conjunct at a time, as a decision
tree that tests each constructor once (Maranget, "Compiling pattern
matching to good decision trees", ML 2008).  A conjunct decided on the
path emits no test, and a guard the path decides emits only the branch it
takes.  When the else-branch is an ``if`` whose guard repeats p, as every
``cons``-pattern equation after the first does, the ``if`` branches on p
alone: q's code runs only once p has held, and the else-branch is emitted
twice, once knowing p true and once knowing it false, so on each side its
own guard's p is decided.  That needs q and the conjuncts after it to be
pure (no ``if``, no call), since skipping them must skip no payment and no
call.  Otherwise the undecided conjuncts are emitted first and tested with
one Python ``and``.  Duplication is bounded: an ``if`` splits only when
its else-branch's guard shares the conjunct, and only while the nodes
translated twice in one generated function stay within twice the term's
size, so its translation stays linear.  Payments are untouched: each copy
pays the same regions at sites of its own, a path runs exactly one copy,
and a pure conjunct that is skipped neither pays nor calls.

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

A loop with exactly one looping payment site, of k steps, counts rounds
instead of steps: a round does ``h += 1`` and tests ``h > cap`` only.
``total`` then holds what the other sites paid, the count is ``total + k *
h``, and that is what the loop writes to the ``StepCount`` wherever it
flushes and what its other payments test against ``fuel``.  ``cap =
(fuel - total) // k`` is set at entry, after each call and after each
other payment on a path that may go round again, so ``h > cap`` holds
exactly when ``total + k * h > fuel``, the old test, and totals, tallies
and the fuel outcome are unchanged.  A loop with several looping sites
keeps adding to ``total``.

A ``(cons (first e) (rest e))`` of an ``e`` the path knows to be a pair is
``e`` itself: values are immutable and no primitive observes identity, so
``merge``, ``merge-sort`` and ``avl-insert`` return their argument instead
of rebuilding it.  The application nodes are still paid, since payments
count the term's nodes, not the code.  A loop's destination cells are made
by the loop, never taken from the table, so they stay fresh.

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

``eval_counting`` pauses CPython's cyclic garbage collector while the
generated function runs.  Its gen-0 trigger counts allocations minus
frees, so a run that keeps more than 700 new cells alive (insertion sort
copying a long list, say) would start collections that walk every young
cell and, in turn, full collections over the whole heap.  They could find
nothing: the values generated code builds are acyclic, since pairs are
immutable once returned and a loop's destination cells link only forward,
so every cell a run drops is freed by reference counting.  The
collector's state on entry is restored on every exit, a return or an
exception alike, and one the caller disabled stays disabled.  Only the
run is covered: translation, which builds the generated functions and
their namespace (a reference cycle), runs with the collector as the
caller left it.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from functools import cache
from itertools import islice

from .errors import (
    BadArity,
    DuplicateDefinition,
    StepLimitExceeded,
    UnboundVariable,
    UnknownOperator,
)
from .syntax import App, IntLit, PRIMITIVE_ARITY, RawDefun, SymLit, Term, Var, subterms
from .values import NIL, BlankPair, Pair, Symbol, T, Value, value_compare, value_equal

DEFAULT_FUEL = 10**8
_RECURSION_LIMIT = 20_000_000
# Branches nested deeper than this in one generated function move into a
# function of their own (Python refuses source indented 100 levels deep).
_MAX_NESTING = 40

_PRIMITIVES = [name for name in PRIMITIVE_ARITY]


# The owner of the payment sites of top-level terms in ``self_steps``; no
# operator has this name, since a name cannot hold a parenthesis.
TERM_OWNER = "(term)"


class StepCount:
    """The steps one evaluation took: ``total``, ``per_operator`` and
    ``self_steps``.

    Generated code pays into this object as it runs: it adds to ``total``,
    checks it against ``fuel``, and counts one hit per payment site in
    ``hits``.  ``per_operator`` (the nodes of each operator paid) and
    ``self_steps`` (the steps paid in each defined operator's own body, and
    in top-level terms under ``TERM_OWNER``) are expanded from the hits and
    the sites' counts the first time they are read, since most callers want
    only the value or the total.
    """

    __slots__ = ("total", "fuel", "hits", "_env", "_per", "_self")

    def __init__(self, fuel: int, env: "DefEnv"):
        self.total = 0
        self.fuel = fuel
        self.hits = [0] * len(env.sites)
        self._env = env
        self._per: dict[str, int] | None = None
        self._self: dict[str, int] | None = None

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

    @property
    def self_steps(self) -> dict[str, int]:
        if self._self is None:
            env = self._env
            own: Counter = Counter()
            for owner, site, hits in zip(env.owners, env.sites, self.hits):
                if hits:
                    own[owner] += hits * sum(count for _, count in site)
            self._self = dict(sorted(own.items()))
        return self._self

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepCount):
            return NotImplemented
        return self.total == other.total and self.per_operator == other.per_operator

    def __repr__(self) -> str:
        return f"StepCount(total={self.total}, per_operator={self.per_operator})"


class _DefRecord:
    """A defined operator: its defun, operator index and generated function
    (None until an evaluation first reaches the operator)."""

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
        # index, count) pairs, indexed like ``StepCount.hits``, and the
        # operator whose body it pays in (``TERM_OWNER`` for a term's).
        # Shared by every copy (see ``copy``).
        self.sites: list[tuple[tuple[int, int], ...]] = []
        self.owners: list[str] = []
        # Generated functions' globals: the records and constants they use
        # and their split-off branches, one dictionary for the environment.
        self._namespace = dict(_GLOBALS)
        self._constants: dict[Value, str] = {}
        self._memo: dict[tuple, object] = {}
        # Size facts of admitted operators: the parameter that bounds the
        # result's size (see admissibility._size_fact).
        self.size_bounds: dict[str, int] = {}

    def define(self, d: RawDefun) -> None:
        """Install ``d`` once ``_check`` passes.  Its function is generated
        when an evaluation first reaches it (see ``_top_level``)."""
        if d.name in PRIMITIVE_ARITY:
            raise DuplicateDefinition(f"{d.name} is a primitive", d.loc)
        if d.name in self.defs:
            raise DuplicateDefinition(f"{d.name} is already defined", d.loc)
        _check(d.body, d.params, self, d)
        index = len(self.op_names)
        self.op_names.append(d.name)
        self.op_index[d.name] = index
        record = _DefRecord(d, index)
        self.defs[d.name] = record

    def arity(self, name: str) -> int | None:
        if name in PRIMITIVE_ARITY:
            return PRIMITIVE_ARITY[name]
        record = self.defs.get(name)
        return len(record.defun.params) if record else None

    def copy(self) -> "DefEnv":
        """A child environment sharing existing records.

        Definitions added to the copy are invisible to the original, so it
        is safe for provisional what-if checks.  The copy translates its
        own top-level terms, and the shared records it reaches first, into
        its own namespace.  A record translated in one member of the family
        may run in another, so the payment sites (``sites``, ``owners``)
        are one append-only registry that the copy shares, not copies: a
        site's index means the same in every member.
        """
        child = DefEnv()
        child.defs = dict(self.defs)
        child.op_names = list(self.op_names)
        child.op_index = dict(self.op_index)
        child.sites = self.sites
        child.owners = self.owners
        child.size_bounds = dict(self.size_bounds)
        return child

    def _top_level(self, t: Term, names: tuple[str, ...]):
        """The generated function for a top-level term over ``names``.

        A new term first has each operator it may reach translated, unless
        it has a function already, so a run adds no payment site: the
        ``hits`` of its ``StepCount`` are sized before it starts."""
        key = (_shape(t), names)
        fn = self._memo.get(key)
        if fn is None:
            _check(t, names, self)
            todo = [t]
            while todo:
                for node in subterms(todo.pop()):
                    record = self.defs.get(node.op) if isinstance(node, App) else None
                    if record is not None and record.fn is None:
                        d = record.defun
                        record.fn = _Translator(self, d.params, f"f{record.index}", d.name).translate(d.body)
                        todo.append(d.body)
            fn = _Translator(self, names, f"t{len(self._memo)}").translate(t)
            self._memo[key] = fn
        return fn


def _check(t: Term, names: tuple[str, ...], env: DefEnv, own: RawDefun | None = None) -> None:
    """Raise the first fault of ``t`` in read order, left to right and an
    operator before its arguments: a variable not in ``names``, an unknown
    operator or a wrong argument count.  ``own``, a defun being defined,
    may call itself."""
    for node in subterms(t):
        if isinstance(node, Var):
            if node.name not in names:
                raise UnboundVariable(f"variable {node.name} is not bound", node.loc)
        elif isinstance(node, App):
            want = len(own.params) if own is not None and node.op == own.name else env.arity(node.op)
            if want is None:
                raise UnknownOperator(f"unknown operator {node.op}", node.loc)
            if len(node.args) != want:
                raise BadArity(f"{node.op} takes {want} argument(s), got {len(node.args)}", node.loc)


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


@cache
def _host_function(op: str):
    """Primitive ``op`` as a Python function on values, built from its
    template the first time a ground application of it folds."""
    names = [f"a{k}" for k in range(PRIMITIVE_ARITY[op])]
    args = [f"({a} is not NIL)" for a in names] if op in _CONNECTIVES else names
    ints = {f"i{k}": f"({a} if isinstance({a}, int) else 0)" for k, a in enumerate(names)}
    if op in _CONDITIONS:
        body = f"T if ({_CONDITIONS[op].format(*args, **ints)}) else NIL"
    else:
        body = _VALUES[op].format(*args, **ints)
    return eval(f"lambda {', '.join(names)}: {body}", dict(_GLOBALS))


def _fold(t: Term) -> dict[int, Value]:
    """The value of every ground primitive application in ``t``, keyed by
    node id: applications whose arguments are literals or ground
    applications themselves.  It walks ``t``'s preorder reversed, which
    visits every node after the nodes below it."""
    ground: dict[int, Value] = {}
    for node in reversed(list(subterms(t))):
        if isinstance(node, App) and (node.op in _CONDITIONS or node.op in _VALUES):
            args = [_literal(a) if not isinstance(a, App) else ground.get(id(a)) for a in node.args]
            if None not in args:
                ground[id(node)] = _host_function(node.op)(*args)
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
    The term has passed ``_check``, so every variable is bound and every
    application names a known operator with its arity.

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

    ``budget`` is how many more nodes guards may translate twice, at first
    twice the term's size (see ``split``).
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
        self.loop_sites: list[tuple[int, int]] = []
        self.cells = False
        self.budget = 0
        self.invariant: set[str] = set()
        self.hoisted: dict[tuple, str] = {}
        self.preamble: list[str] = []

    def translate(self, t: Term):
        self.ground = _fold(t)
        self.budget = 2 * _size(t)
        spine = _loop_spine(t, self.op) if self.op else None
        if spine:
            self.loop_function(t, spine)
        else:
            self.function(t, self.name)
        namespace = self.env._namespace
        # Named after the operator, so profiles and tracebacks can say which ran.
        filename = f"<eqthink:{self.op or 'term'}>"
        exec(compile("\n".join(self.functions), filename, "exec"), namespace)
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
        for node in subterms(t):
            if id(node) in spine and node.op == self.op:
                self.invariant -= {p for p, a in zip(self.params, node.args)
                                   if not isinstance(a, Var) or self.locals.get(a.name) != p}
        self.region(t, 2, None, Counter())
        body, self.lines = self.lines, []
        hits = [f"h{site}" for site, _ in self.loop_sites]
        zero = [" = ".join(hits) + " = 0"] if hits else []
        if len(hits) == 1:
            # One looping site of k steps: the total is ``total + k * h``,
            # and ``h > cap`` is ``total + k * h > fuel``.
            [(site, k)] = self.loop_sites
            counted, cap = f"total + {k} * h{site}", [f"cap = (fuel - total) // {k}"]
        else:
            counted, cap = "total", []
        flush = [f"ctr.total = {counted}", *(f"ctr.hits[{s}] += {h}" for (s, _), h in zip(self.loop_sites, hits))]
        self.emit(0, f"def {self.name}({self.signature}):")
        cells = ["root = cell = BlankPair()"] if self.cells else []
        for line in ["total = ctr.total", "fuel = ctr.fuel", *zero, *cap, *cells, *self.preamble]:
            self.emit(1, line)
        self.emit(1, "while True:")
        for line in body:
            if isinstance(line, str):
                self.lines.append(line)
                continue
            depth, *what = line
            if len(what) == 1:
                # A call: the callee pays into ``ctr``; read the total back.
                parts = [*flush, *zero, what[0], "total = ctr.total", *cap]
            else:
                site, steps, looping, ends = what
                rounds = cap and looping
                if rounds:
                    parts = [f"h{site} += 1", f"if h{site} > cap:"]
                else:
                    parts = [f"total += {steps}", f"if {counted} > fuel:"]
                parts += [f"    {part}" for part in flush]
                parts.append("    raise StepLimitExceeded('step limit exceeded')")
                if not rounds:
                    parts.append(f"h{site} += 1" if looping else f"ctr.hits[{site}] += 1")
                    # A path that may go round again needs ``cap`` anew.
                    parts += [] if ends else cap
            for part in parts:
                self.emit(depth, part)
        for part in flush:
            self.emit(1, part)
        if self.cells:
            self.emit(1, "cell.tail = r")
            self.emit(1, "return root.tail")
        else:
            self.emit(1, "return r")
        self.functions.append("\n".join(self.lines))

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
        looping = self.spine is not None and id(t) in self.spine
        self.pay(ops, depth, looping, out is None and not looping)
        self.result(t, depth, out, Counter())

    def pay(self, ops: Counter, depth: int, looping: bool = False, ends: bool = False) -> None:
        """Pay for ``ops``; in a loop, ``looping`` says the path may go
        round again, so the site's hits are counted in a local, and
        ``ends`` that it leaves the loop."""
        steps = sum(ops.values())
        if not steps:
            return
        sites = self.env.sites
        sites.append(tuple((self.env.op_index[op], count) for op, count in ops.items()))
        self.env.owners.append(self.op or TERM_OWNER)
        site = len(sites) - 1
        if self.spine is None:
            self.emit(depth, f"n = ctr.total + {steps}")
            self.emit(depth, "ctr.total = n")
            self.emit(depth, "if n > ctr.fuel: raise StepLimitExceeded('step limit exceeded')")
            self.emit(depth, f"ctr.hits[{site}] += 1")
            return
        if looping:
            self.loop_sites.append((site, steps))
        # How a loop pays, and what it writes to ``ctr`` before raising,
        # depend on its looping sites, known only once it is emitted.
        self.lines.append((depth, site, steps, looping, ends))

    def result(self, t: Term, depth: int, out: str | None, pending: Counter) -> None:
        if isinstance(t, App) and t.op == "if":
            self.decide([t.args[0]], t.args[1], t.args[2], depth, out, pending)
            return
        if out is None and self.spine is not None and id(t) in self.spine:
            self.recur(t, depth)
            return
        self.finish(depth, out, self.expression(t, depth, out))

    def finish(self, depth: int, out: str | None, value: str) -> None:
        """Put ``value`` in ``out``, or end the call with it; a loop ends
        with its value in ``r``, where a call may have put it already."""
        if out is None and self.spine is None:
            self.emit(depth, f"return {value}")
            return
        target = out or "r"
        if value != target:
            self.emit(depth, f"{target} = {value}")
        if out is None:
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
        if heads:
            self.cells = True
            last = first = self.cons(depth, heads[-1])
            for head in reversed(heads[:-1]):
                first = self.cons(depth, head, first)
            self.emit(depth, f"cell.tail = {first}")
            self.emit(depth, f"cell = {last}")
        args = [self.value(a, depth) for a in t.args]
        moved = [(p, a) for p, a in zip(self.params, args) if p != a]
        if moved:
            targets, values = zip(*moved)
            if args.count(values[-1]) == 1:
                values = (*values[:-1], self.take(values[-1], depth))
            self.emit(depth, f"{', '.join(targets)} = {', '.join(values)}")
        self.emit(depth, "continue")

    def take(self, name: str, depth: int) -> str:
        """The expression of ``name`` if the line just emitted assigns it,
        and drop that line: for a value used once, where nothing follows."""
        prefix = "    " * depth + f"{name} = "
        last = self.lines[-1] if self.lines else None
        if isinstance(last, str) and last.startswith(prefix):
            self.lines.pop()
            return last[len(prefix):]
        return name

    def call(self, expression: str, depth: int, out: str | None) -> str:
        """A call to another generated function.  A loop first writes its
        locals to ``ctr``, which the callee pays into, and reads the total
        back afterwards; the call stores its value straight into ``out``,
        or into ``r`` in tail position (see ``finish``)."""
        if self.spine is None:
            return expression
        out = out or "r"
        self.lines.append((depth, f"{out} = {expression}"))
        return out

    def branch(self, t: Term, depth: int, out: str | None, pending: Counter, facts: dict) -> None:
        known = self.known
        self.known = {**known, **facts}
        if depth <= _MAX_NESTING:
            self.region(t, depth, out, pending)
        else:
            self.pay(pending, depth, ends=out is None)
            self.temps += 1
            name = f"{self.name}_{self.temps}"
            self.function(t, name)
            self.finish(depth, out, self.call(f"{name}({self.signature})", depth, out))
        self.known = known

    def value(self, t: Term, depth: int) -> str:
        """Emit ``t`` and return the local or global name holding its value."""
        if isinstance(t, Var):
            return self.locals[t.name]
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

    def decide(self, todo: list[Term], then: Term, other: Term, depth: int, out: str | None,
               pending: Counter) -> None:
        """Emit ``(if (and . todo) then other)``, testing the conjuncts in
        order.  A conjunct the path decides emits no test; once one fails,
        or all hold, only the branch taken is emitted.  When ``other``'s
        guard repeats conjunct c, and the conjuncts after c are ``_pure``,
        branch on c alone (``split``): the rest are tested only once c has
        held, and ``other`` is emitted on both sides of c, each knowing c.
        Otherwise the undecided conjuncts are tested together with a Python
        ``and``, after all their code has run."""
        parts: list[str] = []
        keys: list[tuple] = []
        while todo:
            c = todo.pop(0)
            if isinstance(c, App) and c.op == "and" and self.folded(c) is None:
                todo[:0] = c.args
                continue
            test, more = self.test(c, depth)
            if test == "True":
                continue
            if test == "False":
                # ``and`` is strict: later conjuncts that pay or call still run.
                for a in todo:
                    if not _pure(a):
                        self.test(a, depth)
                self.branch(other, depth, out, pending, {})
                return
            if not parts and depth < _MAX_NESTING and self.split(c, todo, other):
                # In tail position nothing after the ``if`` reads the test.
                self.emit(depth, f"if {self.take(test, depth) if out is None else test}:")
                known = self.known
                self.known = {**known, **dict.fromkeys(more, "True")}
                self.decide(todo, then, other, depth + 1, out, pending)
                self.known = known
                self.emit(depth, "else:")
                self.branch(other, depth + 1, out, pending, dict.fromkeys(more, "False"))
                return
            parts.append(test)
            keys += more
        if not parts:
            self.branch(then, depth, out, pending, {})
            return
        if out is None and len(parts) == 1:
            parts = [self.take(parts[0], depth)]
        self.emit(depth, f"if {' and '.join(parts)}:")
        self.branch(then, depth + 1, out, pending, dict.fromkeys(keys, "True"))
        self.emit(depth, "else:")
        # A false conjunction says nothing about any one of its conjuncts.
        refuted = dict.fromkeys(keys, "False") if len(parts) == 1 else {}
        self.branch(other, depth + 1, out, pending, refuted)

    def split(self, c: Term, todo: list[Term], other: Term) -> bool:
        """Whether to branch on conjunct ``c`` alone: ``other`` is an ``if``
        whose guard has ``c`` as a conjunct too, the conjuncts after ``c``
        are ``_pure``, and the budget of nodes translated twice still holds
        ``other``, which the split spends."""
        if not (isinstance(other, App) and other.op == "if"
                and _shape(c) in map(_shape, _conjuncts(other.args[0]))):
            return False
        size = _size(other, self.budget)
        if size > self.budget or not all(map(_pure, todo)):
            return False
        self.budget -= size
        return True

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
        pair = self.rebuilt(t, depth) if t.op == "cons" else None
        if pair is not None:
            return ("cons", pair), pair
        key, args = self.arguments(t, depth)
        name = self.known.get(key)
        complement = self.known.get((_COMPLEMENTS.get(t.op), *args))
        if name is None and complement is not None:
            # Both compare the same coerced integers, so one is the other negated.
            name = {"True": "False", "False": "True"}.get(complement, f"not {complement}")
            self.known[key] = name
        elif name is None and t.op in _CONNECTIVES and all(a in ("True", "False") for a in args):
            decided = _host_function(t.op)(*(T if a == "True" else NIL for a in args))
            name = "True" if decided is T else "False"
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

    def rebuilt(self, t: App, depth: int) -> str | None:
        """The pair ``e`` that ``t``, a ``(cons (first e) (rest e))``, is
        built of, when the path knows ``e`` is a pair: values are immutable
        and no primitive observes identity, so ``t`` is ``e`` itself.  The
        tail may itself be such a ``cons`` that rebuilds ``(rest e)``.  Only
        a pure ``e`` is emitted here, since emitting it again is free."""
        head, tail = t.args
        e = _field(head, "first")
        if e is None or not _pure(e):
            return None
        pair = self.value(e, depth)
        if self.known.get(("consp", pair)) != "True":
            return None
        rest = _field(tail, "rest")
        if rest is not None and _shape(rest) == _shape(e):
            return pair
        if isinstance(tail, App) and tail.op == "cons":
            inner = _field(tail.args[0], "first")
            if (inner is not None and _shape(inner) == (App, "rest", 1, *_shape(e))
                    and self.rebuilt(tail, depth) is not None):
                return pair
        return None

    def arguments(self, t: App, depth: int) -> tuple[tuple, list[str]]:
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

    def expression(self, t: Term, depth: int, out: str | None) -> str:
        """Emit the arguments of ``t`` and return an expression for it; a
        loop's call to a defined operator stores it in ``out`` (see ``call``)."""
        if not isinstance(t, App) or t.op in _CONDITIONS or self.folded(t) is not None:
            return self.value(t, depth)
        if t.op in _VALUES:
            pair = self.rebuilt(t, depth) if t.op == "cons" else None
            if pair is not None:
                return pair
            key, args = self.arguments(t, depth)
            return self.known.get(key) or self.primitive(t, args, depth)
        record = self.env.defs[t.op]
        args = [self.value(a, depth) for a in t.args]
        name = f"d{record.index}"
        self.env._namespace[name] = record
        return self.call(f"{name}.fn({', '.join(['ctr', *args])})", depth, out)

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


def _loop_spine(body: Term, op: str) -> set[int] | None:
    """The ids of the nodes in tail position of ``body`` that lead, through
    tail positions, to a self-call of ``op``, when every self-call is one
    of them; else None, and the operator is emitted as plain recursion.

    Tail positions are the body, the branches of an ``if`` in tail
    position, and the last argument of a ``cons`` in tail position when
    that argument is itself a ``cons`` or a self-call: a chain of cells
    ends in the next round, never in an ``if``.  A self-call also must not
    sit in a branch split off into a function of its own; the loop's body
    starts at nesting depth 2, and an ``if``'s branches nest at most one
    level deeper per conjunct of its test (see ``_conjuncts``)."""
    order: list[tuple[App, bool]] = []
    spine: set[int] = set()
    stack: list[tuple[Term, bool, int]] = [(body, True, 2)]
    while stack:
        t, tail, depth = stack.pop()
        if not isinstance(t, App):
            continue
        if t.op == op:
            if not tail or depth > _MAX_NESTING:
                return None
            spine.add(id(t))
        order.append((t, tail))
        if t.op == "if":
            # ``decide`` opens at most one Python ``if`` per conjunct of the
            # test, so the branches nest at most that many levels deeper.
            inner = depth + sum(1 for _ in _conjuncts(t.args[0]))
            stack += [(t.args[0], False, depth), (t.args[1], tail, inner), (t.args[2], tail, inner)]
        elif t.op == "cons":
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


def _field(t: Term, op: str) -> Term | None:
    """The argument of ``t`` if ``t`` is ``(op e)``."""
    return t.args[0] if isinstance(t, App) and t.op == op else None


def _size(t: Term, limit: int | None = None) -> int:
    """The number of nodes of ``t``, counting no further than past ``limit``."""
    return sum(1 for _ in islice(subterms(t), None if limit is None else limit + 1))


def _pure(t: Term) -> bool:
    """Whether ``t`` applies primitives other than ``if`` only: its code
    pays nothing and calls nothing, so a path may skip it."""
    return all(not isinstance(node, App) or node.op in _CONDITIONS or node.op in _VALUES
               for node in subterms(t))


def _conjuncts(test: Term):
    """The conjuncts of ``test``, nested ``and``s read as one conjunction."""
    stack = [test]
    while stack:
        t = stack.pop()
        if isinstance(t, App) and t.op == "and":
            stack += reversed(t.args)
        else:
            yield t


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
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(count, *[bindings[n] for n in names]), count
    finally:
        if enabled:
            gc.enable()


def evaluate(
    t: Term,
    bindings: dict[str, Value] | None = None,
    defs: DefEnv | None = None,
    fuel: int = DEFAULT_FUEL,
) -> Value:
    return eval_counting(t, bindings, defs, fuel)[0]
