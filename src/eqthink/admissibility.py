"""Admissibility checking for equation-defined operators.

A definition earns its way into the evaluation environment by passing
three checks.  Each check first decides its question statically; trials
probe only what the static step leaves open, on the _CHECK_TRIALS
smallest inputs in the order of ``_inputs``, as SmallCheck does (Runciman,
Naylor and Lindblad, 2008).  Trials can still refute a definition with
its smallest witness, but they earn at most TestedOnly, and no verdict
depends on a seed.

* consistent -- no two equations can disagree on a shared input.  Pattern
  vectors that cannot unify are disjoint.  A unifiable pair is disjoint
  when the guard decision below shows that its two guards, instantiated at
  the unifier, cannot both hold.  A ground overlap is evaluated once:
  Proved when both sides agree, Failed when they disagree, TestedOnly
  without trials when the evaluation raises.  Any other overlap is probed
  with the smallest instances of the unified patterns, up to the first
  instance that runs out of fuel.
* comprehensive -- the equations cover the declared parameter domains
  (from a ``sig`` directive; domains are nat, list, or any).  Coverage is
  judged by case analysis on the domain constructors: nat into points
  (every number below the deepest (1+ ...) wrap, each numeral, and the
  least other number) and one case for all other numbers, list into
  nil/cons, any into nil/cons/other atoms, and a cons pattern is
  taken at face value for the cons case (its sub-patterns are the
  definition's own business; inputs outside every equation fall back to
  nil at run time).  A case that only guarded equations reach is covered
  when their guards, instantiated at the case, form a tautology;
  otherwise coverage is probed with trials.
* constructive -- every self-call, in a right-hand side or a guard, must
  shrink.  Size counts cons cells plus the value of a positive integer,
  and a size bound of a term is a constant plus a multiset of variables:
  cons and 1+ add one to their arguments' bounds, first, rest and 1- keep
  their argument's bound, a literal is a constant, and a call of an
  operator with a size fact takes the bound of its bounding argument.
  After simplification (below), each argument's bound must be at most
  its pattern's size, and at least one must have a smaller constant, so
  the total size of the arguments falls at every call.  Only when that
  fails is a ``measure`` directive consulted: its strict decrease is
  tested on the smallest inputs (verdict TestedOnly).  A definition proved
  constructive statically may earn a size fact: a parameter i with
  size(f(args)) <= size(args[i]) on every input, proved by induction over
  the equations (each right-hand side's bound is at most pattern i's
  size, a self-call counting as its own argument i).

Simplification decides constructor facts ((consp (cons a b)) is t,
(consp nil) and (equal (cons a b) nil) are nil), folds connectives and
conditionals whose arguments it decides, evaluates ground applications
once, unfolds every call of an operator whose body calls no defined
operator, and unfolds a call of a recursive operator one level when
every test in its body decides: (evens (cons x (cons y ys))) becomes
(cons x (evens ys)).  The guard decision simplifies each guard and
turns what remains into a boolean circuit, whose truth table
``circuits.truth_table`` enumerates.  The relations < <= = > >= compare
integer coercions, so over one pair of arguments exactly one of <, = and
> holds: such atoms read the pair's two ports lt and gt (< is lt, = is
(nor lt gt)), and a validity conjunct (nand lt gt) drops the fourth
combination.  Every other atom is one independent port.  The table may
include assignments no input realizes, never the reverse, so "cannot
both hold" and "one always holds" are sound.

Each check yields Proved, TestedOnly, or Failed, with a concrete witness
on failure.  Compilation turns an admitted definition into one defun
whose body tries the equations in order as nested conditionals; adjacent
equations with identical right-hand sides share a branch.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import reduce
from itertools import chain, count, islice, product

from . import circuits
from .errors import BadArity, EvalError, MissingSignature, StepLimitExceeded
from .evaluator import DefEnv, _check, _host_function, evaluate
from .records import Record, set_field
from .syntax import (
    PRIMITIVE_ARITY,
    App,
    DefEquations,
    Equation,
    IntLit,
    NIL_LIT,
    RawDefun,
    SymLit,
    T_LIT,
    Term,
    Var,
    parse_term,
    pattern_vars,
    print_defun,
    print_term,
    substitute,
    subterms,
    term_vars,
)
from .values import NIL, T, Pair, Symbol, Value, from_list, print_value, value_equal

PROVED = "Proved"
TESTED = "TestedOnly"
FAILED = "Failed"

_CHECK_FUEL = 200_000
# Inputs a check tries when the static step leaves it open.
_CHECK_TRIALS = 1000
# The guard decision gives up (and leaves the question to trials) beyond
# this many truth assignments.
_MAX_ASSIGNMENTS = 4096


class CheckResult(Record):
    __slots__ = _fields = ("verdict", "detail", "witness")

    def __init__(self, verdict: str, detail: str = "", witness: str | None = None):
        set_field(self, "verdict", verdict)
        set_field(self, "detail", detail)
        set_field(self, "witness", witness)

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class AdmissibilityReport(Record):
    __slots__ = ("name", "consistent", "comprehensive", "constructive", "compiled", "env")
    _fields = ("name", "consistent", "comprehensive", "constructive", "compiled")

    def __init__(
        self,
        name: str,
        consistent: CheckResult,
        comprehensive: CheckResult,
        constructive: CheckResult,
        compiled: RawDefun | None,
        env: DefEnv | None = None,
    ):
        set_field(self, "name", name)
        set_field(self, "consistent", consistent)
        set_field(self, "comprehensive", comprehensive)
        set_field(self, "constructive", constructive)
        set_field(self, "compiled", compiled)
        # For an admitted definition, the environment the checks ran in: the
        # given one plus the compiled defun and its size fact.  Never reported.
        set_field(self, "env", env)

    @property
    def admitted(self) -> bool:
        return self.compiled is not None

    def verdicts(self) -> dict[str, str]:
        return {
            "consistent": self.consistent.verdict,
            "comprehensive": self.comprehensive.verdict,
            "constructive": self.constructive.verdict,
        }

    def to_json(self):
        return {
            "name": self.name,
            "admitted": self.admitted,
            "consistent": self.consistent.to_json(),
            "comprehensive": self.comprehensive.to_json(),
            "constructive": self.constructive.to_json(),
            "compiled": print_defun(self.compiled) if self.compiled else None,
        }

    def lines(self) -> list[str]:
        """One summary line, then one line per failed check (an admitted
        definition has none)."""
        summary = ", ".join(f"{k} {v}" for k, v in self.verdicts().items())
        lines = [f"{self.name}: {'admitted' if self.admitted else 'rejected'} ({summary})"]
        for key in ("consistent", "comprehensive", "constructive"):
            res = getattr(self, key)
            if res.verdict == FAILED:
                witness = f" [witness: {res.witness}]" if res.witness else ""
                lines.append(f"  {key}: {res.detail}{witness}")
        return lines


# ---------------------------------------------------------------------------
# Pattern utilities
#
# A pattern is the term syntax.read_pattern returns: a Var, an IntLit, nil,
# or an App of cons or 1+.  The walks below rely on those five shapes.


def match_value(p: Term, v: Value, bindings: dict[str, Value]) -> bool:
    """Match one pattern against a runtime value, extending bindings."""
    if isinstance(p, Var):
        bindings[p.name] = v
        return True
    if isinstance(p, IntLit):
        return isinstance(v, int) and v == p.value
    if not isinstance(p, App):
        return v is NIL
    if p.op == "cons":
        return (
            isinstance(v, Pair)
            and match_value(p.args[0], v.head, bindings)
            and match_value(p.args[1], v.tail, bindings)
        )
    return isinstance(v, int) and v >= 1 and match_value(p.args[0], v - 1, bindings)


def _unify(a: Term, b: Term, s: dict[str, Term]) -> bool:
    a = substitute(a, s)
    b = substitute(b, s)
    if isinstance(a, Var):
        if isinstance(b, Var) and b.name == a.name:
            return True
        s[a.name] = b
        _recanonize(s)
        return True
    if isinstance(b, Var):
        s[b.name] = a
        _recanonize(s)
        return True
    if isinstance(a, IntLit):
        if isinstance(b, IntLit):
            return a.value == b.value
        if isinstance(b, App) and b.op == "1+":
            return a.value >= 1 and _unify(IntLit(a.value - 1), b.args[0], s)
        return False
    if not isinstance(a, App):
        return b == NIL_LIT
    if isinstance(b, App) and b.op == a.op:
        return all(_unify(x, y, s) for x, y in zip(a.args, b.args))
    if a.op == "1+" and isinstance(b, IntLit):
        return b.value >= 1 and _unify(a.args[0], IntLit(b.value - 1), s)
    return False


def _recanonize(s: dict[str, Term]) -> None:
    for k in list(s):
        s[k] = substitute(s[k], s)


def unify_vectors(ps: tuple[Term, ...], qs: tuple[Term, ...]) -> dict[str, Term] | None:
    s: dict[str, Term] = {}
    for a, b in zip(ps, qs):
        if not _unify(a, b, s):
            return None
    return s


def _subst(t: Term | None, mapping: dict[str, Term]) -> Term | None:
    return None if t is None else substitute(t, mapping)


def _columns(patterns) -> dict[str, str]:
    """Each variable of the patterns, in order, with its domain: nat under
    (1+ ...), any elsewhere."""
    nats = {
        a.name for p in subterms(*patterns) if isinstance(p, App) and p.op == "1+"
        for a in p.args if isinstance(a, Var)
    }
    return {v: "nat" if v in nats else "any" for p in patterns for v in pattern_vars(p)}


def _instantiate(p: Term, assign: dict[str, Value]) -> Value:
    """The value of pattern p with its variables bound by ``assign``."""
    if isinstance(p, Var):
        return assign[p.name]
    if isinstance(p, IntLit):
        return p.value
    if not isinstance(p, App):
        return NIL
    if p.op == "cons":
        return Pair(_instantiate(p.args[0], assign), _instantiate(p.args[1], assign))
    inner = _instantiate(p.args[0], assign)
    return (inner if isinstance(inner, int) else 0) + 1


# ---------------------------------------------------------------------------
# Static guard decision

# Each relation over one argument pair as a formula over two ports: lt when
# the first argument's integer coercion is below the second's, gt when it is
# above.  Swapping the arguments flips the relation.
_RELATIONS = {
    op: parse_term(src)
    for op, src in {"<": "lt", "<=": "(not gt)", "=": "(nor lt gt)", ">": "gt", ">=": "(not lt)"}.items()
}
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">": "<", ">=": "<="}


def _shape(t: Term, atoms: frozenset[str] = frozenset()) -> str | None:
    """cons, nil or atom, when t's form or a fact in ``atoms`` decides it.

    A known shape also decides truth: every value but nil is true.
    """
    if isinstance(t, App):
        return "cons" if t.op == "cons" else None
    if isinstance(t, Var):
        return "atom" if t.name in atoms else None
    return "nil" if t == NIL_LIT else "atom"


def _simplify(
    t: Term, prov: DefEnv, atoms: frozenset[str] = frozenset(), unfold: bool = True
) -> Term:
    """t with ground applications evaluated once, constructor facts and
    connectives decided, calls of operators whose body calls no defined
    operator unfolded, and calls of recursive operators unfolded one level
    when every test in the body decides.

    ``atoms`` names variables known to hold an atom other than nil.
    ``unfold`` is False inside such an unfolding, which keeps it to one
    level.
    """
    if not isinstance(t, App):
        return t
    if t.op != "cons" and not term_vars(t):
        try:
            v = evaluate(t, None, prov, fuel=_CHECK_FUEL)
        except EvalError:
            return t
        if isinstance(v, Pair):
            return t
        return IntLit(v) if isinstance(v, int) else SymLit(v.name)
    if t.op == "if":
        test = _simplify(t.args[0], prov, atoms, unfold)
        shape = _shape(test, atoms)
        if shape is not None:
            return _simplify(t.args[2] if shape == "nil" else t.args[1], prov, atoms, unfold)
        return App("if", (test, *(_simplify(a, prov, atoms, unfold) for a in t.args[1:])))
    op = t.op
    args = tuple(_simplify(a, prov, atoms, unfold) for a in t.args)
    if op in ("first", "rest") and isinstance(args[0], App) and args[0].op == "cons":
        return args[0].args[0 if op == "first" else 1]
    shapes = [_shape(a, atoms) for a in args]
    if op == "consp" and shapes[0] is not None:
        return T_LIT if shapes[0] == "cons" else NIL_LIT
    if op in circuits.CONNECTIVES and None not in shapes:
        value = _host_function(op)(*(NIL if s == "nil" else T for s in shapes))
        return NIL_LIT if value is NIL else T_LIT
    if op == "equal":
        if args[0] == args[1]:
            return T_LIT
        if None not in shapes and shapes[0] != shapes[1]:
            return NIL_LIT
    if op in _RELATIONS and args[0] == args[1]:  # only <=, = and >= hold
        return T_LIT if "=" in op else NIL_LIT
    record = prov.defs.get(op)
    if record is not None:
        body = record.defun.body
        binding = dict(zip(record.defun.params, args))
        called = {n.op for n in subterms(body) if isinstance(n, App) and n.op not in PRIMITIVE_ARITY}
        if not called:
            return _simplify(substitute(body, binding), prov, atoms, unfold)
        if unfold and op in called:
            once = _simplify(substitute(body, binding), prov, atoms, unfold=False)
            if not any(isinstance(n, App) and n.op == "if" for n in subterms(once)):
                return once
    return App(op, args, loc=t.loc)


def _no_row_holds(
    guards: list[Term | None], prov: DefEnv, atoms: frozenset[str], combine
) -> bool:
    """True when no truth assignment to the atoms left after simplifying
    each guard makes ``combine`` of the guards hold; False past
    _MAX_ASSIGNMENTS.  None as a guard holds.

    The guards become boolean formulas over fresh ports.  A boolean atom
    reads one port; the relations over one argument pair read its ports lt
    and gt, and a validity conjunct (nand lt gt) keeps the two apart.
    """
    pairs: dict[tuple[Term, Term], int] = {}
    booleans: dict[Term, int] = {}

    def formula(t: Term) -> Term:
        shape = _shape(t, atoms)
        if shape is not None:
            return NIL_LIT if shape == "nil" else T_LIT
        op = t.op if isinstance(t, App) else None
        if op == "if":
            c, a, b = map(formula, t.args)
            return App("or", (App("and", (c, a)), App("and", (App("not", (c,)), b))))
        if op in circuits.CONNECTIVES:
            return App(op, tuple(map(formula, t.args)))
        if op in _RELATIONS:
            a, b = t.args
            if print_term(b) < print_term(a):
                a, b, op = b, a, _FLIP[op]
            i = pairs.setdefault((a, b), len(pairs))
            return substitute(_RELATIONS[op], {"lt": Var(f"lt{i}"), "gt": Var(f"gt{i}")})
        return Var(f"b{booleans.setdefault(t, len(booleans))}")

    f = combine([formula(T_LIT if g is None else _simplify(g, prov, atoms)) for g in guards])
    if 3 ** len(pairs) * 2 ** len(booleans) > _MAX_ASSIGNMENTS:
        return False
    for i in range(len(pairs)):
        f = App("and", (f, App("nand", (Var(f"lt{i}"), Var(f"gt{i}")))))
    return not any(out == [1] for _, out in circuits.truth_table(circuits.formula_to_circuit(f)))


def guards_exclusive(g1: Term | None, g2: Term | None, prov: DefEnv) -> bool:
    """True when no input makes both guards hold (None stands for no guard)."""
    return _no_row_holds([g1, g2], prov, frozenset(), lambda gs: App("and", tuple(gs)))


def guards_exhaustive(
    guards: list[Term | None], prov: DefEnv, atoms: frozenset[str] = frozenset()
) -> bool:
    """True when every input makes at least one guard hold."""
    return _no_row_holds(
        guards, prov, atoms, lambda gs: App("not", (reduce(lambda a, b: App("or", (a, b)), gs),))
    )


# ---------------------------------------------------------------------------
# Provisional evaluation


def _equation_bindings(
    eq: Equation, args: list[Value], env: DefEnv
) -> dict[str, Value] | None:
    """Bindings if the equation's patterns match and its guard holds."""
    bindings: dict[str, Value] = {}
    for p, v in zip(eq.patterns, args):
        if not match_value(p, v, bindings):
            return None
    if eq.guard is not None:
        if evaluate(eq.guard, bindings, env, fuel=_CHECK_FUEL) is NIL:
            return None
    return bindings


def _trial_bindings(
    eq: Equation, args: list[Value], env: DefEnv
) -> dict[str, Value] | None:
    """``_equation_bindings`` for a trial, where a guard that raises counts
    as not matching."""
    try:
        return _equation_bindings(eq, args, env)
    except EvalError:
        return None


def _describe_input(params, args) -> str:
    return ", ".join(f"{p} = {print_value(v)}" for p, v in zip(params, args))


def _atoms(d: DefEquations) -> list[Value]:
    """nil, t, -1, 0, 1, each numeral d names and its neighbours, and one
    symbol d does not name."""
    nodes = list(subterms(*(t for eq in d.equations for t in (*eq.patterns, eq.guard, eq.rhs))))
    near = {t.value + k for t in nodes if isinstance(t, IntLit) for k in (-1, 0, 1)}
    names = {t.name for t in nodes if isinstance(t, SymLit)}
    fresh = next("a" * n for n in count(1) if "a" * n not in names)
    return [NIL, T, -1, 0, 1, *sorted(near - {-1, 0, 1}, key=lambda n: (abs(n), n)), Symbol(fresh)]


def _values(dom: str, atoms: list[Value]) -> Iterator[Value]:
    """A domain's values in rank order.  nat is 0, 1, 2, ...; list is the
    lists over the atoms by length; any is the atoms, then the other
    integers (2, -2, 3, ...) interleaved with the non-empty lists."""
    if dom == "nat":
        return count()
    lists = (from_list(xs) for n in count() for xs in product(atoms, repeat=n))
    if dom == "list":
        return lists
    next(lists)  # nil, an atom already
    ints = (i for n in count(1) for i in (n, -n) if i not in atoms)
    return chain(atoms, (v for pair in zip(ints, lists) for v in pair))


def _inputs(domains, atoms: list[Value]) -> Iterator[list[Value]]:
    """Every input vector over the domains, in rounds: round n yields, in
    lexicographic order, each vector whose largest rank (index in
    ``_values``) is n.  With no domains, the one empty vector."""
    if not domains:
        yield []
        return
    streams = [_values(dom, atoms) for dom in domains]
    seen: list[list[Value]] = [[] for _ in domains]
    for n in count():
        for col, stream in zip(seen, streams):
            col.append(next(stream))
        # The last rank is n unless an earlier one is: no vector is skipped.
        for head in product(range(n + 1), repeat=len(domains) - 1):
            for last in range(n + 1) if n in head else (n,):
                yield [col[r] for col, r in zip(seen, (*head, last))]


# ---------------------------------------------------------------------------
# Consistency


class Overlap(Record):
    """Two equations whose patterns unify, at their most general common
    instance, with both guards instantiated there."""

    __slots__ = _fields = ("eq1", "eq2", "patterns", "guard1", "guard2")

    def __init__(
        self,
        eq1: Equation,
        eq2: Equation,
        patterns: tuple[Term, ...],
        guard1: Term | None,
        guard2: Term | None,
    ):
        set_field(self, "eq1", eq1)
        set_field(self, "eq2", eq2)
        set_field(self, "patterns", patterns)
        set_field(self, "guard1", guard1)
        set_field(self, "guard2", guard2)

    @property
    def labels(self) -> str:
        return f"{self.eq1.label}/{self.eq2.label}"


def overlaps(d: DefEquations) -> list[Overlap]:
    out = []
    for i, eq1 in enumerate(d.equations):
        for eq2 in d.equations[i + 1 :]:
            # No parsed name holds a space, so the renamed variables are fresh.
            rename = {v: Var(v + " ") for p in eq2.patterns for v in term_vars(p)}
            mgu = unify_vectors(eq1.patterns, tuple(substitute(p, rename) for p in eq2.patterns))
            if mgu is None:
                continue
            out.append(
                Overlap(
                    eq1,
                    eq2,
                    tuple(substitute(p, mgu) for p in eq1.patterns),
                    _subst(eq1.guard, mgu),
                    _subst(_subst(eq2.guard, rename), mgu),
                )
            )
    return out


def _both_sides(o: Overlap, args: list[Value], prov: DefEnv) -> tuple[Value, Value] | None:
    """Both right-hand sides at args, or None when a pattern or guard fails."""
    b1 = _equation_bindings(o.eq1, args, prov)
    if b1 is None:
        return None
    b2 = _equation_bindings(o.eq2, args, prov)
    if b2 is None:
        return None
    return (
        evaluate(o.eq1.rhs, b1, prov, fuel=_CHECK_FUEL),
        evaluate(o.eq2.rhs, b2, prov, fuel=_CHECK_FUEL),
    )


def _disagreement(d: DefEquations, o: Overlap, args: list[Value], v1: Value, v2: Value) -> CheckResult:
    return CheckResult(
        FAILED,
        f"{o.eq1.label} and {o.eq2.label} disagree: {print_value(v1)} vs {print_value(v2)}",
        _describe_input(d.params, args),
    )


def consistent_trials(d: DefEquations, prov: DefEnv, pairs: list[Overlap]) -> CheckResult:
    """Probe each overlap on the smallest instances of its unified patterns.

    The first instance that runs out of fuel ends that overlap's trials: a
    guard or side that diverges there would cost the full fuel in every
    trial that reaches it.
    """
    atoms = _atoms(d)
    reached = []
    for o in pairs:
        columns = _columns(o.patterns)
        hits = 0
        end = "up to"
        for run, vector in enumerate(islice(_inputs(columns.values(), atoms), _CHECK_TRIALS), 1):
            args = [_instantiate(p, dict(zip(columns, vector))) for p in o.patterns]
            try:
                sides = _both_sides(o, args, prov)
            except StepLimitExceeded:
                end = "out of fuel at"
                break
            except EvalError:
                continue
            if sides is None:
                continue
            hits += 1
            if not value_equal(*sides):
                return _disagreement(d, o, args, *sides)
        reached.append(f"{o.labels} {hits} of {run}, {end} {_describe_input(d.params, args)}")
    return CheckResult(TESTED, f"smallest inputs reaching both equations: {', '.join(reached)}")


def check_consistent(d: DefEquations, prov: DefEnv) -> CheckResult:
    undecided: list[tuple[Overlap, str]] = []
    # Overlaps with variables; a ground overlap has one instance, and
    # evaluating it once already says all that trials could.
    to_probe: list[Overlap] = []
    agreed: list[str] = []
    for o in overlaps(d):
        if guards_exclusive(o.guard1, o.guard2, prov):
            continue
        if any(term_vars(p) for p in o.patterns):
            undecided.append((o, "guards may both hold"))
            to_probe.append(o)
            continue
        args = [_instantiate(p, {}) for p in o.patterns]
        try:
            sides = _both_sides(o, args, prov)
        except EvalError as e:
            undecided.append((o, f"ground evaluation raised {type(e).__name__}"))
            continue
        if sides is not None and not value_equal(*sides):
            return _disagreement(d, o, args, *sides)
        agreed.append(o.labels)
    if not undecided:
        detail = "equations are pairwise disjoint or complement-guarded"
        if agreed:
            detail += f"; {', '.join(agreed)} agree on their ground overlap"
        return CheckResult(PROVED, detail)
    why = "; ".join(f"{o.labels}: {reason}" for o, reason in undecided)
    detail = f"not decided statically ({why})"
    if to_probe:
        probed = consistent_trials(d, prov, to_probe)
        if probed.verdict == FAILED:
            return probed
        detail += f"; {probed.detail}"
    return CheckResult(TESTED, detail)


# ---------------------------------------------------------------------------
# Comprehensiveness


_DEFAULT_WITNESS = {"nat": 0, "list": NIL, "any": NIL}

# A coverage row: an equation's patterns still to analyze, its guard, and
# its label.
_Row = tuple[list[Term], Term | None, str]


def _int_marks(p: Term, depth: int = 0) -> set[int]:
    """Integers at which the pattern's coverage of the number line changes."""
    if isinstance(p, IntLit):
        return {p.value + depth}
    if isinstance(p, App) and p.op == "1+":
        return _int_marks(p.args[0], depth + 1)
    if isinstance(p, Var) and depth:
        return {depth}
    return set()


def _peel(p: Term) -> tuple[int, Term]:
    """The number of (1+ ...) wraps around a pattern, and what they wrap."""
    wraps = 0
    while isinstance(p, App) and p.op == "1+":
        p, wraps = p.args[0], wraps + 1
    return wraps, p


def _uncovered(
    rows: list[_Row],
    doms: list[str],
    cols: list[Var],
    prov: DefEnv,
    atoms: frozenset[str] = frozenset(),
) -> tuple[list[Value], list[str]] | None:
    """A value vector no row covers, with the labels of the guarded rows
    that reach it, or None if the rows cover every vector.

    ``cols`` holds one fresh variable per column.  A variable pattern is
    bound to its column's variable, and each constructor case substitutes
    the case for that variable in the guards, so a case reached only by
    guarded rows is covered when their instantiated guards are exhaustive.
    Sub-patterns of a cons are not analyzed further (the cons case is
    credited to any cons row).
    """
    if not doms:
        if any(guard is None for _, guard, _ in rows):
            return None
        if rows and guards_exhaustive([guard for _, guard, _ in rows], prov, atoms):
            return None
        return [], [label for _, _, label in rows]
    dom, col = doms[0], cols[0]
    rows = [
        ([col, *pats[1:]], _subst(guard, {pats[0].name: col}), label)
        if isinstance(pats[0], Var)
        else (pats, guard, label)
        for pats, guard, label in rows
    ]

    def prepend(value: Value, found):
        return None if found is None else ([value] + found[0], found[1])

    def split(term: Term, covers) -> list[_Row]:
        """The rows whose pattern covers the case col = term, column dropped."""
        return [
            (pats[1:], _subst(guard, {col.name: term}), label)
            for pats, guard, label in rows
            if pats[0] == col or covers(pats[0])
        ]

    if all(pats[0] == col for pats, _, _ in rows):
        w = _uncovered([(pats[1:], g, lab) for pats, g, lab in rows], doms[1:], cols[1:], prov, atoms)
        return prepend(_DEFAULT_WITNESS[dom], w)

    if dom == "nat":
        # Points: every number below the deepest (1+ ...) wrap, each numeral,
        # and the least other number below the tail.  The tail is one past
        # the last number a pattern that is no variable reaches (one that
        # matches no number reaches its wrap count).  Every other number is
        # one case, the column wrapped that deep around an unknown v.
        peeled = [_peel(pats[0]) for pats, _, _ in rows]
        depth = max(wraps for wraps, _ in peeled)
        numerals = {wraps + q.value for wraps, q in peeled if isinstance(q, IntLit) and q.value >= 0}
        ends = [
            wraps + max(q.value, 0) if isinstance(q, IntLit) else wraps
            for wraps, q in peeled
            if not isinstance(q, Var)
        ]
        tail = max([depth - 1, *ends]) + 1
        least = min(set(range(depth, depth + len(numerals) + 1)) - numerals)
        for n in sorted(n for n in {*range(depth), *numerals, least} if n < tail):
            at = []
            for pats, guard, label in rows:
                bound: dict[str, Value] = {}
                if match_value(pats[0], n, bound):
                    at.append((pats[1:], _subst(guard, {k: IntLit(v) for k, v in bound.items()}), label))
            w = _uncovered(at, doms[1:], cols[1:], prov, atoms)
            if w is not None:
                return prepend(n, w)
        wrapped = [Var(col.name + "'")]
        for _ in range(depth):
            wrapped.append(App("1+", (wrapped[-1],)))
        rest = [
            (pats[1:], _subst(guard, {q.name: wrapped[depth - wraps]}), label)
            for (pats, guard, label), (wraps, q) in zip(rows, peeled)
            if isinstance(q, Var)
        ]
        return prepend(tail, _uncovered(rest, doms[1:], cols[1:], prov, atoms))

    w = _uncovered(split(NIL_LIT, lambda p: p == NIL_LIT), doms[1:], cols[1:], prov, atoms)
    if w is not None:
        return prepend(NIL, w)
    head, tail = Var(col.name + "h"), Var(col.name + "t")
    cell = App("cons", (head, tail))
    cons_rows = []
    for pats, guard, label in rows:
        p = pats[0]
        if p == col:
            binding = {col.name: cell}
        elif isinstance(p, App) and p.op == "cons":
            binding = {q.name: v for q, v in zip(p.args, (head, tail)) if isinstance(q, Var)}
        else:
            continue
        cons_rows.append((pats[1:], _subst(guard, binding), label))
    w = _uncovered(cons_rows, doms[1:], cols[1:], prov, atoms)
    if w is not None:
        return prepend(Pair(0, NIL), w)
    if dom == "list":
        return None

    # dom == "any": probe the integers around every numeral the column
    # mentions (exact for the patterns, since they are linear), then a
    # fresh symbol.  A guard knows the column only as an atom other than nil.
    marks = {0}
    for pats, _, _ in rows:
        marks.update(_int_marks(pats[0]))
    atoms = atoms | {col.name}
    for v in [*sorted(m + d for m in marks for d in (-2, -1, 0, 1, 2)), Symbol("a")]:
        covering = [(pats[1:], g, lab) for pats, g, lab in rows if match_value(pats[0], v, {})]
        w = _uncovered(covering, doms[1:], cols[1:], prov, atoms)
        if w is not None:
            return prepend(v, w)
    return None


def coverage_trials(d: DefEquations, prov: DefEnv, domains: tuple[str, ...]) -> CheckResult:
    """Probe coverage on the smallest values of the declared domains."""
    for run, args in enumerate(islice(_inputs(domains, _atoms(d)), _CHECK_TRIALS), 1):
        if not any(_trial_bindings(eq, args, prov) is not None for eq in d.equations):
            return CheckResult(
                FAILED, "no equation matched a sampled input", _describe_input(d.params, args)
            )
    where = _describe_input(d.params, args)
    return CheckResult(TESTED, f"guarded coverage held on the {run} smallest inputs, up to {where}")


def check_comprehensive(
    d: DefEquations, prov: DefEnv, domains: tuple[str, ...] | None
) -> CheckResult:
    if domains is None:
        if all(isinstance(p, Var) for eq in d.equations for p in eq.patterns):
            return CheckResult(PROVED, "catch-all patterns cover every input")
        raise MissingSignature(
            f"{d.name} has structured patterns but no sig directive", d.loc
        )
    if len(domains) != len(d.params):
        raise BadArity(
            f"sig for {d.name} names {len(domains)} domain(s), expected {len(d.params)}", d.loc
        )
    # Rename each equation's variables apart (no parsed name holds a space),
    # so guards of different equations share only the column variables.
    rows: list[_Row] = []
    for i, eq in enumerate(d.equations):
        apart = {v: Var(f"{v} {i}") for p in eq.patterns for v in term_vars(p)}
        rows.append(([substitute(p, apart) for p in eq.patterns], _subst(eq.guard, apart), eq.label))
    cols = [Var(f" {i}") for i in range(len(domains))]
    found = _uncovered(rows, list(domains), cols, prov)
    if found is None:
        return CheckResult(PROVED, "patterns cover the declared domains")
    witness, guarded = found
    where = _describe_input(d.params, witness)
    if not guarded:
        return CheckResult(FAILED, "patterns leave the declared domains uncovered", where)
    probed = coverage_trials(d, prov, domains)
    if probed.verdict == FAILED:
        return probed
    return CheckResult(
        TESTED, f"guards of {', '.join(guarded)} may all fail at {where}; {probed.detail}"
    )


# ---------------------------------------------------------------------------
# Constructiveness


# A size bound: size(term) <= constant + the sum of the sizes of the
# variables in the multiset.
_Bound = tuple[int, Counter]
# Primitives that add one to their arguments' bounds, and those that keep
# their argument's bound.
_GROWS = ("cons", "1+")
_KEEPS = ("first", "rest", "1-")


def _size_bound(t: Term, facts: dict[str, int]) -> _Bound | None:
    """t's size bound, or None when t has none; ``facts`` maps an operator
    to the argument that bounds its result."""
    const, names = 0, Counter()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            names[t.name] += 1
        elif isinstance(t, IntLit):
            const += max(t.value, 0)
        elif not isinstance(t, App):
            continue
        elif t.op in _GROWS:
            const += 1
            stack.extend(t.args)
        elif t.op in _KEEPS:
            stack.append(t.args[0])
        elif t.op in facts:
            stack.append(t.args[facts[t.op]])
        else:
            return None
    return const, names


def _at_most(b: _Bound | None, pattern: Term) -> bool | None:
    """None unless bound b is at most the pattern's size; then whether its
    constant is strictly smaller."""
    const, names = _size_bound(pattern, {})
    if b is None or b[0] > const or not b[1] <= names:
        return None
    return b[0] < const


def _non_decreasing_call(
    calls_by_eq: list[tuple[Equation, list[App]]], prov: DefEnv, helpers: set[str]
) -> tuple[str, str] | None:
    """(detail, witness) for the first self-call not shown to shrink.

    Adds to ``helpers`` the operators whose size facts the proof used.
    """
    facts = prov.size_bounds
    for eq, calls in calls_by_eq:
        for call in calls:
            strict = False
            for pos, (arg, pat) in enumerate(zip(call.args, eq.patterns)):
                simplified = _simplify(arg, prov)
                smaller = _at_most(_size_bound(simplified, facts), pat)
                ops = [n.op for n in subterms(simplified) if isinstance(n, App)]
                if smaller is None:
                    unsized = (op for op in ops if op not in _GROWS + _KEEPS and op not in facts)
                    blocked = next(unsized, None)
                    why = f" ({blocked} has no size bound)" if blocked else ""
                    return (
                        f"{eq.label}: argument {pos + 1} of {print_term(call)} is not "
                        f"shown to be at most the size of its pattern {print_term(pat)}{why}",
                        print_term(call),
                    )
                strict = strict or smaller
                helpers.update(op for op in ops if op in facts)
            if not strict:
                return (
                    f"{eq.label}: no argument of {print_term(call)} strictly decreases",
                    print_term(call),
                )
    return None


def _size_fact(d: DefEquations, facts: dict[str, int]) -> int | None:
    """The first parameter i with size(f(args)) <= size(args[i]) on every
    input, or None.

    Induction over the equations: each right-hand side's bound is at most
    pattern i's size, where a self-call counts as its own argument i.  This
    is sound only once every self-call is proved to shrink.
    """
    for i in range(len(d.params)):
        assumed = {**facts, d.name: i}
        if all(
            _at_most(_size_bound(eq.rhs, assumed), eq.patterns[i]) is not None for eq in d.equations
        ):
            return i
    return None


def measure_trials(
    d: DefEquations, prov: DefEnv, measure: Term, domains: tuple[str, ...] | None = None
) -> CheckResult:
    """Test the measure's strict decrease across self-calls on the smallest
    inputs."""
    calls_by_eq = _calls_by_equation(d)
    doms = domains if domains is not None else tuple("any" for _ in d.params)
    checked = 0
    for run, args in enumerate(islice(_inputs(doms, _atoms(d)), _CHECK_TRIALS), 1):
        for eq, calls in calls_by_eq:
            bindings = _trial_bindings(eq, args, prov)
            if bindings is None:
                continue
            try:
                m_in = evaluate(measure, dict(zip(d.params, args)), prov, fuel=_CHECK_FUEL)
                for call in calls:
                    inner = [evaluate(a, bindings, prov, fuel=_CHECK_FUEL) for a in call.args]
                    m_out = evaluate(measure, dict(zip(d.params, inner)), prov, fuel=_CHECK_FUEL)
                    lo = m_out if isinstance(m_out, int) else 0
                    hi = m_in if isinstance(m_in, int) else 0
                    if not lo < hi:
                        return CheckResult(
                            FAILED,
                            f"{eq.label}: measure does not decrease at {print_term(call)} "
                            f"({print_term(measure)} goes {hi} -> {lo})",
                            _describe_input(d.params, args),
                        )
                checked += 1
            except EvalError:
                pass
            break
    where = _describe_input(d.params, args)
    return CheckResult(
        TESTED, f"measure decrease held on {checked} matched of the {run} smallest inputs, up to {where}"
    )


def _calls_by_equation(d: DefEquations) -> list[tuple[Equation, list[App]]]:
    """Each equation's self-calls, in its right-hand side and then its guard."""
    out = []
    for eq in d.equations:
        calls = [t for t in subterms(eq.rhs, eq.guard) if isinstance(t, App) and t.op == d.name]
        if calls:
            out.append((eq, calls))
    return out


def check_constructive(
    d: DefEquations,
    prov: DefEnv,
    measure: Term | None = None,
    domains: tuple[str, ...] | None = None,
) -> CheckResult:
    calls_by_eq = _calls_by_equation(d)
    if not calls_by_eq:
        return CheckResult(PROVED, "no recursion")
    helpers: set[str] = set()
    problem = _non_decreasing_call(calls_by_eq, prov, helpers)
    if problem is None:
        plain = all(
            isinstance(arg, Var) or arg == pat
            for eq, calls in calls_by_eq
            for call in calls
            for arg, pat in zip(call.args, eq.patterns)
        )
        if plain:
            detail = "every self-call shrinks a cons or successor binding"
        elif helpers:
            detail = f"every self-call shrinks by the size bounds of {', '.join(sorted(helpers))}"
        else:
            detail = "every self-call shrinks to a strict part of its pattern"
        if measure is not None:
            detail += f"; measure {print_term(measure)} not needed"
        return CheckResult(PROVED, detail)
    detail, witness = problem
    if measure is None:
        return CheckResult(FAILED, detail, witness)
    # admit has already rejected a measure with variables outside the params.
    probed = measure_trials(d, prov, measure, domains)
    if probed.verdict == FAILED:
        return probed
    return CheckResult(TESTED, f"{detail}; {probed.detail}")


# ---------------------------------------------------------------------------
# Compilation


def _pattern_test(p: Term, expr: Term, conds: list[Term], binds: dict[str, Term]) -> None:
    if isinstance(p, Var):
        binds[p.name] = expr
    elif not isinstance(p, App):
        conds.append(App("equal", (expr, p)))
    elif p.op == "cons":
        conds.append(App("consp", (expr,)))
        _pattern_test(p.args[0], App("first", (expr,)), conds, binds)
        _pattern_test(p.args[1], App("rest", (expr,)), conds, binds)
    else:
        conds.append(App("not", (App("zp", (expr,)),)))
        _pattern_test(p.args[0], App("-", (expr, IntLit(1))), conds, binds)


def _conjoin(conds: list[Term]) -> Term | None:
    if not conds:
        return None
    out = conds[-1]
    for c in reversed(conds[:-1]):
        out = App("and", (c, out))
    return out


def _translate(d: DefEquations) -> RawDefun:
    compiled: list[tuple[Term | None, Term]] = []
    for eq in d.equations:
        conds: list[Term] = []
        binds: dict[str, Term] = {}
        for param, p in zip(d.params, eq.patterns):
            _pattern_test(p, Var(param), conds, binds)
        if eq.guard is not None:
            conds.append(substitute(eq.guard, binds))
        compiled.append((_conjoin(conds), substitute(eq.rhs, binds)))

    # Adjacent branches with the same result share one test.
    merged: list[tuple[Term | None, Term]] = []
    for cond, rhs in compiled:
        if merged and merged[-1][1] == rhs and merged[-1][0] is not None and cond is not None:
            merged[-1] = (App("or", (merged[-1][0], cond)), rhs)
        else:
            merged.append((cond, rhs))

    body: Term = NIL_LIT
    for cond, rhs in reversed(merged):
        if cond is None:
            body = rhs
        else:
            body = App("if", (cond, rhs, body))
    return RawDefun(d.name, d.params, body, loc=d.loc)


# ---------------------------------------------------------------------------
# Entry point


def admit(
    d: DefEquations,
    env: DefEnv,
    domains: tuple[str, ...] | None = None,
    measure: Term | None = None,
) -> AdmissibilityReport:
    """Run all three checks; on success the report carries the compiled
    defun and the environment that holds it.

    ``env`` itself is never changed.  A caller that installs the definition
    continues in ``report.env`` (see loader.Session.load_form).
    """
    # The checks evaluate d's equations in a copy of env where d's compiled
    # defun is provisionally defined; env itself is left unchanged.  Every
    # guard and right-hand side is checked there, not only those that reach
    # the compiled body (equations after a catch-all do not), and so is the
    # measure, over d's parameters.
    compiled = _translate(d)
    prov = env.copy()
    prov.define(compiled)
    for eq in d.equations:
        names = tuple(v for p in eq.patterns for v in pattern_vars(p))
        for t in (eq.guard, eq.rhs):
            if t is not None:
                _check(t, names, prov)
    if measure is not None:
        _check(measure, d.params, prov)
    consistent = check_consistent(d, prov)
    comprehensive = check_comprehensive(d, prov, domains)
    constructive = check_constructive(d, prov, measure, domains)
    if FAILED in (consistent.verdict, comprehensive.verdict, constructive.verdict):
        return AdmissibilityReport(d.name, consistent, comprehensive, constructive, None)
    fact = _size_fact(d, env.size_bounds) if constructive.verdict == PROVED else None
    if fact is not None:
        prov.size_bounds[d.name] = fact
    return AdmissibilityReport(d.name, consistent, comprehensive, constructive, compiled, prov)
