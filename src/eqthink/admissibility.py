"""Admissibility checking for equation-defined operators.

A definition earns its way into the evaluation environment by passing
three checks:

* consistent -- no two equations can disagree on a shared input.  Pattern
  vectors that cannot unify are disjoint; unifiable pairs are accepted
  when their guards are syntactic complements (g versus (not g), or a
  relational pair like x<=y versus x>y); anything else is probed with
  randomized overlap trials.
* comprehensive -- the equations cover the declared parameter domains
  (from a ``sig`` directive; domains are nat, list, or any).  Coverage is
  judged by case analysis on the domain constructors: nat splits into
  zero/successor exactly, list into nil/cons, and a cons pattern is taken
  at face value for the cons case (its sub-patterns are the definition's
  own business; inputs outside every equation fall back to nil at run
  time).  Guarded equations do not count toward exact coverage; when they
  are needed, coverage is probed with randomized trials instead.
* constructive -- every self-call must shrink.  The syntactic rule asks
  each argument to be either the unchanged parameter pattern or a
  variable bound strictly inside a cons/successor pattern, with at least
  one strict position.  A ``measure`` directive opts into randomized
  strict-decrease testing instead (verdict TestedOnly).

Each check yields Proved, TestedOnly, or Failed, with a concrete witness
on failure.  Compilation turns an admitted definition into one defun
whose body tries the equations in order as nested conditionals; adjacent
equations with identical right-hand sides share a branch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import (
    BadArity,
    EvalError,
    MissingSignature,
    UnknownOperator,
)
from .evaluator import DefEnv, evaluate
from .properties import RandomObject, Stream, generate
from .syntax import (
    App,
    DefEquations,
    Equation,
    IntLit,
    NIL_LIT,
    RawDefun,
    Term,
    Var,
    print_term,
    substitute,
    term_vars,
)
from .values import NIL, Pair, Symbol, Value, from_list, print_value, value_equal

PROVED = "Proved"
TESTED = "TestedOnly"
FAILED = "Failed"

_CHECK_FUEL = 200_000
_REL_COMPLEMENT = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    detail: str = ""
    witness: str | None = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class AdmissibilityReport:
    name: str
    consistent: CheckResult
    comprehensive: CheckResult
    constructive: CheckResult
    compiled: RawDefun | None

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
        from .syntax import print_defun

        return {
            "name": self.name,
            "admitted": self.admitted,
            "consistent": self.consistent.to_json(),
            "comprehensive": self.comprehensive.to_json(),
            "constructive": self.constructive.to_json(),
            "compiled": print_defun(self.compiled) if self.compiled else None,
        }


def _derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.blake2b(tag.encode(), digest_size=8, key=seed.to_bytes(8, "little", signed=False)).digest()
    return int.from_bytes(digest, "little")


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


def _alpha_equal(ps: tuple[Term, ...], qs: tuple[Term, ...]) -> dict[str, str] | None:
    """Structural equality up to variable renaming; returns q-var -> p-var."""
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}

    def walk(a: Term, b: Term) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            return (
                fwd.setdefault(b.name, a.name) == a.name
                and rev.setdefault(a.name, b.name) == b.name
            )
        if isinstance(a, App) and isinstance(b, App):
            return a.op == b.op and all(walk(x, y) for x, y in zip(a.args, b.args))
        return a == b

    for a, b in zip(ps, qs):
        if not walk(a, b):
            return None
    return fwd


def _complementary(g1: Term | None, g2: Term | None) -> bool:
    if g1 is None or g2 is None:
        return False
    if g2 == App("not", (g1,)) or g1 == App("not", (g2,)):
        return True
    if isinstance(g1, App) and isinstance(g2, App) and g1.args == g2.args:
        return _REL_COMPLEMENT.get(g1.op) == g2.op
    return False


def _nat_vars(patterns) -> set[str]:
    out: set[str] = set()

    def walk(p: Term, under_succ: bool) -> None:
        if isinstance(p, Var):
            if under_succ:
                out.add(p.name)
        elif isinstance(p, App):
            for a in p.args:
                walk(a, p.op == "1+")

    for p in patterns:
        walk(p, False)
    return out


def _instantiate(p: Term, assign: dict[str, Value], nats: set[str], stream: Stream) -> Value:
    if isinstance(p, Var):
        if p.name not in assign:
            if p.name in nats:
                assign[p.name] = stream.int_between(0, 40)
            else:
                assign[p.name] = generate(RandomObject(), stream)
        return assign[p.name]
    if isinstance(p, IntLit):
        return p.value
    if not isinstance(p, App):
        return NIL
    if p.op == "cons":
        head = _instantiate(p.args[0], assign, nats, stream)
        return Pair(head, _instantiate(p.args[1], assign, nats, stream))
    inner = _instantiate(p.args[0], assign, nats, stream)
    return (inner if isinstance(inner, int) else 0) + 1


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


def _describe_input(params, args) -> str:
    return ", ".join(f"{p} = {print_value(v)}" for p, v in zip(params, args))


# ---------------------------------------------------------------------------
# Consistency


def check_consistent(
    d: DefEquations, prov: DefEnv, seed: int = 0, trials: int = 1000
) -> CheckResult:
    overlap_pairs: list[tuple[Equation, Equation, tuple[Term, ...]]] = []
    for i, eq1 in enumerate(d.equations):
        for eq2 in d.equations[i + 1 :]:
            rename = {v: Var(v + "~") for p in eq2.patterns for v in term_vars(p)}
            mgu = unify_vectors(eq1.patterns, tuple(substitute(p, rename) for p in eq2.patterns))
            if mgu is None:
                continue
            g1u = substitute(eq1.guard, mgu) if eq1.guard is not None else None
            g2u = substitute(substitute(eq2.guard, rename), mgu) if eq2.guard is not None else None
            if _complementary(g1u, g2u):
                continue
            unified = tuple(substitute(p, mgu) for p in eq1.patterns)
            overlap_pairs.append((eq1, eq2, unified))
    if not overlap_pairs:
        return CheckResult(PROVED, "equations are pairwise disjoint or complement-guarded")

    stream = Stream(_derive_seed(seed, f"consistent:{d.name}"))
    for eq1, eq2, unified in overlap_pairs:
        nats = _nat_vars(unified)
        for _ in range(trials):
            assign: dict[str, Value] = {}
            args = [_instantiate(p, assign, nats, stream) for p in unified]
            b1 = _equation_bindings(eq1, args, prov)
            if b1 is None:
                continue
            b2 = _equation_bindings(eq2, args, prov)
            if b2 is None:
                continue
            try:
                v1 = evaluate(eq1.rhs, b1, prov, fuel=_CHECK_FUEL)
                v2 = evaluate(eq2.rhs, b2, prov, fuel=_CHECK_FUEL)
            except EvalError:
                continue
            if not value_equal(v1, v2):
                witness = _describe_input(d.params, args)
                return CheckResult(
                    FAILED,
                    f"{eq1.label} and {eq2.label} disagree: "
                    f"{print_value(v1)} vs {print_value(v2)}",
                    witness,
                )
    labels = ", ".join(f"{a.label}/{b.label}" for a, b, _ in overlap_pairs)
    return CheckResult(TESTED, f"overlap of {labels} probed with {trials} random trials")


# ---------------------------------------------------------------------------
# Comprehensiveness


def _collapse_guard_pairs(equations) -> tuple[list[tuple[Term, ...]], bool]:
    """Unguarded coverage rows; complementary-guard pairs merge into one row.

    Returns (rows, any_guarded_left_over).
    """
    rows: list[tuple[Term, ...]] = []
    consumed = [False] * len(equations)
    for i, eq1 in enumerate(equations):
        if consumed[i]:
            continue
        if eq1.guard is None:
            rows.append(eq1.patterns)
            consumed[i] = True
            continue
        for j in range(i + 1, len(equations)):
            eq2 = equations[j]
            if consumed[j] or eq2.guard is None:
                continue
            ren = _alpha_equal(eq1.patterns, eq2.patterns)
            if ren is None:
                continue
            g2 = substitute(eq2.guard, {old: Var(new) for old, new in ren.items()})
            if _complementary(eq1.guard, g2):
                rows.append(eq1.patterns)
                consumed[i] = consumed[j] = True
                break
    return rows, not all(consumed)


_DEFAULT_WITNESS = {"nat": 0, "list": NIL, "any": NIL}


def _int_marks(p: Term, depth: int = 0) -> set[int]:
    """Integers at which the pattern's coverage of the number line changes."""
    if isinstance(p, IntLit):
        return {p.value + depth}
    if isinstance(p, App) and p.op == "1+":
        return _int_marks(p.args[0], depth + 1)
    if isinstance(p, Var) and depth:
        return {depth}
    return set()


def _uncovered(rows: list[list[Term]], doms: list[str]) -> list[Value] | None:
    """A witness value vector missing from every row, or None if covered.

    Case analysis follows the domain constructors; sub-patterns of a cons
    are not analyzed further (the cons case is credited to any cons row).
    """
    if not doms:
        return None if rows else []
    dom = doms[0]
    rest = doms[1:]
    if all(isinstance(row[0], Var) for row in rows):
        w = _uncovered([row[1:] for row in rows], rest)
        if w is None:
            return None
        return [_DEFAULT_WITNESS[dom]] + w

    if dom == "nat":
        zero_rows = [
            row[1:]
            for row in rows
            if isinstance(row[0], Var) or row[0] == IntLit(0)
        ]
        w = _uncovered(zero_rows, rest)
        if w is not None:
            return [0] + w
        succ_rows = []
        for row in rows:
            p = row[0]
            if isinstance(p, Var):
                succ_rows.append(row)
            elif isinstance(p, App) and p.op == "1+":
                succ_rows.append([p.args[0]] + row[1:])
            elif isinstance(p, IntLit) and p.value >= 1:
                succ_rows.append([IntLit(p.value - 1)] + row[1:])
        w = _uncovered(succ_rows, doms)
        if w is not None:
            return [w[0] + 1] + w[1:]
        return None

    nil_rows = [row[1:] for row in rows if isinstance(row[0], Var) or row[0] == NIL_LIT]
    w = _uncovered(nil_rows, rest)
    if w is not None:
        return [NIL] + w
    cons_rows = [
        row[1:]
        for row in rows
        if isinstance(row[0], Var) or (isinstance(row[0], App) and row[0].op == "cons")
    ]
    w = _uncovered(cons_rows, rest)
    if w is not None:
        return [Pair(0, NIL)] + w
    if dom == "list":
        return None

    # dom == "any": probe the integers around every numeral the column
    # mentions (exact, since patterns are linear), then a fresh symbol.
    marks = {0}
    for row in rows:
        marks.update(_int_marks(row[0]))
    for v in sorted(m + d for m in marks for d in (-2, -1, 0, 1, 2)):
        covering = [row[1:] for row in rows if match_value(row[0], v, {})]
        w = _uncovered(covering, rest)
        if w is not None:
            return [v] + w
    sym = Symbol("a")
    covering = [row[1:] for row in rows if match_value(row[0], sym, {})]
    w = _uncovered(covering, rest)
    if w is not None:
        return [sym] + w
    return None


def _random_domain_value(dom: str, stream: Stream) -> Value:
    if dom == "nat":
        return stream.int_between(0, 60)
    if dom == "list":
        length = stream.int_between(0, 10)
        return from_list([generate(RandomObject(), stream) for _ in range(length)])
    return generate(RandomObject(), stream)


def check_comprehensive(
    d: DefEquations,
    prov: DefEnv,
    domains: tuple[str, ...] | None,
    seed: int = 0,
    trials: int = 1000,
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
    rows, guarded_left = _collapse_guard_pairs(d.equations)
    witness = _uncovered([list(r) for r in rows], list(domains))
    if witness is None:
        return CheckResult(PROVED, "patterns cover the declared domains")
    if not guarded_left:
        return CheckResult(
            FAILED,
            "patterns leave the declared domains uncovered",
            _describe_input(d.params, witness),
        )

    stream = Stream(_derive_seed(seed, f"comprehensive:{d.name}"))
    for _ in range(trials):
        args = [_random_domain_value(dom, stream) for dom in domains]
        if not any(_equation_bindings(eq, args, prov) is not None for eq in d.equations):
            return CheckResult(
                FAILED, "no equation matched a sampled input", _describe_input(d.params, args)
            )
    return CheckResult(TESTED, f"guarded coverage probed with {trials} random trials")


# ---------------------------------------------------------------------------
# Constructiveness


def _self_calls(d: DefEquations, t: Term, acc: list[App]) -> None:
    if isinstance(t, App):
        if t.op == d.name:
            acc.append(t)
        for a in t.args:
            _self_calls(d, a, acc)


def _strict_vars(p: Term) -> set[str]:
    """Variables bound strictly inside a cons or successor pattern."""
    return term_vars(p) if isinstance(p, App) else set()


def check_constructive(
    d: DefEquations,
    prov: DefEnv,
    measure: Term | None = None,
    domains: tuple[str, ...] | None = None,
    seed: int = 0,
    trials: int = 1000,
) -> CheckResult:
    calls_by_eq: list[tuple[Equation, list[App]]] = []
    for eq in d.equations:
        calls: list[App] = []
        _self_calls(d, eq.rhs, calls)
        if calls:
            calls_by_eq.append((eq, calls))
    if not calls_by_eq:
        return CheckResult(PROVED, "no recursion")

    if measure is None:
        for eq, calls in calls_by_eq:
            for call in calls:
                strict = 0
                for pos, (arg, pat) in enumerate(zip(call.args, eq.patterns)):
                    if isinstance(arg, Var) and arg.name in _strict_vars(pat):
                        strict += 1
                    elif arg == pat:
                        continue
                    else:
                        return CheckResult(
                            FAILED,
                            f"{eq.label}: argument {pos + 1} of {print_term(call)} is neither "
                            f"the unchanged pattern {print_term(pat)} nor a variable bound "
                            "inside it",
                            print_term(call),
                        )
                if strict == 0:
                    return CheckResult(
                        FAILED,
                        f"{eq.label}: no argument of {print_term(call)} strictly decreases",
                        print_term(call),
                    )
        return CheckResult(PROVED, "every self-call shrinks a cons or successor binding")

    # admit has already rejected a measure with variables outside the params.
    stream = Stream(_derive_seed(seed, f"constructive:{d.name}"))
    doms = domains if domains is not None else tuple("any" for _ in d.params)
    checked = 0
    for _ in range(trials):
        args = [_random_domain_value(dom, stream) for dom in doms]
        for eq, calls in calls_by_eq:
            bindings = _equation_bindings(eq, args, prov)
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
    return CheckResult(TESTED, f"measure decrease held on {checked} matched random trials")


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


def _validate_operators(d: DefEquations, env: DefEnv) -> None:
    def walk(t: Term) -> None:
        if not isinstance(t, App):
            return
        if t.op == d.name:
            if len(t.args) != len(d.params):
                raise BadArity(
                    f"{d.name} takes {len(d.params)} argument(s), got {len(t.args)}", t.loc
                )
        else:
            arity = env.arity(t.op)
            if arity is None:
                raise UnknownOperator(
                    f"{t.op} is not defined (definitions must come before use)", t.loc
                )
            if len(t.args) != arity:
                raise BadArity(f"{t.op} takes {arity} argument(s), got {len(t.args)}", t.loc)
        for a in t.args:
            walk(a)

    for eq in d.equations:
        walk(eq.rhs)
        if eq.guard is not None:
            walk(eq.guard)


def admit(
    d: DefEquations,
    env: DefEnv,
    domains: tuple[str, ...] | None = None,
    measure: Term | None = None,
    seed: int = 0,
    trials: int = 1000,
) -> AdmissibilityReport:
    """Run all three checks; the report carries the compiled defun on success.

    The caller decides whether to install the compiled defun in the
    environment (see loader.load_program).
    """
    _validate_operators(d, env)
    if measure is not None:
        loose = term_vars(measure) - set(d.params)
        if loose:
            raise UnknownOperator(
                f"measure for {d.name} uses unbound variable(s) {', '.join(sorted(loose))}",
                d.loc,
            )
    # The checks evaluate d's equations in a copy of env where d's compiled
    # defun is provisionally defined; env itself is left unchanged.
    compiled = _translate(d)
    prov = env.copy()
    prov.define(compiled)
    consistent = check_consistent(d, prov, seed, trials)
    comprehensive = check_comprehensive(d, prov, domains, seed, trials)
    constructive = check_constructive(d, prov, measure, domains, seed, trials)
    if FAILED in (consistent.verdict, comprehensive.verdict, constructive.verdict):
        compiled = None
    return AdmissibilityReport(d.name, consistent, comprehensive, constructive, compiled)
