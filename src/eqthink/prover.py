"""Checker for step-by-step equational and structural-induction proofs.

Every step rewrites exactly one subterm by a cited rule.  Without a
position hint the step is accepted only when all matching positions
agree on the result; ambiguity is an error, not a guess.  Two built-in
justifications exist besides database labels: ``cons`` (the terms must
already be structurally equal; it bridges informal list-template
notation) and ``arith`` (the single differing subterm pair must be
ground arithmetic with equal values).

A step that fails raises a ``ProofError`` (a subclass for a missing
label, no match, an unmet condition or an ambiguity), and the chain
checker turns it into the rejected ``ProofOutcome`` with its message.
"""

from __future__ import annotations

from . import circuits
from .errors import (
    AmbiguousWithoutPosition,
    ConditionUnmet,
    EvalError,
    NoMatchingPosition,
    ProofError,
)
from .evaluator import DefEnv, evaluate
from .records import Record, set_field
from .rewriting import (
    Path,
    RewriteRule,
    RuleDatabase,
    match,
    positions,
    replace_at,
    subterm_at,
)
from .syntax import NIL_LIT, App, Chain, IntLit, ProofScript, SymLit, Term, Var, print_term, substitute, subterms, term_vars
from .values import truthy, value_equal, print_value

_ARITH_OPS = frozenset({"+", "-", "*", "1+", "1-", "zp", "<", "<=", ">", ">=", "="})
_CLOSURE_CAP = 64
_STEP_FUEL = 100_000


class ProofOutcome(Record):
    __slots__ = _fields = ("name", "accepted", "case", "step_index", "reason")

    def __init__(
        self,
        name: str,
        accepted: bool,
        case: str | None = None,
        step_index: int | None = None,
        reason: str = "",
    ):
        set_field(self, "name", name)
        set_field(self, "accepted", accepted)
        set_field(self, "case", case)
        set_field(self, "step_index", step_index)
        set_field(self, "reason", reason)

    def to_json(self):
        out = {"name": self.name, "accepted": self.accepted}
        if not self.accepted:
            out["case"] = self.case
            out["step"] = self.step_index
            out["reason"] = self.reason
        return out

    def lines(self) -> list[str]:
        if self.accepted:
            return [f"{self.name}: Accepted"]
        return [f"{self.name}: rejected at {self.case} step {self.step_index}: {self.reason}"]


def _ground(t: Term) -> bool:
    return not term_vars(t)


def _ground_arith(t: Term) -> bool:
    return all(
        isinstance(node, IntLit)
        or (isinstance(node, SymLit) and node.name in ("t", "nil"))
        or (isinstance(node, App) and node.op in _ARITH_OPS)
        for node in subterms(t)
    )


def _diff_position(a: Term, b: Term) -> Path | None:
    """The unique position where a and b disagree, if they differ in
    exactly one subtree; None when the terms are equal."""
    if a == b:
        return None
    if isinstance(a, App) and isinstance(b, App) and a.op == b.op and len(a.args) == len(b.args):
        diffs = [i for i, (x, y) in enumerate(zip(a.args, b.args)) if x != y]
        if len(diffs) == 1:
            inner = _diff_position(a.args[diffs[0]], b.args[diffs[0]])
            return (diffs[0],) + inner if inner is not None else (diffs[0],)
    return ()


def _condition_holds(cond: Term, hypotheses: frozenset[Term], env: DefEnv) -> bool:
    if cond in hypotheses:
        return True
    if _ground(cond):
        try:
            return truthy(evaluate(cond, {}, env, fuel=_STEP_FUEL))
        except EvalError:
            return False
    return False


def rewrite_step(
    current: Term,
    target: Term,
    rule: RewriteRule,
    reverse: bool = False,
    position: Path | None = None,
    hypotheses: frozenset[Term] = frozenset(),
    env: DefEnv | None = None,
) -> Path:
    """The position where the rule rewrites current to target; a
    ``ProofError`` says why the step fails."""
    env = env if env is not None else DefEnv()
    lhs, rhs = rule.oriented(reverse)
    if position is None:
        where, at = positions(current), ""
    else:
        sub = subterm_at(current, position)
        if sub is None:
            raise ProofError(f"position {list(position)} does not exist")
        where, at = [(position, sub)], f" at {list(position)}"

    candidates: list[tuple[Path, Term]] = []
    unmet: list[Term] = []
    for path, sub in where:
        sigma = match(lhs, sub, rule.rigid)
        if sigma is None:
            continue
        if rule.condition is not None:
            condition = substitute(rule.condition, sigma)
            if not _condition_holds(condition, hypotheses, env):
                unmet.append(condition)
                continue
        candidates.append((path, replace_at(current, path, substitute(rhs, sigma))))
    if not candidates and position is None:
        if unmet:
            raise ConditionUnmet(
                f"{rule.label} matches only where its condition is not established"
            )
        raise NoMatchingPosition(f"{rule.label} matches nowhere in {print_term(current)}")
    if not candidates:
        if unmet:
            raise ConditionUnmet(f"{rule.label} needs {print_term(unmet[0])}")
        raise NoMatchingPosition(f"{rule.label} does not match at position {list(position)}")
    if len({rewritten for _, rewritten in candidates}) > 1:
        raise AmbiguousWithoutPosition(
            f"{rule.label} applies at {len(candidates)} positions with different results; "
            "add a position hint"
        )
    path, rewritten = candidates[0]
    if rewritten != target:
        raise ProofError(
            f"{rule.label}{at} gives {print_term(rewritten)}, not {print_term(target)}"
        )
    return path


def _builtin_step(label: str, current: Term, target: Term, env: DefEnv) -> None:
    if label == "cons":
        if current != target:
            raise ProofError("cons re-expression requires structurally equal terms")
        return
    # arith: the one differing subterm pair must be ground arithmetic
    # with the same value.
    diff = _diff_position(current, target)
    if diff is None:
        return
    a = subterm_at(current, diff)
    b = subterm_at(target, diff)
    if a is None or b is None or not (_ground_arith(a) and _ground_arith(b)):
        raise ProofError("arith applies only to one ground numeric subterm rewritten in place")
    try:
        va = evaluate(a, {}, env, fuel=_STEP_FUEL)
        vb = evaluate(b, {}, env, fuel=_STEP_FUEL)
    except EvalError as e:
        raise ProofError(f"arith evaluation failed: {e.message}") from None
    if not value_equal(va, vb):
        raise ProofError(f"arith values differ: {print_value(va)} vs {print_value(vb)}")


def hypothesis_closure(seed: Term | None, db: RuleDatabase) -> frozenset[Term]:
    """Terms derivable from the hypothesis by and-splitting and by
    root-rewriting with unconditional rules; bounded breadth-first."""
    if seed is None:
        return frozenset()
    rules = db.unconditional()
    seen: set[Term] = set()
    queue = [seed]
    while queue and len(seen) < _CLOSURE_CAP:
        t = queue.pop(0)
        if t in seen:
            continue
        seen.add(t)
        if isinstance(t, App) and t.op == "and" and len(t.args) == 2:
            queue.extend(t.args)
        for rule in rules:
            sigma = match(rule.lhs, t, rule.rigid)
            if sigma is not None:
                queue.append(substitute(rule.rhs, sigma))
    return frozenset(seen)


def _fresh_var(taken: set[str]) -> str:
    i = 0
    while f"x{i}" in taken:
        i += 1
    return f"x{i}"


class _Case(Record):
    __slots__ = _fields = ("name", "start", "end", "hypotheses", "extra_rule")

    def __init__(
        self,
        name: str,
        start: Term,
        end: Term,
        hypotheses: frozenset[Term],
        extra_rule: RewriteRule | None,
    ):
        set_field(self, "name", name)
        set_field(self, "start", start)
        set_field(self, "end", end)
        set_field(self, "hypotheses", hypotheses)
        set_field(self, "extra_rule", extra_rule)


def _check_chain(
    case: _Case, chain: Chain, db: RuleDatabase, env: DefEnv, name: str
) -> ProofOutcome | None:
    if chain.first != case.start:
        return ProofOutcome(
            name, False, case.name, 0,
            f"chain must start at {print_term(case.start)}, "
            f"found {print_term(chain.first)}",
        )
    current = chain.first
    for i, step in enumerate(chain.steps, start=1):
        try:
            if step.label in ("cons", "arith"):
                _builtin_step(step.label, current, step.term, env)
            else:
                rule = (
                    case.extra_rule
                    if case.extra_rule is not None and step.label == case.extra_rule.label
                    else db.resolve(step.label)
                )
                rewrite_step(
                    current, step.term, rule, step.reverse, step.position,
                    case.hypotheses, env,
                )
        except ProofError as e:
            return ProofOutcome(name, False, case.name, i, e.message)
        current = step.term
    if current != case.end:
        return ProofOutcome(
            name, False, case.name, len(chain.steps),
            f"chain ends at {print_term(current)}, expected {print_term(case.end)}",
        )
    return None


def check_proof(script: ProofScript, db: RuleDatabase, env: DefEnv | None = None) -> ProofOutcome:
    """Check a proof; an accepted goal joins the database as a lemma.

    A method is its list of cases, one per chain: a name, the substitution
    that gives the case's goal and hypothesis, and the one rule the case may
    cite beyond the database.  An equational proof is the one case
    ``chain``; an induction on v is ``base``, with v nil or 0, and ``step``,
    with v (cons x v) for a fresh x or (1+ v), which may cite the goal as
    ``ind-hyp`` with v held fixed.
    """
    env = env if env is not None else DefEnv()
    if script.method[0] == "equational":
        cases = [("chain", {}, None)]
    else:
        _, scheme, var = script.method
        if scheme == "list":
            taken = {t.name for t in subterms(script.lhs, script.rhs, script.hypothesis) if isinstance(t, Var)}
            base, step = NIL_LIT, App("cons", (Var(_fresh_var(taken)), Var(var)))
        else:
            base, step = IntLit(0), App("1+", (Var(var),))
        ih = RewriteRule("ind-hyp", script.lhs, script.rhs, script.hypothesis, rigid=frozenset({var}))
        cases = [("base", {var: base}, None), ("step", {var: step}, ih)]

    for (name, subst, extra), chain in zip(cases, script.chains, strict=True):
        hyp = None if script.hypothesis is None else substitute(script.hypothesis, subst)
        start, end = substitute(script.lhs, subst), substitute(script.rhs, subst)
        case = _Case(name, start, end, hypothesis_closure(hyp, db), extra)
        failure = _check_chain(case, chain, db, env, script.name)
        if failure is not None:
            return failure

    db.add_lemma(
        RewriteRule(script.name, script.lhs, script.rhs, script.hypothesis)
    )
    return ProofOutcome(script.name, True)


def derive_truth_table(f: Term) -> list[tuple[dict[str, bool], bool]]:
    """One row per assignment; variables in sorted order, true first."""
    rows = circuits.truth_table(circuits.formula_to_circuit(f))
    return [({n: v == 1 for n, v in a.items()}, bit == 1) for a, (bit,) in rows][::-1]
