"""The proof checker against the two versions of its parts it replaced.

Both are kept here verbatim but for their names.  ``StepReport``,
``rewrite_step``, ``_builtin_step`` and ``_check_chain_two_channel`` are
the two-channel step checker: a failed step came back either as a report
or as a raised ``ProofError``.  ``_check_proof_two_branches`` wrote
equational and induction proofs as two branches, where ``check_proof``
loops over a method's cases.  Seeded mutations of the corpus proofs (step
label, position hint, direction, target) must get the same outcome,
reason strings included, from ``check_proof`` with either step checker,
and the same outcome and rule database from either ``check_proof``.
"""

import random
from dataclasses import dataclass

from conftest import rebuilt

from eqthink import prover
from eqthink.cli import corpus_root
from eqthink.errors import (
    AmbiguousWithoutPosition,
    ConditionUnmet,
    EvalError,
    NoMatchingPosition,
    UnknownLabel,
)
from eqthink.evaluator import DefEnv, evaluate
from eqthink.prover import (
    _STEP_FUEL,
    ProofOutcome,
    _Case,
    _check_chain,
    _condition_holds,
    _diff_position,
    _fresh_var,
    _ground_arith,
    hypothesis_closure,
)
from eqthink.rewriting import (
    Path,
    RewriteRule,
    RuleDatabase,
    match,
    positions,
    replace_at,
    subterm_at,
)
from eqthink.syntax import (
    NIL_LIT,
    App,
    Chain,
    IntLit,
    ProofScript,
    SymLit,
    Term,
    Var,
    parse_program,
    print_term,
    substitute,
    term_vars,
)
from eqthink.values import print_value, value_equal

# -- the replaced code, verbatim but for the names ----------------------------


@dataclass(frozen=True)
class StepReport:
    ok: bool
    reason: str = ""
    position: Path | None = None


def rewrite_step(
    current: Term,
    target: Term,
    rule: RewriteRule,
    reverse: bool = False,
    position: Path | None = None,
    hypotheses: frozenset[Term] = frozenset(),
    env: DefEnv | None = None,
) -> StepReport:
    """Validate one proof step: current rewrites to target by the rule."""
    env = env if env is not None else DefEnv()
    lhs, rhs = rule.oriented(reverse)

    if position is not None:
        sub = subterm_at(current, position)
        if sub is None:
            return StepReport(False, f"position {list(position)} does not exist")
        sigma = match(lhs, sub, rule.rigid)
        if sigma is None:
            raise NoMatchingPosition(
                f"{rule.label} does not match at position {list(position)}"
            )
        if rule.condition is not None and not _condition_holds(
            substitute(rule.condition, sigma), hypotheses, env
        ):
            raise ConditionUnmet(
                f"{rule.label} needs {print_term(substitute(rule.condition, sigma))}"
            )
        rewritten = replace_at(current, position, substitute(rhs, sigma))
        if rewritten != target:
            return StepReport(
                False,
                f"{rule.label} at {list(position)} gives {print_term(rewritten)}, "
                f"not {print_term(target)}",
            )
        return StepReport(True, position=position)

    candidates: list[tuple[Path, Term]] = []
    condition_failures = 0
    for path, sub in positions(current):
        sigma = match(lhs, sub, rule.rigid)
        if sigma is None:
            continue
        if rule.condition is not None and not _condition_holds(
            substitute(rule.condition, sigma), hypotheses, env
        ):
            condition_failures += 1
            continue
        candidates.append((path, replace_at(current, path, substitute(rhs, sigma))))
    if not candidates:
        if condition_failures:
            raise ConditionUnmet(
                f"{rule.label} matches only where its condition is not established"
            )
        raise NoMatchingPosition(f"{rule.label} matches nowhere in {print_term(current)}")
    results = {rewritten for _, rewritten in candidates}
    if len(results) > 1:
        raise AmbiguousWithoutPosition(
            f"{rule.label} applies at {len(candidates)} positions with different results; "
            "add a position hint"
        )
    path, rewritten = candidates[0]
    if rewritten != target:
        return StepReport(
            False,
            f"{rule.label} gives {print_term(rewritten)}, not {print_term(target)}",
        )
    return StepReport(True, position=path)


def _builtin_step(label: str, current: Term, target: Term, env: DefEnv) -> StepReport:
    if label == "cons":
        if current == target:
            return StepReport(True)
        return StepReport(False, "cons re-expression requires structurally equal terms")
    # arith: the one differing subterm pair must be ground arithmetic
    # with the same value.
    diff = _diff_position(current, target)
    if diff is None:
        return StepReport(True)
    a = subterm_at(current, diff)
    b = subterm_at(target, diff)
    if a is None or b is None or not (_ground_arith(a) and _ground_arith(b)):
        return StepReport(
            False, "arith applies only to one ground numeric subterm rewritten in place"
        )
    try:
        va = evaluate(a, {}, env, fuel=_STEP_FUEL)
        vb = evaluate(b, {}, env, fuel=_STEP_FUEL)
    except EvalError as e:
        return StepReport(False, f"arith evaluation failed: {e.message}")
    if not value_equal(va, vb):
        return StepReport(False, f"arith values differ: {print_value(va)} vs {print_value(vb)}")
    return StepReport(True, position=diff)


def _check_chain_two_channel(
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
                report = _builtin_step(step.label, current, step.term, env)
            elif case.extra_rule is not None and step.label == case.extra_rule.label:
                report = rewrite_step(
                    current, step.term, case.extra_rule, step.reverse, step.position,
                    case.hypotheses, env,
                )
            else:
                rule = db.resolve(step.label)
                report = rewrite_step(
                    current, step.term, rule, step.reverse, step.position,
                    case.hypotheses, env,
                )
        except UnknownLabel as e:
            return ProofOutcome(name, False, case.name, i, e.message)
        except (NoMatchingPosition, AmbiguousWithoutPosition, ConditionUnmet) as e:
            return ProofOutcome(name, False, case.name, i, e.message)
        if not report.ok:
            return ProofOutcome(name, False, case.name, i, report.reason)
        current = step.term
    if current != case.end:
        return ProofOutcome(
            name, False, case.name, len(chain.steps),
            f"chain ends at {print_term(current)}, expected {print_term(case.end)}",
        )
    return None


def _check_proof_two_branches(script: ProofScript, db: RuleDatabase, env: DefEnv | None = None) -> ProofOutcome:
    """Check a proof; an accepted goal joins the database as a lemma."""
    env = env if env is not None else DefEnv()
    goal_vars = term_vars(script.lhs) | term_vars(script.rhs)
    if script.hypothesis is not None:
        goal_vars |= term_vars(script.hypothesis)

    cases: list[tuple[_Case, Chain]] = []
    if script.method[0] == "equational":
        hyp = hypothesis_closure(script.hypothesis, db)
        cases.append(
            (_Case("chain", script.lhs, script.rhs, hyp, None), script.chains[0])
        )
    else:
        _, scheme, var = script.method
        if scheme == "list":
            fresh = _fresh_var(goal_vars)
            base_subst: dict[str, Term] = {var: NIL_LIT}
            step_subst: dict[str, Term] = {var: App("cons", (Var(fresh), Var(var)))}
        else:
            base_subst = {var: IntLit(0)}
            step_subst = {var: App("1+", (Var(var),))}
        ih = RewriteRule(
            "ind-hyp",
            script.lhs,
            script.rhs,
            script.hypothesis,
            rigid=frozenset({var}),
        )
        for case_name, subst, extra in (
            ("base", base_subst, None),
            ("step", step_subst, ih),
        ):
            start = substitute(script.lhs, subst)
            end = substitute(script.rhs, subst)
            hyp_term = (
                substitute(script.hypothesis, subst)
                if script.hypothesis is not None
                else None
            )
            chain = script.chains[0 if case_name == "base" else 1]
            cases.append(
                (_Case(case_name, start, end, hypothesis_closure(hyp_term, db), extra), chain)
            )

    for case, chain in cases:
        failure = _check_chain(case, chain, db, env, script.name)
        if failure is not None:
            return failure

    db.add_lemma(
        RewriteRule(script.name, script.lhs, script.rhs, script.hypothesis)
    )
    return ProofOutcome(script.name, True)


# -- mutations ------------------------------------------------------------------


# Proofs by arith and by conditional rules, which the corpus proofs do not
# cite, and inductions on a number and around a goal that names x0.
EXTRA_PROOFS = """
(defproof sum-fold
  :goal (equal (+ (+ 1 2) 3) 6)
  :method equational
  (:chain (+ (+ 1 2) 3) ((+ 3 3) :by arith) (6 :by arith)))
(defproof insert-small
  :goal (equal (insert 1 (insert 3 (cons 5 nil))) (cons 1 (cons 3 (cons 5 nil))))
  :method equational
  (:chain (insert 1 (insert 3 (cons 5 nil)))
          ((insert 1 (cons 3 (cons 5 nil))) :by ins<= :at (1))
          ((cons 1 (cons 3 (cons 5 nil))) :by ins<=)))
(defproof max-of-ordered
  :goal (implies (>= a b) (equal (max2 a b) a))
  :method equational
  (:chain (max2 a b) (a :by mx0)))
(defproof max-of-larger
  :goal (implies (>= n m) (equal (max2 n m) n))
  :method (induction nat n)
  (:base (max2 0 m) (0 :by mx0))
  (:step (max2 (1+ n) m) ((1+ n) :by mx0)))
(defproof append-cons
  :goal (equal (append (cons x0 xs) ys) (cons x0 (append xs ys)))
  :method (induction list xs)
  (:base (append (cons x0 nil) ys) ((cons x0 (append nil ys)) :by app1))
  (:step (append (cons x0 (cons x1 xs)) ys) ((cons x0 (append (cons x1 xs) ys)) :by app1)))
"""
CITED_OFTEN = ["cons", "arith", "ind-hyp", "no-such-rule", "ins<=", "ins>", "mx0", "mx1"]


def _proofs() -> list[ProofScript]:
    texts = [path.read_text() for path in sorted((corpus_root() / "proofs").glob("*.lx"))]
    return [
        form
        for text in texts + [EXTRA_PROOFS]
        for form in parse_program(text)
        if isinstance(form, ProofScript)
    ]


def _mutate_term(rng: random.Random, t: Term, chain: Chain) -> Term:
    others = [chain.first] + [s.term for s in chain.steps]
    choice = rng.randrange(3)
    if choice == 0:
        return rng.choice(others)
    path, sub = rng.choice(positions(t))
    if choice == 1:
        return sub
    new = rng.choice(
        [SymLit("nil"), SymLit("t"), Var("x"), Var("zz"), IntLit(rng.randrange(10)), rng.choice(others)]
    )
    return replace_at(t, path, new)


def _mutate(rng: random.Random, script: ProofScript, labels: list[str], n: int) -> ProofScript:
    c = rng.randrange(len(script.chains))
    chain = script.chains[c]
    s = rng.randrange(len(chain.steps))
    step = chain.steps[s]
    before = chain.steps[s - 1].term if s else chain.first
    for _ in range(rng.choice((1, 1, 1, 2))):
        what = rng.randrange(4)
        if what == 0:
            step = rebuilt(step, label=rng.choice(rng.choice((labels, CITED_OFTEN))))
        elif what == 1:
            valid = [p for p, _ in positions(before)]
            step = rebuilt(
                step, position=rng.choice([None, (5, 5), (0, 9), rng.choice(valid), rng.choice(valid)])
            )
        elif what == 2:
            step = rebuilt(step, reverse=not step.reverse)
        else:
            step = rebuilt(step, term=_mutate_term(rng, step.term, chain))
    steps = chain.steps[:s] + (step,) + chain.steps[s + 1 :]
    chains = script.chains[:c] + (rebuilt(chain, steps=steps),) + script.chains[c + 1 :]
    return rebuilt(script, name=f"{script.name}~{n}", chains=chains)


def _outcome(script: ProofScript, base: RuleDatabase, env: DefEnv) -> dict:
    db = RuleDatabase()
    db.rules = dict(base.rules)
    return prover.check_proof(script, db, env).to_json()


# One fragment of each reason a step can fail with.
STEP_FAILURES = (
    "does not exist",
    "does not match at position",
    "matches nowhere in",
    " needs ",
    "matches only where its condition",
    "add a position hint",
    " at [",
    "gives",
    "no rule labeled",
    "cons re-expression",
    "arith applies only",
    "arith values differ",
)


def _mutants(session) -> list[ProofScript]:
    scripts = _proofs()
    labels = sorted(session.rules.rules)
    rng = random.Random(16)
    return [_mutate(rng, rng.choice(scripts), labels, n) for n in range(600)]


def test_check_proof_matches_two_channel_step_checker(corpus, monkeypatch):
    session, _ = corpus
    mutants = _mutants(session)

    new = [_outcome(m, session.rules, session.env) for m in mutants]
    monkeypatch.setattr(prover, "_check_chain", _check_chain_two_channel)
    old = [_outcome(m, session.rules, session.env) for m in mutants]

    for mutant, got, want in zip(mutants, new, old):
        assert got == want, mutant
    reasons = [o["reason"] for o in old if not o["accepted"]]
    assert len(reasons) >= 400
    assert all(any(part in r for r in reasons) for part in STEP_FAILURES)


def _checked(check, script: ProofScript, base: RuleDatabase, env: DefEnv) -> tuple[dict, list]:
    db = RuleDatabase()
    db.rules = dict(base.rules)
    return check(script, db, env).to_json(), list(db.rules.items())


def test_check_proof_matches_two_branch_checker(corpus):
    session, _ = corpus
    extra = [form for form in parse_program(EXTRA_PROOFS) if isinstance(form, ProofScript)]
    failed, accepted = set(), set()
    for script in _mutants(session) + extra:
        got = _checked(prover.check_proof, script, session.rules, session.env)
        want = _checked(_check_proof_two_branches, script, session.rules, session.env)
        assert got == want, script
        if got[0]["accepted"]:
            accepted.add(script.name)
        else:
            failed.add(got[0]["case"])
    # Each case of both methods fails somewhere, and every extra proof, of
    # either method, is accepted.
    assert failed == {"chain", "base", "step"}
    assert {s.name for s in extra} <= accepted
