import pytest
from conftest import by_name

from eqthink import circuits
from eqthink.errors import (
    AmbiguousWithoutPosition,
    ConditionUnmet,
    NoMatchingPosition,
    ProofError,
    TooManyInputs,
)
from eqthink.loader import Session
from eqthink.prover import ProofOutcome, check_proof, derive_truth_table, rewrite_step
from eqthink.rewriting import RewriteRule, RuleDatabase
from eqthink.syntax import App, ProofScript, Var, parse_program, parse_term


def _load(src):
    session = Session()
    return session, session.load_forms(parse_program(src))


PLUS = """
(sig plus (nat nat))
(defeqs plus (n m)
  (pl0 (plus 0 m) m)
  (pl1 (plus (1+ n) m) (1+ (plus n m))))
"""


def test_rewrite_step_applies_at_position():
    db = RuleDatabase.axioms()
    rule = db.resolve("or-commutative")
    current = parse_term("(and (or x y) (or y x))")
    target = parse_term("(and (or y x) (or y x))")
    assert rewrite_step(current, target, rule, position=(0,)) == (0,)


def test_rewrite_step_rejects_wrong_target():
    db = RuleDatabase.axioms()
    rule = db.resolve("or-identity")
    with pytest.raises(ProofError) as exc:
        rewrite_step(parse_term("(or p nil)"), parse_term("(or p p)"), rule)
    assert exc.type is ProofError
    assert exc.value.message == "or-identity gives p, not (or p p)"


def test_ambiguity_requires_position_hint():
    db = RuleDatabase.axioms()
    rule = db.resolve("or-commutative")
    current = parse_term("(and (or x y) (or u v))")
    with pytest.raises(AmbiguousWithoutPosition):
        rewrite_step(current, parse_term("(and (or y x) (or u v))"), rule)
    # a hint settles it
    assert rewrite_step(
        current, parse_term("(and (or y x) (or u v))"), rule, position=(0,)
    ) == (0,)


def test_no_matching_position():
    db = RuleDatabase.axioms()
    rule = db.resolve("double-negation")
    with pytest.raises(NoMatchingPosition):
        rewrite_step(parse_term("(or x y)"), parse_term("(or x y)"), rule)
    with pytest.raises(NoMatchingPosition):
        rewrite_step(parse_term("(or x y)"), parse_term("x"), rule, position=(0,))


def test_missing_position_is_reported():
    db = RuleDatabase.axioms()
    rule = db.resolve("or-identity")
    with pytest.raises(ProofError) as exc:
        rewrite_step(parse_term("(or x nil)"), parse_term("x"), rule, position=(5, 5))
    assert exc.type is ProofError
    assert exc.value.message == "position [5, 5] does not exist"


def test_conditional_rule_ground_guard():
    session, _ = _load(
        """
        (sig insert (any list))
        (defeqs insert (x ys)
          (ins0 (insert x nil) (cons x nil))
          (ins<= (insert x (cons y ys)) (cons x (cons y ys)) :when (<= x y))
          (ins> (insert x (cons y ys)) (cons y (insert x ys)) :when (> x y)))
        """
    )
    rule = session.rules.resolve("ins<=")
    position = rewrite_step(
        parse_term("(insert 1 (cons 5 nil))"),
        parse_term("(cons 1 (cons 5 nil))"),
        rule,
        env=session.env,
    )
    assert position == ()
    with pytest.raises(ConditionUnmet):
        rewrite_step(
            parse_term("(insert 9 (cons 5 nil))"),
            parse_term("(cons 9 (cons 5 nil))"),
            rule,
            env=session.env,
        )


def test_conditional_rule_hypothesis_guard():
    rule = RewriteRule(
        "guarded",
        parse_term("(first (cons x xs))"),
        parse_term("x"),
        condition=parse_term("(consp xs)"),
    )
    current = parse_term("(first (cons a b))")
    hyp = frozenset({parse_term("(consp b)")})
    assert rewrite_step(current, parse_term("a"), rule, hypotheses=hyp) == ()
    with pytest.raises(ConditionUnmet):
        rewrite_step(current, parse_term("a"), rule)


def test_builtin_arith_step():
    session, results = _load(
        """
        (defproof fold-sum
          :goal (equal (+ 2 3) 5)
          :method equational
          (:chain (+ 2 3) (5 :by arith)))
        """
    )
    assert by_name(results, ProofOutcome)["fold-sum"].accepted


def test_builtin_arith_rejects_unequal():
    _, results = _load(
        """
        (defproof bad-sum
          :goal (equal (+ 2 3) 6)
          :method equational
          (:chain (+ 2 3) (6 :by arith)))
        """
    )
    outcome = by_name(results, ProofOutcome)["bad-sum"]
    assert not outcome.accepted and outcome.step_index == 1


def test_equational_proof_accepted_and_becomes_lemma():
    session, results = _load(
        """
        (defproof or-absorbs
          :goal (equal (or y (and x nil)) y)
          :method equational
          (:chain (or y (and x nil))
                  ((or y nil) :by and-null)
                  (y :by or-identity)))
        (defproof uses-lemma
          :goal (equal (or (or q (and p nil)) nil) q)
          :method equational
          (:chain (or (or q (and p nil)) nil)
                  ((or q nil) :by or-absorbs :at (0))
                  (q :by or-identity)))
        """
    )
    outcomes = by_name(results, ProofOutcome)
    assert outcomes["or-absorbs"].accepted
    assert outcomes["uses-lemma"].accepted
    assert "or-absorbs" in session.rules.rules


def test_rejected_proof_does_not_become_lemma():
    session, results = _load(
        """
        (defproof wrong
          :goal (equal (or x nil) nil)
          :method equational
          (:chain (or x nil) (nil :by or-identity)))
        """
    )
    assert not by_name(results, ProofOutcome)["wrong"].accepted
    assert "wrong" not in session.rules.rules


def test_chain_start_mismatch_rejected_at_zero():
    _, results = _load(
        """
        (defproof off-start
          :goal (equal (or x nil) x)
          :method equational
          (:chain (or nil x) (x :by or-identity)))
        """
    )
    outcome = by_name(results, ProofOutcome)["off-start"]
    assert not outcome.accepted
    assert outcome.case == "chain" and outcome.step_index == 0


def test_chain_endpoint_mismatch_rejected_at_end():
    _, results = _load(
        """
        (defproof stops-early
          :goal (equal (and (or x y) (or y nil)) y)
          :method equational
          (:chain (and (or x y) (or y nil))
                  ((and (or x y) y) :by or-identity)))
        """
    )
    outcome = by_name(results, ProofOutcome)["stops-early"]
    assert not outcome.accepted and outcome.step_index == 1
    assert "ends at" in outcome.reason


def test_nat_induction_accepted():
    _, results = _load(
        PLUS
        + """
        (defproof plus-zero
          :goal (equal (plus n 0) n)
          :method (induction nat n)
          (:base (plus 0 0) (0 :by pl0))
          (:step (plus (1+ n) 0)
                 ((1+ (plus n 0)) :by pl1)
                 ((1+ n) :by ind-hyp)))
        """
    )
    assert by_name(results, ProofOutcome)["plus-zero"].accepted


def test_induction_script_without_a_step_chain_is_refused():
    # The parser asks for both chains; a script built without one must not
    # become a lemma with its step case unchecked.
    session, _ = _load(PLUS)
    [proof] = parse_program(
        """
        (defproof plus-zero
          :goal (equal (plus n 0) n)
          :method (induction nat n)
          (:base (plus 0 0) (0 :by pl0))
          (:step (plus (1+ n) 0) ((1+ n) :by pl1)))
        """
    )
    short = ProofScript(proof.name, proof.hypothesis, proof.lhs, proof.rhs, proof.method, proof.chains[:1])
    with pytest.raises(ValueError):
        check_proof(short, session.rules, session.env)
    assert "plus-zero" not in session.rules.rules


def test_induction_hypothesis_variable_is_rigid():
    # citing ind-hyp at an instantiated occurrence must fail
    _, results = _load(
        PLUS
        + """
        (defproof cheat
          :goal (equal (plus n 0) n)
          :method (induction nat n)
          (:base (plus 0 0) (0 :by pl0))
          (:step (plus (1+ n) 0)
                 ((1+ (plus n 0)) :by pl1)
                 ((1+ (plus 0 0)) :by ind-hyp)))
        """
    )
    outcome = by_name(results, ProofOutcome)["cheat"]
    assert not outcome.accepted
    assert outcome.case == "step" and outcome.step_index == 2


def test_base_case_failure_reported_in_base(corpus):
    _, results = _load(
        PLUS
        + """
        (defproof bad-base
          :goal (equal (plus n 0) n)
          :method (induction nat n)
          (:base (plus 0 0) (1 :by pl0))
          (:step (plus (1+ n) 0)
                 ((1+ (plus n 0)) :by pl1)
                 ((1+ n) :by ind-hyp)))
        """
    )
    outcome = by_name(results, ProofOutcome)["bad-base"]
    assert not outcome.accepted and outcome.case == "base"


def test_mutating_a_label_rejects_at_that_step():
    src = """
        (defproof and-absorption
          :goal (equal (and (or x y) y) y)
          :method equational
          (:chain (and (or x y) y)
                  ((and (or x y) (or y nil)) :by {label} :dir <- :at (1))
                  ((and (or y x) (or y nil)) :by or-commutative :at (0))
                  ((or y (and x nil)) :by or-distributive :dir <-)
                  ((or y nil) :by and-null)
                  (y :by or-identity)))
        """
    _, results = _load(src.format(label="or-identity"))
    assert by_name(results, ProofOutcome)["and-absorption"].accepted
    _, results = _load(src.format(label="or-null"))
    outcome = by_name(results, ProofOutcome)["and-absorption"]
    assert not outcome.accepted and outcome.step_index == 1


def test_derive_truth_table_for_implication():
    rows = derive_truth_table(parse_term("(implies x y)"))
    assert rows == [
        ({"x": True, "y": True}, True),
        ({"x": True, "y": False}, False),
        ({"x": False, "y": True}, True),
        ({"x": False, "y": False}, True),
    ]


def test_derive_truth_table_rejects_non_boolean():
    from eqthink.errors import NonBooleanOperator

    for src in ["(+ x y)", "(implies x 3)", "(or x 'banana)"]:
        with pytest.raises(NonBooleanOperator):
            derive_truth_table(parse_term(src))


def test_derive_truth_table_refuses_21_variables(monkeypatch):
    calls = []
    monkeypatch.setattr(circuits, "simulate", lambda n, a: calls.append(a))
    formula = parse_term("(and v00 v01)")
    for i in range(2, 21):
        formula = App("or", (formula, Var(f"v{i:02d}")))
    with pytest.raises(TooManyInputs):
        derive_truth_table(formula)
    assert calls == []


def test_truth_tables_of_operator_lemmas_agree_semantically(corpus):
    """Accepted circuit-facing lemmas restated as truth-table identities."""
    session, _ = corpus
    for name in ("adder-sum-0", "adder-carry-0"):
        rule = session.rules.resolve(name)
        lhs_rows = derive_truth_table(rule.lhs)
        rhs_rows = derive_truth_table(rule.rhs)
        assert [v for _, v in lhs_rows] == [v for _, v in rhs_rows]
