"""Rule database and matching machinery.

Every seeded boolean rule is checked semantically by exhaustive truth
table; the two selector laws are checked on random values.  Neither
check shares code with the rule table itself.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink.errors import DuplicateDefinition, UnknownLabel
from eqthink.evaluator import evaluate
from eqthink.rewriting import (
    CORE_AXIOMS,
    DERIVED_LEMMAS,
    RewriteRule,
    RuleDatabase,
    match,
    positions,
    replace_at,
    subterm_at,
)
from eqthink.syntax import App, IntLit, Var, parse_program, parse_term, term_vars
from eqthink.values import NIL, Pair, Symbol, T, value_equal

SELECTOR_LABELS = {"fst-id", "rst-id"}
BOOLEAN_RULES = [r for r in CORE_AXIOMS + DERIVED_LEMMAS if r.label not in SELECTOR_LABELS]


@pytest.mark.parametrize("rule", BOOLEAN_RULES, ids=lambda r: r.label)
def test_boolean_rule_semantically_valid(rule):
    names = sorted(term_vars(rule.lhs))
    for row in itertools.product((T, NIL), repeat=len(names)):
        bindings = dict(zip(names, row))
        lhs = evaluate(rule.lhs, bindings, None)
        rhs = evaluate(rule.rhs, bindings, None)
        assert (lhs is NIL) == (rhs is NIL), (rule.label, bindings)


values = st.recursive(
    st.one_of(st.integers(-99, 99), st.sampled_from([Symbol("a"), NIL, T])),
    lambda v: st.builds(Pair, v, v),
    max_leaves=8,
)


@given(values, values)
def test_selector_rules_semantically_valid(x, xs):
    bindings = {"x": x, "xs": xs}
    for label in SELECTOR_LABELS:
        rule = RuleDatabase.axioms().resolve(label)
        assert value_equal(
            evaluate(rule.lhs, bindings, None), evaluate(rule.rhs, bindings, None)
        )


def test_rule_inventory():
    db = RuleDatabase.axioms()
    assert len(CORE_AXIOMS) == 12 and len(DERIVED_LEMMAS) == 8
    assert set(db.rules) == {r.label for r in CORE_AXIOMS + DERIVED_LEMMAS}
    with pytest.raises(UnknownLabel):
        db.resolve("flux-capacitor")


def test_match_basic_and_nonlinear():
    pat = parse_term("(or x (and y z))")
    target = parse_term("(or (not a) (and b c))")
    got = match(pat, target)
    assert got == {
        "x": parse_term("(not a)"),
        "y": parse_term("b"),
        "z": parse_term("c"),
    }
    nonlinear = parse_term("(or x x)")
    assert match(nonlinear, parse_term("(or p p)")) == {"x": Var("p")}
    assert match(nonlinear, parse_term("(or p q)")) is None
    assert match(parse_term("(and x y)"), parse_term("(or p q)")) is None


def test_match_rigid_variables():
    pat = parse_term("(cons x xs)")
    target = parse_term("(cons 1 xs)")
    assert match(pat, target, rigid=frozenset({"xs"})) == {"x": IntLit(1)}
    assert match(pat, parse_term("(cons 1 nil)"), rigid=frozenset({"xs"})) is None


@given(
    st.recursive(
        st.sampled_from([Var("p"), Var("q"), IntLit(0)]),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda a: App("or", a)),
            st.tuples(inner).map(lambda a: App("not", a)),
        ),
        max_leaves=10,
    )
)
def test_positions_subterm_replace_agree(t):
    for path, sub in positions(t):
        assert subterm_at(t, path) == sub
        assert replace_at(t, path, sub) == t


def test_replace_at_changes_only_target():
    t = parse_term("(or (and p q) (and p q))")
    out = replace_at(t, (1,), parse_term("r"))
    assert out == parse_term("(or (and p q) r)")


def test_definitional_rules_from_equations():
    [d] = parse_program(
        """
        (defeqs double (n)
          (d0 (double 0) 0)
          (d1 (double (1+ n)) (+ 2 (double n))))
        """
    )
    db = RuleDatabase.axioms()
    db.add_definitional(d)
    rule = db.resolve("d1")
    assert rule.lhs == parse_term("(double (1+ n))")
    assert rule.rhs == parse_term("(+ 2 (double n))")


def test_duplicate_and_reserved_labels_rejected():
    db = RuleDatabase.axioms()
    with pytest.raises(DuplicateDefinition):
        db.add_lemma(RewriteRule("or-identity", parse_term("x"), parse_term("x")))
    with pytest.raises(DuplicateDefinition):
        db.add_lemma(
            RewriteRule("bad", parse_term("(not x)"), parse_term("(or x y)"))
        )
