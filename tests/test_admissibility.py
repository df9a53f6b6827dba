"""The three-check gate: disjointness, coverage, termination.

Positive cases pin the exact verdict mix the bundled library earns;
negative cases pin concrete witnesses.  Compilation faithfulness is
checked by replaying equations directly against the compiled defun.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqthink import admissibility
from eqthink.admissibility import (
    admit,
    consistent_trials,
    coverage_trials,
    guards_exclusive,
    guards_exhaustive,
    match_value,
    measure_trials,
    overlaps,
    unify_vectors,
)
from eqthink.cli import corpus_root
from eqthink.errors import DuplicateDefinition, NotAdmitted, UnknownOperator
from eqthink.evaluator import DefEnv, evaluate
from eqthink.loader import Session
from eqthink.syntax import (
    App,
    DefEquations,
    IntLit,
    Var,
    parse_file,
    parse_program,
    parse_term,
    substitute,
    term_vars,
)
from eqthink.values import NIL, Pair, Symbol, from_list, to_list, value_equal


def _admit(src, **kw):
    session = Session()
    forms = parse_program(src)
    report = None
    for form in forms:
        result = session.load_form(form)
        if result is not None and result.kind == "defeqs":
            report = result.detail
    return report, session


def test_append_earns_proved_on_all_three(corpus):
    session, _ = corpus
    report = session.admissibility["append"]
    assert report.admitted
    assert report.verdicts() == {
        "consistent": "Proved",
        "comprehensive": "Proved",
        "constructive": "Proved",
    }


def test_corpus_verdicts_match_design(corpus):
    session, _ = corpus
    expect = {
        # the unguarded zero/nil overlap is ground: evaluated once, it agrees
        "prefix": ("Proved", "Proved", "Proved"),
        # complementary guards on <= and > share one three-way ordering
        "insert": ("Proved", "Proved", "Proved"),
        "merge": ("Proved", "Proved", "Proved"),
        # halving through evens/odds needs its length measure: TestedOnly
        "merge-sort": ("Proved", "Proved", "TestedOnly"),
        "insertion-sort": ("Proved", "Proved", "Proved"),
        # < = > are exclusive and exhaustive; tree-left/tree-right unfold
        "avl-insert": ("Proved", "Proved", "Proved"),
        "binc": ("Proved", "Proved", "Proved"),
        "bmul": ("Proved", "Proved", "Proved"),
    }
    for name, (cons, comp, cstr) in expect.items():
        report = session.admissibility[name]
        assert report.admitted, name
        got = report.verdicts()
        assert got["consistent"] == cons, (name, got)
        assert got["comprehensive"] == comp, (name, got)
        assert got["constructive"] == cstr, (name, got)


def test_every_corpus_definition_admitted(corpus):
    session, _ = corpus
    assert session.admissibility
    for name, report in session.admissibility.items():
        assert report.admitted, name


def test_contradictory_equations_rejected_with_witness():
    report, _ = _admit(
        """
        (sig clash (nat))
        (defeqs clash (n)
          (c1 (clash 0) 1)
          (c2 (clash n) 2))
        """
    )
    assert not report.admitted
    assert report.consistent.verdict == "Failed"
    assert report.consistent.witness == "n = 0"
    assert "disagree" in report.consistent.detail


def test_undecided_overlaps_report_the_trials_that_reached_them():
    [d] = parse_program(
        """
        (defeqs same (x)
          (s1 (same x) x :when (consp x))
          (s2 (same x) x))
        """
    )
    detail = admit(d, DefEnv(), domains=("any",)).consistent.detail
    assert detail.startswith("not decided statically (s1/s2: guards may both hold)")
    assert "random trials reaching both equations: s1/s2 319 of 1000" in detail

    # The ground overlap (loopy 0) runs out of fuel; it has one instance,
    # so no trial probes it again.
    report = admit(_LOOPY, DefEnv(), domains=("nat",), trials=5)
    assert report.consistent.verdict == "TestedOnly"
    assert report.consistent.detail == (
        "not decided statically (l0/l1: ground evaluation raised StepLimitExceeded)"
    )


[_LOOPY] = parse_program(
    """
    (defeqs loopy (n)
      (l0 (loopy 0) (loopy 0))
      (l1 (loopy n) 0))
    """
)


def _count_evaluate_calls(monkeypatch) -> list[int]:
    """Count the calls the checks make to ``admissibility.evaluate``."""
    calls = [0]
    evaluate_in_checks = admissibility.evaluate

    def counting(*args, **kwargs):
        calls[0] += 1
        return evaluate_in_checks(*args, **kwargs)

    monkeypatch.setattr(admissibility, "evaluate", counting)
    return calls


def test_ground_overlap_that_raises_is_evaluated_once(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    report = admit(_LOOPY, DefEnv(), domains=("nat",))
    assert report.consistent.verdict == "TestedOnly"
    # One evaluation: the overlap's first right side, (loopy 0), runs out
    # of fuel.  The other checks decide statically.
    assert calls[0] == 1


[_DIVERGING_GUARD] = parse_program(
    """
    (defeqs g (x)
      (g0 (g x) 0 :when (g (cons x x)))
      (g1 (g x) 1 :when (consp x)))
    """
)


def test_guard_out_of_fuel_counts_as_not_matching():
    report = admit(_DIVERGING_GUARD, DefEnv(), domains=("any",), trials=5)
    assert not report.admitted
    assert report.comprehensive.verdict == "Failed"
    assert report.comprehensive.detail == "no equation matched a sampled input"


def test_overlap_trials_stop_where_the_fuel_runs_out(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    report = admit(_DIVERGING_GUARD, DefEnv(), domains=("any",))
    assert calls[0] <= 20
    detail = report.consistent.detail
    assert "random trials reaching both equations: g0/g1 0 of 1 (out of fuel at x = " in detail


def test_self_call_in_a_guard_must_shrink():
    report, session = _admit(
        """
        (sig h (any))
        (defeqs h (x)
          (h0 (h x) 0 :when (h (cons x x)))
          (h1 (h x) 1))
        """
    )
    assert not report.admitted
    assert report.constructive.verdict == "Failed"
    assert "(h (cons x x))" in report.constructive.detail
    assert "h" not in session.env.names()


def test_missing_case_rejected_with_witness():
    report, _ = _admit(
        """
        (sig chop (list))
        (defeqs chop (xs)
          (chop1 (chop (cons x xs)) xs))
        """
    )
    assert not report.admitted
    assert report.comprehensive.verdict == "Failed"
    assert report.comprehensive.witness == "xs = nil"


def test_non_decreasing_recursion_rejected():
    report, _ = _admit(
        """
        (sig spin (nat))
        (defeqs spin (n)
          (sp0 (spin 0) 0)
          (sp1 (spin (1+ n)) (spin (1+ n))))
        """
    )
    assert not report.admitted
    assert report.constructive.verdict == "Failed"
    assert report.constructive.witness == "(spin (1+ n))"


def test_rejected_definition_not_installed():
    report, session = _admit(
        """
        (sig spin (nat))
        (defeqs spin (n)
          (sp0 (spin 0) 0)
          (sp1 (spin (1+ n)) (spin (1+ n))))
        """
    )
    assert "spin" not in session.env.names()


def test_bad_measure_fails_trials():
    # The constant measure never decreases, but (countup n) under (1+ n)
    # shrinks statically, so the measure is never consulted.
    report, _ = _admit(
        """
        (sig countup (nat))
        (measure countup 7)
        (defeqs countup (n)
          (cu0 (countup 0) 0)
          (cu1 (countup (1+ n)) (countup n)))
        """
    )
    assert report.admitted
    assert report.constructive.verdict == "Proved"
    assert "measure 7 not needed" in report.constructive.detail


def test_good_measure_earns_tested_only():
    # (halve n) under (1+ n) is proved statically; the measure is not needed.
    report, _ = _admit(
        """
        (sig halve (nat))
        (measure halve n)
        (defeqs halve (n)
          (h0 (halve 0) 0)
          (h1 (halve (1+ n)) (1+ (halve n))))
        """
    )
    assert report.admitted
    assert report.constructive.verdict == "Proved"


# thin recurses through odds, which is recursive and so is not unfolded:
# only the declared measure can admit it.
_THIN = """
    (sig len (list))
    (defeqs len (xs)
      (len0 (len nil) 0)
      (len1 (len (cons x xs)) (1+ (len xs))))
    (sig odds (list))
    (defeqs odds (xs)
      (od0 (odds nil) nil)
      (od1 (odds (cons x nil)) nil)
      (od2 (odds (cons x (cons y ys))) (cons y (odds ys))))
    (sig thin (list))
    (measure thin MEASURE)
    (defeqs thin (xs)
      (th0 (thin nil) 0)
      (th1 (thin (cons x xs)) (1+ (thin (odds xs)))))
    """


def test_measure_fallback_through_recursive_helper_earns_tested_only():
    report, _ = _admit(_THIN.replace("MEASURE", "(len xs)"))
    assert report.admitted
    assert report.constructive.verdict == "TestedOnly"
    detail = report.constructive.detail
    assert "argument 1 of (thin (odds xs))" in detail
    assert "odds calls a defined operator" in detail
    assert "measure decrease held on" in detail and "matched random trials" in detail


def test_measure_fallback_through_recursive_helper_rejects_constant_measure():
    report, session = _admit(_THIN.replace("MEASURE", "7"))
    assert report.constructive.verdict == "Failed"
    assert "measure does not decrease at (thin (odds xs))" in report.constructive.detail
    assert report.constructive.witness.startswith("xs = ")
    assert not report.admitted
    assert "thin" not in session.env.names()


def test_measure_with_unbound_variable_rejected():
    with pytest.raises(UnknownOperator, match="unbound variable"):
        _admit(
            """
            (sig f (nat))
            (measure f (1+ q))
            (defeqs f (n) (f0 (f n) 0))
            """
        )


@pytest.mark.parametrize("rhs", ["1", "(f x)"])
def test_redefinition_is_a_duplicate_whatever_its_verdicts(rhs):
    # "(f x)" fails the constructive check; the name clash is reported first.
    session = Session()
    [first] = parse_program("(defeqs f (x) (f0 (f x) 0))")
    session.load_form(first)
    [again] = parse_program(f"(defeqs f (x) (f0 (f x) {rhs}))")
    with pytest.raises(DuplicateDefinition, match="f is already defined"):
        session.load_form(again)


def test_unknown_operator_in_rhs_rejected():
    with pytest.raises(UnknownOperator):
        _admit("(sig f (nat))\n(defeqs f (n) (f0 (f n) (mystery n)))")


def test_unknown_operator_in_measure_rejected():
    with pytest.raises(UnknownOperator, match="mystery is not defined"):
        _admit(
            """
            (sig spin (nat))
            (measure spin (mystery n))
            (defeqs spin (n)
              (sp0 (spin 0) 0)
              (sp1 (spin (1+ n)) (spin (1+ n))))
            """
        )


def test_untrusted_defun_rejected():
    session = Session()
    [form] = parse_program("(defun f (x) (+ x 1))")
    with pytest.raises(NotAdmitted):
        session.load_form(form)


def test_trusted_defun_installs():
    session = Session()
    [form] = parse_program("(defun f (x) :trust (+ x 1))")
    session.load_form(form)
    assert evaluate(parse_term("(f 2)"), {}, session.env) == 3


def test_match_value_binds_pattern_variables():
    [d] = parse_program("(defeqs f (n xs) (f1 (f (1+ n) (cons x xs)) 0))")
    pat_n, pat_xs = d.equations[0].patterns
    bindings = {}
    assert match_value(pat_n, 3, bindings) and bindings["n"] == 2
    assert not match_value(pat_n, 0, {})
    bindings = {}
    assert match_value(pat_xs, from_list([7, 8]), bindings)
    assert bindings["x"] == 7 and to_list(bindings["xs"]) == [8]


@given(
    st.lists(st.integers(-50, 50), max_size=10),
    st.lists(st.integers(-50, 50), max_size=10),
)
def test_compiled_defun_faithful_to_equations(corpus, xs, ys):
    """The compiled if/match tree and the equations give the same answers."""
    session, _ = corpus
    got = evaluate(
        App("append", (Var("a"), Var("b"))),
        {"a": from_list(xs), "b": from_list(ys)},
        session.env,
    )
    assert to_list(got) == xs + ys
    got = evaluate(
        App("insertion-sort", (Var("a"),)), {"a": from_list(xs)}, session.env
    )
    assert to_list(got) == sorted(xs)


def test_admit_without_signature_still_judges():
    [d] = parse_program("(defeqs mirror (x) (m0 (mirror x) x))")
    report = admit(d, DefEnv())
    assert report.admitted


# Pattern text with "?" holes; _pattern_vector numbers the holes so each
# vector is linear, as the parser demands.
_pattern_shapes = st.recursive(
    st.sampled_from(["?", "?", "?", "nil", "0", "1", "-1"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: f"(cons {ab[0]} {ab[1]})"),
        inner.map(lambda a: f"(1+ {a})"),
    ),
    max_leaves=3,
)

_SMALL_ATOMS = [-1, 0, 1, 2, 3, NIL, Symbol("a")]
_SMALL_VALUES = _SMALL_ATOMS + [
    Pair(h, t) for h in (0, 1, NIL, Pair(0, NIL)) for t in _SMALL_ATOMS + [Pair(0, NIL), Pair(1, 0)]
]


def _pattern_vector(shapes, prefix):
    counter = itertools.count()
    text = " ".join(shapes)
    while "?" in text:
        text = text.replace("?", f"{prefix}{next(counter)}", 1)
    [d] = parse_program(f"(defeqs f (u v) (e (f {text}) 0))")
    return d.equations[0].patterns


def _fold_numerals(t):
    """Read (1+ k) with a numeral k as the numeral k+1, innermost first."""
    if not isinstance(t, App):
        return t
    args = tuple(_fold_numerals(a) for a in t.args)
    if t.op == "1+" and isinstance(args[0], IntLit):
        return IntLit(args[0].value + 1)
    return App(t.op, args)


@settings(max_examples=300)
@given(st.tuples(_pattern_shapes, _pattern_shapes), st.tuples(_pattern_shapes, _pattern_shapes))
def test_unify_vectors_sound_and_complete(left, right):
    ps = _pattern_vector(left, "a")
    qs = _pattern_vector(right, "b")
    mgu = unify_vectors(ps, qs)
    if mgu is not None:
        for p, q in zip(ps, qs):
            assert _fold_numerals(substitute(p, mgu)) == _fold_numerals(substitute(q, mgu))
    for vals in itertools.product(_SMALL_VALUES, repeat=2):
        if all(
            match_value(p, v, {}) and match_value(q, v, {}) for p, q, v in zip(ps, qs, vals)
        ):
            assert mgu is not None, f"both sides match {vals} but do not unify"
            break


# Verdicts the static decisions moved from TestedOnly to Proved.
_NEWLY_PROVED = [
    ("consistent", "prefix"),
    ("consistent", "true-listp"),
    ("consistent", "csize"),
    ("consistent", "avl-insert"),
    ("consistent", "badd"),
    ("comprehensive", "true-listp"),
    ("comprehensive", "csize"),
    ("comprehensive", "avl-insert"),
    ("comprehensive", "badd"),
    ("constructive", "sortedp"),
    ("constructive", "avl-insert"),
    ("constructive", "inorder"),
    ("constructive", "balancedp"),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
def test_newly_proved_verdicts_survive_the_trials(corpus, seed):
    """The trials that earned these verdicts TestedOnly find no counterexample."""
    session, _ = corpus
    forms = {
        form.name: form
        for path in sorted((corpus_root() / "defs").glob("*.lx"))
        for form in parse_file(path)
        if isinstance(form, DefEquations)
    }
    env = session.env
    for check, name in _NEWLY_PROVED:
        d = forms[name]
        assert session.admissibility[name].verdicts()[check] == "Proved", (check, name)
        if check == "consistent":
            result = consistent_trials(d, env, overlaps(d), seed)
        elif check == "comprehensive":
            result = coverage_trials(d, env, session.sigs[name], seed)
        else:
            result = measure_trials(d, env, session.measures[name], session.sigs[name], seed)
        assert result.verdict != "Failed", (check, name, seed, result)


def test_admitting_defs_leaves_few_trials(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    session = Session(seed=0)
    for path in sorted((corpus_root() / "defs").glob("*.lx")):
        session.load_file(path)
    assert calls[0] <= 5000
    tested = sum(
        d[check]["verdict"] == "TestedOnly"
        for path in (corpus_root() / "golden").glob("*.json")
        for d in json.loads(path.read_text()).get("definitions", [])
        for check in ("consistent", "comprehensive", "constructive")
    )
    assert tested <= 4


_RELATIONS = ["<", "<=", "=", ">", ">="]
_GRID = [-2, -1, 0, 1, 2, NIL, Symbol("a"), Pair(0, NIL)]


def _guards_over(atom):
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            inner.map(lambda g: f"(not {g})"),
            st.tuples(st.sampled_from(["and", "or"]), inner, inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
        ),
        max_leaves=4,
    )


def _atoms_over(variables):
    operands = st.sampled_from([*variables, "0", "nil"])
    return st.one_of(
        st.tuples(st.sampled_from(_RELATIONS), operands, operands).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        operands.map(lambda v: f"(consp {v})"),
        operands.map(lambda v: f"(equal {v} nil)"),
    )


# Relations over the one pair x, y and ground atoms: here the decision is
# exact, since the grid realizes every ordering of x and y.
_EXACT_ATOMS = st.one_of(
    st.tuples(st.sampled_from(_RELATIONS), st.sampled_from("xy"), st.sampled_from("xy")).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
    st.sampled_from(
        ["(consp nil)", "(consp 0)", "(equal nil nil)", "(equal 0 nil)", "(< 0 1)", "(>= 0 1)"]
    ),
)


@st.composite
def _guard_sets(draw):
    exact = draw(st.booleans())
    if exact:
        atom = _EXACT_ATOMS
    else:
        atom = _atoms_over(draw(st.sampled_from([("x", "y"), ("x", "y", "z")])))
    return exact, draw(st.lists(_guards_over(atom), min_size=2, max_size=3))


@settings(max_examples=300)
@given(_guard_sets())
def test_guard_decision_agrees_with_the_evaluator(case):
    """"Exclusive" (first two guards) and "exhaustive" (all guards) are never
    refuted on the grid; on the exact fragment they are exactly the truth."""
    exact, texts = case
    env = DefEnv()
    guards = [parse_term(text) for text in texts]
    names = sorted(set().union(*(term_vars(g) for g in guards)))
    truths = [
        tuple(evaluate(g, dict(zip(names, vals)), env) is not NIL for g in guards)
        for vals in itertools.product(_GRID, repeat=len(names))
    ]
    both_hold = any(row[0] and row[1] for row in truths)
    none_holds = any(not any(row) for row in truths)
    exclusive = guards_exclusive(guards[0], guards[1], env)
    exhaustive = guards_exhaustive(guards, env)
    assert not (exclusive and both_hold), texts
    assert not (exhaustive and none_holds), texts
    if exact:
        assert exclusive == (not both_hold), texts
        assert exhaustive == (not none_holds), texts
