"""The three-check gate: disjointness, coverage, termination.

Positive cases pin the exact verdict mix the bundled library earns;
negative cases pin concrete witnesses.  Compilation faithfulness is
checked by replaying equations directly against the compiled defun.
"""

import itertools
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from conftest import by_name
from hypothesis import given, settings
from hypothesis import strategies as st

from eqthink import admissibility, evaluator
from eqthink.admissibility import (
    AdmissibilityReport,
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
from eqthink.errors import BadArity, DuplicateDefinition, NotAdmitted, UnboundVariable, UnknownOperator
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
    subterms,
    term_vars,
)
from eqthink.values import NIL, Pair, Symbol, from_list, to_list, value_equal


def _admit(src, **kw):
    session = Session()
    forms = parse_program(src)
    report = None
    for form in forms:
        result = session.load_form(form)
        if isinstance(result, AdmissibilityReport):
            report = result
    return report, session


def test_append_earns_proved_on_all_three(corpus):
    _, results = corpus
    report = by_name(results, AdmissibilityReport)["append"]
    assert report.admitted
    assert report.verdicts() == {
        "consistent": "Proved",
        "comprehensive": "Proved",
        "constructive": "Proved",
    }


def test_corpus_verdicts_match_design(corpus):
    _, results = corpus
    admissibility = by_name(results, AdmissibilityReport)
    expect = {
        # the unguarded zero/nil overlap is ground: evaluated once, it agrees
        "prefix": ("Proved", "Proved", "Proved"),
        # complementary guards on <= and > share one three-way ordering
        "insert": ("Proved", "Proved", "Proved"),
        "merge": ("Proved", "Proved", "Proved"),
        # halving through evens/odds: their size facts bound each half
        "merge-sort": ("Proved", "Proved", "Proved"),
        "insertion-sort": ("Proved", "Proved", "Proved"),
        # < = > are exclusive and exhaustive; tree-left/tree-right unfold
        "avl-insert": ("Proved", "Proved", "Proved"),
        "binc": ("Proved", "Proved", "Proved"),
        "bmul": ("Proved", "Proved", "Proved"),
    }
    for name, (cons, comp, cstr) in expect.items():
        report = admissibility[name]
        assert report.admitted, name
        got = report.verdicts()
        assert got["consistent"] == cons, (name, got)
        assert got["comprehensive"] == comp, (name, got)
        assert got["constructive"] == cstr, (name, got)


def test_every_corpus_definition_admitted(corpus):
    _, results = corpus
    admissibility = by_name(results, AdmissibilityReport)
    assert admissibility
    for name, report in admissibility.items():
        assert report.admitted, name


def test_each_admitted_operator_is_translated_once(monkeypatch):
    translated = Counter()
    translate = evaluator._Translator.translate

    def spy(self, t):
        if self.op is not None:
            translated[self.op] += 1
        return translate(self, t)

    monkeypatch.setattr(evaluator._Translator, "translate", spy)
    session = Session()
    for path in sorted((corpus_root() / "defs").glob("*.lx")):
        session.load_file(path)
    assert session.env.defs and translated == Counter(session.env.defs.keys())


def test_admission_hands_back_the_environment_it_checked_in():
    env = DefEnv()
    [d] = parse_program("(defeqs n (xs) (n0 (n nil) 0) (n1 (n (cons x xs)) (1+ (n xs))))")
    report = admit(d, env, domains=("list",))
    assert report.admitted and report.env is not env
    assert "n" in report.env.defs and "n" not in env.defs and "n" not in env.op_index
    assert report.env.size_bounds == {"n": 0} and env.size_bounds == {}
    assert evaluate(parse_term("(n '(a b c))"), {}, report.env) == 3


def test_rejected_definition_leaves_the_session_environment_alone():
    session = Session()
    [*sigs, bad, good] = parse_program(
        """
        (sig clash (nat))
        (sig n (list))
        (defeqs clash (n) (c1 (clash 0) 1) (c2 (clash n) 2))
        (defeqs n (xs) (n0 (n nil) 0) (n1 (n (cons x xs)) (1+ (n xs))))
        """
    )
    session.load_forms(sigs)
    env = session.env
    ops, sites = list(env.op_names), list(env.sites)
    report = session.load_form(bad)
    assert not report.admitted and report.env is None
    assert session.env is env and env.op_names == ops and env.sites == sites
    assert "clash" not in env.defs and "clash" not in env.op_index
    assert session.load_form(good).admitted
    assert session.env is not env and "clash" not in session.env.defs
    assert evaluate(parse_term("(n '(a b c))"), {}, session.env) == 3


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


def test_undecided_overlaps_report_the_trials_that_reached_them(monkeypatch):
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
    monkeypatch.setattr(admissibility, "_CHECK_TRIALS", 5)
    report = admit(_LOOPY, DefEnv(), domains=("nat",))
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


def test_guard_out_of_fuel_counts_as_not_matching(monkeypatch):
    monkeypatch.setattr(admissibility, "_CHECK_TRIALS", 5)
    report = admit(_DIVERGING_GUARD, DefEnv(), domains=("any",))
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
    assert "h" not in session.env.defs


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
    assert "spin" not in session.env.defs


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


_LEN = """
    (sig len (list))
    (defeqs len (xs)
      (len0 (len nil) 0)
      (len1 (len (cons x xs)) (1+ (len xs))))
    """

# rev is recursive, is not unfolded at a variable and has no size fact
# (it grows through append).
_REV = _LEN + """
    (sig append (list list))
    (defeqs append (xs ys)
      (app0 (append nil ys) ys)
      (app1 (append (cons x xs) ys) (cons x (append xs ys))))
    (sig rev (list))
    (defeqs rev (xs)
      (rv0 (rev nil) nil)
      (rv1 (rev (cons x xs)) (append (rev xs) (cons x nil))))
    """

# flip recurses through rev: only the declared measure can admit it.
_FLIP = _REV + """
    (sig flip (list))
    (measure flip MEASURE)
    (defeqs flip (xs)
      (fl0 (flip nil) 0)
      (fl1 (flip (cons x xs)) (1+ (flip (rev xs)))))
    """


def test_measure_fallback_through_recursive_helper_earns_tested_only():
    report, session = _admit(_FLIP.replace("MEASURE", "(len xs)"))
    assert "rev" not in session.env.size_bounds
    assert report.admitted
    assert report.constructive.verdict == "TestedOnly"
    detail = report.constructive.detail
    assert "argument 1 of (flip (rev xs))" in detail
    assert "(rev has no size bound)" in detail
    assert "measure decrease held on" in detail and "matched random trials" in detail


def test_measure_fallback_through_recursive_helper_rejects_constant_measure():
    report, session = _admit(_FLIP.replace("MEASURE", "7"))
    assert report.constructive.verdict == "Failed"
    assert "measure does not decrease at (flip (rev xs))" in report.constructive.detail
    assert report.constructive.witness.startswith("xs = ")
    assert not report.admitted
    assert "flip" not in session.env.defs


def test_measure_with_unbound_variable_rejected():
    with pytest.raises(UnboundVariable, match="variable q is not bound"):
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


@pytest.mark.parametrize(
    "equation, error, message",
    [
        ("(f0 (f n) 0 :when (mystery n))", UnknownOperator, "unknown operator mystery"),
        ("(f0 (f n) (twice n n))", BadArity, "twice takes 1 argument(s), got 2"),
        ("(f0 (f n) 0 :when (f n n))", BadArity, "f takes 1 argument(s), got 2"),
        # Equations after a catch-all never reach the compiled body.
        ("(f0 (f n) 0) (f1 (f n) (mystery n))", UnknownOperator, "unknown operator mystery"),
        ("(f0 (f n) 0) (f1 (f 0) (twice 0 0))", BadArity, "twice takes 1 argument(s), got 2"),
        ("(f0 (f n) 0) (f1 (f 0) 1 :when (f 0 0))", BadArity, "f takes 1 argument(s), got 2"),
    ],
)
def test_scope_faults_in_equations_leave_the_session_unchanged(equation, error, message):
    # Every operator and argument count in the guards and right-hand sides
    # is checked before anything is registered.
    session = Session()
    session.load_forms(parse_program("(defun twice (x) :trust (+ x x)) (sig f (nat))"))
    env, rules = session.env, dict(session.rules.rules)
    defs, names = dict(env.defs), list(env.op_names)
    [form] = parse_program(f"(defeqs f (n) {equation})")
    with pytest.raises(error, match=re.escape(message)):
        session.load_form(form)
    assert session.env is env and env.defs == defs and env.op_names == names
    assert session.rules.rules == rules


def test_unknown_operator_in_measure_rejected():
    with pytest.raises(UnknownOperator, match="unknown operator mystery"):
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
    ("constructive", "merge-sort"),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
def test_newly_proved_verdicts_survive_the_trials(corpus, seed):
    """The trials that earned these verdicts TestedOnly find no counterexample."""
    session, results = corpus
    admissibility = by_name(results, AdmissibilityReport)
    forms = {
        form.name: form
        for path in sorted((corpus_root() / "defs").glob("*.lx"))
        for form in parse_file(path)
        if isinstance(form, DefEquations)
    }
    env = session.env
    for check, name in _NEWLY_PROVED:
        d = forms[name]
        assert admissibility[name].verdicts()[check] == "Proved", (check, name)
        if check == "consistent":
            result = consistent_trials(d, env, overlaps(d), seed)
        elif check == "comprehensive":
            result = coverage_trials(d, env, session.sigs[name], seed)
        else:
            result = measure_trials(d, env, session.measures[name], session.sigs[name], seed)
        assert result.verdict != "Failed", (check, name, seed, result)


UNDECIDED_GUARDS = Path(__file__).parent / "fixtures" / "undecided_guards.lx"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_wrap(seed):
    """Admission takes the seed mod 2**64, as the property trials do."""

    def reports(seed):
        results = Session(seed=seed).load_file(UNDECIDED_GUARDS)
        return [r.to_json() for r in results if isinstance(r, AdmissibilityReport)]

    (report,) = reports(seed)
    assert report["consistent"]["verdict"] == "TestedOnly"
    assert reports(seed) == reports(seed % 2**64)


def test_admitting_defs_leaves_few_trials(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    session = Session(seed=0)
    for path in sorted((corpus_root() / "defs").glob("*.lx")):
        session.load_file(path)
    # prefix's ground overlap and two ground guards are evaluated once
    # each (four calls); no random trials run.
    assert calls[0] <= 10
    tested = sum(
        d[check]["verdict"] == "TestedOnly"
        for path in (corpus_root() / "golden").glob("*.json")
        for d in json.loads(path.read_text()).get("definitions", [])
        for check in ("consistent", "comprehensive", "constructive")
    )
    assert tested == 0


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


# ---------------------------------------------------------------------------
# Size bounds: the rule that proves self-calls shrink, and the size facts
# that let it see through helpers.


def _size(v) -> int:
    """Cons cells plus the values of positive integers, counted here
    independently of the checker."""
    total, stack = 0, [v]
    while stack:
        v = stack.pop()
        if isinstance(v, Pair):
            total += 1
            stack += [v.head, v.tail]
        elif isinstance(v, int) and v > 0:
            total += v
    return total


def _strict_part(arg, pat) -> bool:
    """The structural rule the size comparison replaced, kept as the
    oracle: arg is a strict subterm of the pattern, or a first/rest chain
    over one."""
    while isinstance(arg, App) and arg.op in ("first", "rest"):
        arg = arg.args[0]
    return isinstance(pat, App) and arg in subterms(*pat.args)


def _size_order(arg, pat, facts):
    """The size rule for one argument: None when arg's bound is not at
    most pat's size, else whether it is strictly smaller."""
    return admissibility._at_most(admissibility._size_bound(arg, facts), pat)


def _self_call_arguments(paths):
    """(simplified argument, pattern, provisional env) for every argument
    of every self-call in the files, loaded in order into one session and
    each judged where it is admitted."""
    session = Session()
    out = []
    for form in (form for path in paths for form in parse_file(path)):
        if isinstance(form, DefEquations):
            prov = session.env.copy()
            prov.define(admissibility._translate(form))
            for eq, calls in admissibility._calls_by_equation(form):
                for call in calls:
                    for arg, pat in zip(call.args, eq.patterns):
                        out.append((admissibility._simplify(arg, prov), pat, prov))
        session.load_form(form)
    return out


def test_size_rule_is_strict_wherever_the_structural_rule_was():
    groups = [sorted((corpus_root() / "defs").glob("*.lx"))]
    groups += [[path] for path in sorted((corpus_root() / "negative").glob("*.lx"))]
    strict = 0
    for paths in groups:
        for arg, pat, prov in _self_call_arguments(paths):
            if _strict_part(arg, pat):
                strict += 1
                assert _size_order(arg, pat, prov.size_bounds) is True, (arg, pat)
    assert strict >= 20


@st.composite
def _argument_and_pattern(draw):
    """A pattern, and an argument over its subterms: sometimes a first/rest
    chain over a strict subterm, sometimes any nest of cons, first, rest,
    1+ and 1- over its subterms."""
    [pat, _] = _pattern_vector((draw(_pattern_shapes), "?"), "p")
    if draw(st.booleans()) and isinstance(pat, App):
        arg = draw(st.sampled_from(list(subterms(*pat.args))))
        for op in draw(st.lists(st.sampled_from(["first", "rest"]), max_size=3)):
            arg = App(op, (arg,))
        return arg, pat
    arg = draw(
        st.recursive(
            st.sampled_from(list(subterms(pat))),
            lambda inner: st.one_of(
                st.tuples(st.sampled_from(["first", "rest", "1+", "1-"]), inner).map(lambda t: App(t[0], (t[1],))),
                st.tuples(inner, inner).map(lambda t: App("cons", t)),
            ),
            max_leaves=3,
        )
    )
    return arg, pat


@settings(max_examples=300)
@given(_argument_and_pattern())
def test_size_rule_agrees_with_the_structural_rule_and_with_sizes(case):
    """Strict for the old rule means strict for the size rule; and what the
    size rule claims holds on every small value the pattern matches."""
    arg, pat = case
    order = _size_order(arg, pat, {})
    if _strict_part(arg, pat):
        assert order is True, (arg, pat)
    if order is None:
        return
    env = DefEnv()
    for v in _SMALL_VALUES:
        bindings = {}
        if not match_value(pat, v, bindings):
            continue
        got = _size(evaluate(arg, bindings, env))
        assert got < _size(v) if order else got <= _size(v), (arg, pat, v)


def test_corpus_size_facts(corpus_env):
    assert corpus_env.size_bounds == {
        "len": 0,
        "prefix": 1,
        "true-listp": 0,
        "evens": 0,
        "odds": 0,
        "tree-key": 0,
        "tree-height": 0,
        "tree-left": 0,
        "tree-right": 0,
    }


@pytest.mark.parametrize("inner, verdict", [("xs", "Proved"), ("(rev xs)", "TestedOnly")])
def test_only_a_static_proof_earns_a_size_fact(inner, verdict):
    # peel's result is never larger than xs; the induction behind that is
    # sound only when the guard's self-call is proved to shrink.
    src = _REV + f"""
        (sig peel (list))
        (measure peel (len xs))
        (defeqs peel (xs)
          (pl0 (peel nil) nil)
          (pl1 (peel (cons x xs)) xs :when (peel {inner}))
          (pl2 (peel (cons x xs)) nil :when (not (peel {inner}))))
        (defun head (xs) :trust (first xs))
        """
    report, session = _admit(src)
    assert report.constructive.verdict == verdict
    assert report.env.size_bounds.get("peel") == (0 if verdict == "Proved" else None)
    assert "head" in session.env.defs and "head" not in session.env.size_bounds


_VALUES = st.recursive(
    st.one_of(st.integers(-3, 40), st.just(NIL), st.just(Symbol("a"))),
    lambda inner: st.builds(Pair, inner, inner),
    max_leaves=12,
)


@settings(max_examples=200)
@given(st.lists(_VALUES, min_size=3, max_size=3))
def test_size_facts_hold_on_random_inputs(corpus_env, values):
    for name, i in corpus_env.size_bounds.items():
        args = values[: corpus_env.arity(name)]
        names = [f"a{k}" for k in range(len(args))]
        result = evaluate(App(name, tuple(map(Var, names))), dict(zip(names, args)), corpus_env)
        assert _size(result) <= _size(args[i]), (name, args)


def test_size_facts_stay_out_of_reports(corpus):
    _, results = corpus
    report = by_name(results, AdmissibilityReport)["evens"]
    assert report.env.size_bounds["evens"] == 0
    assert set(report.to_json()) == {
        "name", "admitted", "consistent", "comprehensive", "constructive", "compiled"
    }


def test_recursive_call_unfolds_one_level_when_its_tests_decide(corpus_env):
    def simplify(text):
        return admissibility._simplify(parse_term(text), corpus_env)

    assert simplify("(evens (cons x (cons y ys)))") == parse_term("(cons x (evens ys))")
    assert simplify("(odds (cons x (cons y ys)))") == parse_term("(cons y (odds ys))")
    assert simplify("(len (cons x (cons y ys)))") == parse_term("(1+ (len (cons y ys)))")
    # (equal ys nil) is undecided, so evens stays folded.
    assert simplify("(evens (cons x ys))") == parse_term("(evens (cons x ys))")
    assert simplify("(and (consp (cons x y)) (not (consp nil)))") == parse_term("t")


_DBL = """
    (sig dbl (list))
    (defeqs dbl (xs)
      (db0 (dbl nil) nil)
      (db1 (dbl (cons x xs)) (cons x (cons x (dbl xs)))))
    """

_MERGE_EVENS_ODDS = "\n".join(
    text
    for text in (corpus_root() / "defs" / "10_sorting.lx").read_text().split("\n\n")
    if text.startswith(("(sig merge ", "(sig evens ", "(sig odds "))
)


def test_growing_helper_earns_no_size_fact():
    report, session = _admit(_DBL)
    assert report.admitted
    assert report.constructive.verdict == "Proved"
    assert "dbl" not in report.env.size_bounds
    assert "dbl" not in session.env.size_bounds


@pytest.mark.parametrize(
    "split, verdict",
    [
        # evens of (dbl ys) has the length of ys: it terminates, but only
        # the measure can say so.
        ("(evens (dbl ys))", "TestedOnly"),
        # evens of the doubled input is the input: it never terminates.
        ("(evens (dbl (cons x (cons y ys))))", "Failed"),
    ],
)
def test_merge_sort_split_through_growing_helper_is_not_proved(split, verdict):
    src = f"""
        {_LEN}
        {_MERGE_EVENS_ODDS}
        {_DBL}
        (sig dsort (list))
        (measure dsort (len xs))
        (defeqs dsort (xs)
          (ds0 (dsort nil) nil)
          (ds1 (dsort (cons x nil)) (cons x nil))
          (ds2 (dsort (cons x (cons y ys)))
               (merge (dsort {split}) (dsort (odds (cons x (cons y ys)))))))
        """
    report, _ = _admit(src)
    assert report.constructive.verdict == verdict
    if verdict == "TestedOnly":
        assert "(dbl has no size bound)" in report.constructive.detail
        assert "dsort" not in report.env.size_bounds
    else:
        assert report.env is None


def test_coverage_checks_each_numeral_once_not_every_number_below_it(monkeypatch):
    # A nat column used to split into zero and successor once per unit of
    # its largest numeral, one call of _uncovered each; here a call past
    # the thousandth fails the test before memory runs out.
    calls = 0
    uncovered = admissibility._uncovered

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= 1000, "coverage counted up to a numeral"
        return uncovered(*args)

    monkeypatch.setattr(admissibility, "_uncovered", counted)
    big = 10**23
    report, _ = _admit(
        f"(sig f (nat)) (defeqs f (x) (f0 (f {big}) 2)"
        " (f1 (f x) 1 :when (< x 5)) (f2 (f x) 2 :when (>= x 5)))"
    )
    assert report.verdicts() == {"consistent": "Proved", "comprehensive": "Proved",
                                 "constructive": "Proved"}
    report, _ = _admit(f"(sig f (nat)) (defeqs f (x) (f0 (f 0) 1) (f1 (f {big}) 2))")
    assert report.comprehensive.verdict == "Failed" and report.comprehensive.witness == "x = 1"
