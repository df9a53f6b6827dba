"""The three-check gate: disjointness, coverage, termination.

Positive cases pin the exact verdict mix the bundled library earns;
negative cases pin concrete witnesses.  Compilation faithfulness is
checked by replaying equations directly against the compiled defun.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqthink.admissibility import admit, match_value, unify_vectors
from eqthink.errors import DuplicateDefinition, NotAdmitted, UnknownOperator
from eqthink.evaluator import DefEnv, evaluate
from eqthink.loader import Session
from eqthink.syntax import App, IntLit, Var, parse_program, parse_term, substitute
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
        # overlapping unguarded zero/nil cases agree but are not disjoint
        "prefix": ("TestedOnly", "Proved", "Proved"),
        # complement guards on <= and > are recognized syntactically
        "insert": ("Proved", "Proved", "Proved"),
        "merge": ("Proved", "Proved", "Proved"),
        # halving recursion needs its length measure: TestedOnly
        "merge-sort": ("Proved", "Proved", "TestedOnly"),
        "insertion-sort": ("Proved", "Proved", "Proved"),
        "avl-insert": ("TestedOnly", "TestedOnly", "TestedOnly"),
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
    # constant measure never decreases across the self-call
    report, _ = _admit(
        """
        (sig countup (nat))
        (measure countup 7)
        (defeqs countup (n)
          (cu0 (countup 0) 0)
          (cu1 (countup (1+ n)) (countup n)))
        """
    )
    assert report.constructive.verdict == "Failed"
    assert not report.admitted


def test_good_measure_earns_tested_only():
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
    assert report.constructive.verdict == "TestedOnly"


def test_measure_with_unbound_variable_rejected():
    with pytest.raises(UnknownOperator):
        _admit(
            """
            (sig f (nat))
            (measure f (len q))
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
