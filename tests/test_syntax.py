import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink.errors import BadArity, DuplicateDefinition, UnbalancedParens, UnexpectedToken
from eqthink.syntax import (
    App,
    DefEquations,
    Directive,
    IntLit,
    PRIMITIVE_ARITY,
    ProofScript,
    Property,
    RawDefun,
    SymLit,
    Var,
    parse_program,
    parse_term,
    print_defun,
    print_term,
    substitute,
    subterms,
    term_vars,
)

leaf_terms = st.one_of(
    st.integers(-999, 999).map(IntLit),
    st.sampled_from(["x", "y", "zs"]).map(Var),
    st.sampled_from(["t", "nil"]).map(SymLit),
)


def _apply(children):
    ops = [(op, n) for op, n in PRIMITIVE_ARITY.items() if n > 0]

    def build(args):
        fitting = [op for op, n in ops if n == len(args)]
        return st.sampled_from(fitting).map(lambda op: App(op, tuple(args)))

    return st.lists(children, min_size=1, max_size=3).flatmap(build)


terms = st.recursive(leaf_terms, _apply, max_leaves=20)


@given(terms)
def test_term_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t


def test_parse_term_shapes():
    t = parse_term("(cons 1 (cons x nil))")
    assert t == App("cons", (IntLit(1), App("cons", (Var("x"), SymLit("nil")))))
    assert parse_term("t") == SymLit("t")
    assert parse_term("-12") == IntLit(-12)


def test_comments_and_whitespace_ignored():
    src = "; leading remark\n(+ 1 ; inline\n 2)"
    assert parse_term(src) == App("+", (IntLit(1), IntLit(2)))


def test_error_locations():
    with pytest.raises(UnbalancedParens) as err:
        parse_term("(cons 1 (cons 2 nil)", file="lib.lx")
    assert str(err.value).startswith("lib.lx:1:")
    with pytest.raises(UnbalancedParens) as err:
        parse_term(")")
    assert "<string>:1:1" in str(err.value)


def test_primitive_arity_enforced():
    with pytest.raises(BadArity):
        parse_term("(cons 1)")
    with pytest.raises(BadArity):
        parse_term("(not a b)")
    with pytest.raises(BadArity):
        parse_term("(if x y)")


def test_defeqs_parses_labels_guards():
    [d] = parse_program(
        """
        (defeqs insert (x ys)
          (ins0 (insert x nil) (cons x nil))
          (ins1 (insert x (cons y ys)) (cons x (cons y ys)) :when (<= x y))
          (ins2 (insert x (cons y ys)) (cons y (insert x ys)) :when (> x y)))
        """
    )
    assert isinstance(d, DefEquations)
    assert [eq.label for eq in d.equations] == ["ins0", "ins1", "ins2"]
    assert d.equations[0].guard is None
    assert d.equations[1].guard == App("<=", (Var("x"), Var("y")))


def test_duplicate_equation_label_rejected():
    with pytest.raises(DuplicateDefinition):
        parse_program(
            """
            (defeqs f (x)
              (one (f nil) 0)
              (one (f (cons x xs)) 1))
            """
        )


def test_sig_measure_property_proof_forms():
    forms = parse_program(
        """
        (sig len (list))
        (measure len (len xs))
        (defproperty triv :trials 7 (x :value (random-integer)) (equal x x))
        (defproof easy
          :goal (equal (or x nil) x)
          :method equational
          (:chain (or x nil) (x :by or-identity)))
        """
    )
    sig, measure, prop, proof = forms
    assert isinstance(sig, Directive) and sig.payload == ("list",)
    assert isinstance(measure, Directive) and measure.payload == App("len", (Var("xs"),))
    assert isinstance(prop, Property) and prop.trials == 7
    assert prop.binders == (("x", App("random-integer", ())),)
    assert isinstance(proof, ProofScript) and proof.method == ("equational",)
    assert proof.chains[0].steps[0].label == "or-identity"


def test_bad_sig_domain_rejected():
    with pytest.raises(UnexpectedToken):
        parse_program("(sig f (str))")


def test_induction_method_and_step_options():
    [proof] = parse_program(
        """
        (defproof p
          :goal (implies (consp xs) (equal xs xs))
          :method (induction list xs)
          (:base (equal nil nil))
          (:step (equal xs xs)
                 ((equal xs xs) :by fst-id :dir <- :at (0 1))))
        """
    )
    assert proof.method == ("induction", "list", "xs")
    assert proof.hypothesis == App("consp", (Var("xs"),))
    step = proof.chains[1].steps[0]
    assert step.reverse is True and step.position == (0, 1)


def test_defun_requires_body_and_round_trips():
    [d] = parse_program("(defun twice (x) :trust (+ x x))")
    assert isinstance(d, RawDefun) and d.trusted
    [again] = parse_program(print_defun(d))
    assert again.body == d.body and again.params == d.params


@given(terms, st.sampled_from(["x", "y"]), terms)
def test_substitute_replaces_free_vars(t, name, replacement):
    out = substitute(t, {name: replacement})
    if name not in term_vars(t):
        assert out == t
    else:
        assert name not in term_vars(out) or name in term_vars(replacement)


def test_substitute_keeps_locations_and_argument_order():
    t = parse_term("(f (g x 1) y x)")
    out = substitute(t, {"x": parse_term("(h 2)")})
    assert print_term(out) == "(f (g (h 2) 1) y (h 2))"
    rebuilt = [n.loc for n in subterms(out) if isinstance(n, App) and n.op != "h"]
    assert rebuilt == [n.loc for n in subterms(t) if isinstance(n, App)]
    assert len(set(rebuilt)) == 2


def test_subterms_walk_preorder_left_to_right_skipping_none():
    a, b = parse_term("(f (g x 1) y)"), parse_term("(h 'z)")
    got = [print_term(t) for t in subterms(a, None, b)]
    assert got == ["(f (g x 1) y)", "(g x 1)", "x", "1", "y", "(h 'z)", "'z"]
    assert list(subterms()) == list(subterms(None)) == []


def test_variables_of_deep_nest_at_default_recursion_limit():
    # A fresh interpreter: an evaluation in this one may have raised the limit.
    script = (
        "import sys; from eqthink.syntax import App, IntLit, Var, pattern_vars, term_vars\n"
        "assert sys.getrecursionlimit() <= 10_000\n"
        "t = Var('x')\n"
        "for i in range(100_000): t = App('cons', (IntLit(i), t))\n"
        "print(sorted(term_vars(t)), pattern_vars(t))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['x'] ['x']\n"


@pytest.mark.parametrize(
    "form",
    ["(defun k2 (t x) :trust (cons t x))", "(defeqs k3 (x nil) (k (k3 x y) y))"],
)
def test_t_and_nil_are_not_parameter_names(form):
    with pytest.raises(UnexpectedToken, match="expected an identifier"):
        parse_program(form)


def test_patterns_read_as_terms():
    [d] = parse_program("(defeqs f (n xs) (f1 (f (1+ n) (cons x xs)) 0))")
    assert d.equations[0].patterns == (
        App("1+", (Var("n"),)),
        App("cons", (Var("x"), Var("xs"))),
    )


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("t", "<string>:1:22: UnexpectedToken: t is not a pattern"),
        (":when", "<string>:1:22: UnexpectedToken: :when is not a pattern"),
        ("(foo x)", "<string>:1:23: UnexpectedToken: foo is not a pattern constructor"),
        ("(cons x)", "<string>:1:29: UnexpectedToken: expected a pattern"),
    ],
)
def test_bad_pattern_rejected_with_message(pattern, message):
    with pytest.raises(UnexpectedToken) as err:
        parse_program(f"(defeqs f (x) (f0 (f {pattern}) 0))")
    assert str(err.value) == message
