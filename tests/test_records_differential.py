"""The record classes against the ``@dataclass`` classes they replaced.

The 28 replaced definitions are kept here with their decorators and fields
verbatim, in the order of their modules; methods the decorator does not
read are left out, and ``Session.__post_init__``, which it calls, is kept.
Each record is described once as a ``Make`` and built on both sides.  Old
and new must agree on ``==`` and ``!=`` (across classes, and between
instances that differ only in their location), on ``hash`` and ``repr``,
on the defaults of every constructor, and on which assignments and
deletions raise ``AttributeError``.
"""

from __future__ import annotations

import copy
import inspect
import itertools
import pickle
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink import admissibility, circuits, cost, errors, loader, mapreduce
from eqthink import properties, prover, rewriting, syntax
from eqthink.evaluator import DefEnv
from eqthink.rewriting import RuleDatabase
from eqthink.values import NIL, Pair, Symbol

# -- the replaced code, verbatim ----------------------------------------------

# errors


@dataclass(frozen=True, slots=True)
class SourceLocation:
    file: str = "<string>"
    line: int = 1
    col: int = 1


NOWHERE = SourceLocation()

# syntax


class Term:
    """Base class for term AST nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class IntLit(Term):
    value: int
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class SymLit(Term):
    name: str
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class App(Term):
    op: str
    args: tuple[Term, ...]
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)
    # The term as a flat tuple, kept by evaluator._shape on first use.
    shape: tuple = field(init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Equation:
    label: str
    patterns: tuple[Term, ...]
    rhs: Term
    guard: Term | None = None
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class DefEquations:
    name: str
    params: tuple[str, ...]
    equations: tuple[Equation, ...]
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class RawDefun:
    name: str
    params: tuple[str, ...]
    body: Term
    trusted: bool = False
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Property:
    name: str
    binders: tuple[tuple[str, Term], ...]
    claim: Term
    trials: int | None = None
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class ProofStep:
    term: Term
    label: str
    reverse: bool = False
    position: tuple[int, ...] | None = None
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Chain:
    kind: str  # "chain", "base", or "step"
    first: Term
    steps: tuple[ProofStep, ...]
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class ProofScript:
    name: str
    hypothesis: Term | None
    lhs: Term
    rhs: Term
    method: tuple  # ("equational",) or ("induction", "list"|"nat", var)
    chains: tuple[Chain, ...]
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Directive:
    kind: str  # "sig" or "measure"
    name: str
    payload: object  # tuple of domain names, or a measure Term
    loc: SourceLocation = field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "(", ")", "'", "atom"
    text: str
    loc: SourceLocation


# admissibility


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    detail: str = ""
    witness: str | None = None


@dataclass(frozen=True)
class AdmissibilityReport:
    name: str
    consistent: CheckResult
    comprehensive: CheckResult
    constructive: CheckResult
    compiled: RawDefun | None
    # For an admitted definition, the environment the checks ran in: the
    # given one plus the compiled defun and its size fact.  Never reported.
    env: DefEnv | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Overlap:
    """Two equations whose patterns unify, at their most general common
    instance, with both guards instantiated there."""

    eq1: Equation
    eq2: Equation
    patterns: tuple[Term, ...]
    guard1: Term | None
    guard2: Term | None


# properties


class TestOutcome:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Pass(TestOutcome):
    trials_run: int
    vacuous: int = 0


@dataclass(frozen=True, slots=True)
class Counterexample(TestOutcome):
    bindings: dict[str, Value]
    trial_index: int
    seed: int


@dataclass(frozen=True)
class PropertyReport:
    name: str
    outcome: TestOutcome
    seed: int
    trials: int


# circuits


@dataclass(frozen=True)
class Gate:
    kind: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    witness: dict[str, int] | None = None


# prover


@dataclass(frozen=True)
class ProofOutcome:
    name: str
    accepted: bool
    case: str | None = None
    step_index: int | None = None
    reason: str = ""


@dataclass(frozen=True)
class _Case:
    name: str
    start: Term
    end: Term
    hypotheses: frozenset[Term]
    extra_rule: RewriteRule | None


# cost


@dataclass(frozen=True)
class BoundReport:
    sizes: list[int]
    steps: dict[int, int]
    candidate: str
    window: float
    c_lo: float
    c_hi: float
    verdict: str


# loader


@dataclass
class Session:
    env: DefEnv = field(default_factory=DefEnv)
    rules: RuleDatabase = None  # type: ignore[assignment]
    seed: int = 0
    sigs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    measures: dict[str, Term] = field(default_factory=dict)

    def __post_init__(self):
        if self.rules is None:
            self.rules = RuleDatabase.axioms()


# mapreduce


@dataclass(frozen=True)
class Job:
    mapper: str
    reducer: str


# rewriting


@dataclass(frozen=True)
class RewriteRule:
    label: str
    lhs: Term
    rhs: Term
    condition: Term | None = None
    rigid: frozenset[str] = field(default_factory=frozenset)


# -- both sides ---------------------------------------------------------------

MODULES = {
    errors: ["SourceLocation"],
    syntax: [
        "Var", "IntLit", "SymLit", "App", "Equation", "DefEquations", "RawDefun",
        "Property", "ProofStep", "Chain", "ProofScript", "Directive", "Token",
    ],
    admissibility: ["CheckResult", "AdmissibilityReport", "Overlap"],
    properties: ["Pass", "Counterexample", "PropertyReport"],
    circuits: ["Gate", "EquivResult"],
    prover: ["ProofOutcome", "_Case"],
    cost: ["BoundReport"],
    loader: ["Session"],
    mapreduce: ["Job"],
    rewriting: ["RewriteRule"],
}
OLD = {name: globals()[name] for names in MODULES.values() for name in names}
NEW = {name: getattr(module, name) for module, names in MODULES.items() for name in names}


class Make(NamedTuple):
    """A record to build on either side: class name and arguments, which
    may hold further ``Make``s inside tuples, frozensets and dicts."""

    name: str
    args: tuple
    kwargs: tuple


def make(name, *args, **kwargs) -> Make:
    return Make(name, args, tuple(kwargs.items()))


def build(spec, side: dict):
    if isinstance(spec, Make):
        args = [build(a, side) for a in spec.args]
        return side[spec.name](*args, **{k: build(v, side) for k, v in spec.kwargs})
    if isinstance(spec, (tuple, frozenset)):
        return type(spec)(build(x, side) for x in spec)
    if isinstance(spec, dict):
        return {k: build(v, side) for k, v in spec.items()}
    return spec


def hash_or_error(record):
    try:
        return hash(record)
    except TypeError as exc:
        return str(exc)


def assert_agree(a: Make, b: Make) -> None:
    """Old and new agree on a == b, a != b, and on each one's repr and hash."""
    old_a, old_b, new_a, new_b = build(a, OLD), build(b, OLD), build(a, NEW), build(b, NEW)
    assert (new_a == new_b) is (old_a == old_b), (a, b)
    assert (new_a != new_b) is (old_a != old_b), (a, b)
    assert repr(new_a) == repr(old_a)
    assert hash_or_error(new_a) == hash_or_error(old_a)
    if new_a == new_b:
        assert hash_or_error(new_a) == hash_or_error(new_b)


# -- drawn terms ----------------------------------------------------------------

locs = st.builds(
    lambda *a: make("SourceLocation", *a),
    st.sampled_from(["a.lx", "b.lx"]), st.integers(1, 3), st.integers(1, 3),
)


def _leaf(kind: str, values):
    plain = values.map(lambda v: make(kind, v))
    located = st.builds(lambda v, loc: make(kind, v, loc=loc), values, locs)
    return plain | located


leaf_terms = st.one_of(
    _leaf("Var", st.sampled_from(["x", "y", "nil"])),
    _leaf("SymLit", st.sampled_from(["t", "nil", "x"])),
    _leaf("IntLit", st.integers(-2, 2)),
)


def _apps(children):
    args = st.lists(children, max_size=3).map(tuple)
    ops = st.sampled_from(["cons", "f", "x"])
    return st.builds(lambda op, a: make("App", op, a), ops, args) | st.builds(
        lambda op, a, loc: make("App", op, a, loc), ops, args, locs
    )


terms = st.recursive(leaf_terms, _apps, max_leaves=8)


def moved(spec):
    """The same record with every location changed."""
    if isinstance(spec, Make):
        kwargs = tuple((k, moved(v)) for k, v in spec.kwargs if k != "loc")
        args = tuple(moved(a) for a in spec.args)
        if spec.name in ("Var", "SymLit", "IntLit"):
            args = args[:1]
        elif spec.name == "App":
            args = args[:2]
        elif spec.name == "SourceLocation":
            return spec
        return Make(spec.name, args, kwargs + (("loc", make("SourceLocation", "moved.lx", 9, 9)),))
    if isinstance(spec, tuple):
        return tuple(moved(x) for x in spec)
    return spec


@given(terms, terms)
def test_drawn_terms_agree(a, b):
    assert_agree(a, b)
    assert_agree(a, moved(a))
    assert build(a, NEW) == build(moved(a), NEW)


@given(terms, terms, st.sampled_from(["ProofStep", "Equation", "Directive"]))
def test_forms_of_drawn_terms_agree(a, b, kind):
    specs = {
        "ProofStep": lambda t, u: make("ProofStep", t, "lbl", reverse=u == t, position=(0,)),
        "Equation": lambda t, u: make("Equation", "e1", (t,), u, guard=t),
        "Directive": lambda t, u: make("Directive", "measure", "f", t),
    }[kind]
    assert_agree(specs(a, b), specs(b, a))
    assert_agree(specs(a, b), moved(specs(a, b)))


# -- hand-built instances of every class -------------------------------------------

X, Y = make("Var", "x"), make("Var", "y")
LOC = make("SourceLocation", "a.lx", 2, 5)
CONS = make("App", "cons", (X, make("SymLit", "nil")))
ENV, RULES = DefEnv(), RuleDatabase.axioms()
PROVED, TESTED = make("CheckResult", "Proved"), make("CheckResult", "TestedOnly", "ran 10", "x = 1")
EQ1 = make("Equation", "l1", (X,), CONS)
EQ2 = make("Equation", "l2", (Y, make("IntLit", 0)), X, make("App", "zp", (Y,)), LOC)
STEP = make("ProofStep", CONS, "fst-id", loc=LOC)
CHAIN = make("Chain", "chain", X, (STEP,))
RULE = make("RewriteRule", "fst-id", make("App", "first", (CONS,)), X)

HAND_BUILT = [
    make("SourceLocation"),
    LOC,
    make("SourceLocation", "a.lx", 2, 6),
    X,
    make("Var", "x", LOC),
    make("SymLit", "x"),
    make("IntLit", 3),
    make("IntLit", 3, loc=LOC),
    CONS,
    make("App", "cons", (X, make("SymLit", "nil")), LOC),
    make("App", op="cons", args=(Y,)),
    EQ1,
    EQ2,
    make("Equation", "l1", (X,), CONS, loc=LOC),
    make("DefEquations", "f", ("x",), (EQ1, EQ2)),
    make("DefEquations", "f", ("x",), (EQ1,), LOC),
    make("RawDefun", "f", ("x",), CONS),
    make("RawDefun", "f", ("x",), CONS, True, LOC),
    make("Property", "p", (("x", make("App", "random-integer", ())),), CONS),
    make("Property", "p", (("x", make("App", "random-integer", ())),), CONS, 20),
    STEP,
    make("ProofStep", CONS, "fst-id", True, (1, 0)),
    CHAIN,
    make("Chain", "base", X, ()),
    make("ProofScript", "s", None, X, CONS, ("equational",), (CHAIN,)),
    make("ProofScript", "s", X, X, CONS, ("induction", "list", "xs"), (CHAIN, CHAIN), LOC),
    make("Directive", "sig", "f", ("nat", "list")),
    make("Directive", "measure", "f", CONS, LOC),
    make("Token", "atom", "x", LOC),
    make("Token", "atom", "x", make("SourceLocation", "a.lx", 2, 6)),
    make("Token", "(", "(", LOC),
    PROVED,
    TESTED,
    make("AdmissibilityReport", "f", PROVED, PROVED, TESTED, None),
    make("AdmissibilityReport", "f", PROVED, PROVED, TESTED, make("RawDefun", "f", (), X), ENV),
    make("Overlap", make("Equation", "l1", (X,), X), EQ2, (X, Y), None, CONS),
    make("Pass", 100),
    make("Pass", 100, vacuous=7),
    make("Counterexample", {"x": Pair(1, NIL)}, 3, 0),
    make("Counterexample", {"x": Symbol("a")}, 3, 0),
    make("PropertyReport", "p", make("Pass", 20, 1), 0, 20),
    make("PropertyReport", "p", make("Counterexample", {}, 0, 7), 7, 20),
    make("Gate", "AND", (0, 1)),
    make("Gate", "NOT", (2,)),
    make("EquivResult", True),
    make("EquivResult", False, {"a": 0, "b": 1}),
    make("ProofOutcome", "s", True),
    make("ProofOutcome", "s", False, "step", 2, "no rule applies"),
    make("_Case", "base", X, CONS, frozenset(), None),
    make("_Case", "step", X, CONS, frozenset({CONS, X}), RULE),
    make("BoundReport", [16, 32], {16: 40, 32: 81}, "n", 1.5, 2.5, 2.53, "Consistent"),
    make("BoundReport", [16, 32], {16: 40, 32: 81}, "n", Fraction(3, 2), 2.5, 2.53, "Consistent"),
    make("Session", ENV, RULES),
    make("Session", ENV, RULES, 3, {"f": ("nat",)}, {"f": CONS}),
    make("Job", "wc-map", "wc-reduce"),
    make("Job", reducer="wc-reduce", mapper="wc-map"),
    RULE,
    make("RewriteRule", "ih", X, Y, CONS, frozenset({"xs"})),
]


def test_hand_built_instances_cover_every_class():
    assert {spec.name for spec in HAND_BUILT} == OLD.keys() == NEW.keys()
    assert len(OLD) == 28


def test_hand_built_instances_agree_pairwise():
    for a, b in itertools.product(HAND_BUILT, repeat=2):
        assert_agree(a, b)


@pytest.mark.parametrize("spec", HAND_BUILT, ids=lambda spec: spec.name)
def test_records_never_equal_other_types(spec):
    old, new = build(spec, OLD), build(spec, NEW)
    values = tuple(getattr(old, f.name) for f in fields(old) if f.compare)
    for other in (values, list(values), None, *values):
        assert (new == other) is (old == other) is False
        assert (new != other) is (old != other) is True


@pytest.mark.parametrize("name", OLD)
def test_constructor_parameters_and_defaults_agree(name):
    old_params = inspect.signature(OLD[name]).parameters
    new_params = inspect.signature(NEW[name]).parameters
    assert list(new_params) == list(old_params)
    required = [p for p in old_params.values() if p.default is inspect.Parameter.empty]
    assert [p for p in new_params.values() if p.default is inspect.Parameter.empty] == [
        new_params[p.name] for p in required
    ]
    # Build both from the required arguments alone and compare every field.
    args = [make("Var", p.name) for p in required]
    old, new = build(make(name, *args), OLD), build(make(name, *args), NEW)
    for f in fields(old):
        if not f.init:
            continue
        old_value, new_value = getattr(old, f.name), getattr(new, f.name)
        if isinstance(old_value, (DefEnv, RuleDatabase)):
            assert type(new_value) is type(old_value)
            assert not isinstance(old_value, RuleDatabase) or new_value.rules.keys() == old_value.rules.keys()
        else:
            assert repr(new_value) == repr(old_value)


def test_app_shape_is_unset_until_kept():
    old, new = build(CONS, OLD), build(CONS, NEW)
    assert getattr(new, "shape", None) is getattr(old, "shape", None) is None
    for app in (old, new):
        object.__setattr__(app, "shape", ("kept",))
    assert new.shape == old.shape == ("kept",)
    assert new == build(CONS, NEW) and "shape" not in repr(new)


@pytest.mark.parametrize("spec", HAND_BUILT, ids=lambda spec: spec.name)
def test_copies_agree(spec):
    # Where the old record copied and pickled, the new one does too.  (An
    # old App without its shape did not: its __getstate__ read every slot.)
    old, new = build(spec, OLD), build(spec, NEW)
    for duplicate in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        try:
            old_copy = duplicate(old)
        except (AttributeError, TypeError, pickle.PicklingError):
            continue
        new_copy = duplicate(new)
        assert type(new_copy) is type(new) and repr(new_copy) == repr(old_copy)
        assert (new_copy == new) is (old_copy == old)


def _refusal(action, *args):
    try:
        action(*args)
    except AttributeError:  # FrozenInstanceError is one
        return AttributeError
    return None


@pytest.mark.parametrize("spec", HAND_BUILT, ids=lambda spec: spec.name)
def test_assignment_and_deletion_agree(spec):
    old, new = build(spec, OLD), build(spec, NEW)
    # Only Session, which loading updates, takes assignment and deletion.
    expected = None if spec.name == "Session" else AttributeError
    for name in [f.name for f in fields(old)]:
        for action, args in ((setattr, (name, 1)), (delattr, (name,))):
            assert _refusal(action, old, *args) is _refusal(action, new, *args) is expected
    # A name that is not a field: the new records all refuse it.  The old
    # Session kept a __dict__ and took it, and the old slotted classes
    # raised TypeError from a super() call in their frozen __setattr__.
    assert _refusal(setattr, new, "unknown", 1) is AttributeError
    assert _refusal(delattr, new, "unknown") is AttributeError
