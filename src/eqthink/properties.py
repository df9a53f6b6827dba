"""Randomized property testing for the mini-language.

Properties bind variables to generator forms, each compiled to the
function that draws its values, and assert a claim term.
Trials are reproducible: the PRNG is splitmix64 and trial ``i`` runs on a
fresh stream seeded with ``master_seed XOR (i * 0x9E3779B97F4A7C15)``, so
any single trial can be replayed without rerunning the ones before it.

A trial's inputs therefore depend only on the seed, the trial index and
the binder forms, never on the property's name or claim.  A binder's
value, and the stream state after its draw, are functions of its form and
the state the draw starts from, so a session draws each input once:
``run_property`` keeps the draws of trials below ``DEFAULT_TRIALS`` in a
memo keyed by the form's printed text and the starting state, and on a
hit reuses the value (values are immutable and no primitive observes
identity) and the end state the next binder draws from.  Later trials
draw afresh, so the memo does not grow with ``--trials``.

There is no shrinking; a counterexample reports the first failing binding
as generated.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import EqError, EvalError, UnexpectedToken
from .evaluator import DefEnv, evaluate
from .records import Record, set_field
from .syntax import App, IntLit, Property, Term, Var, print_term
from .values import NIL, Symbol, Value, from_list, print_value

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
DEFAULT_TRIALS = 100
DEFAULT_ALPHABET = ("a", "b", "c", "d", "e")


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Stream:
    """A deterministic stream of draws from one splitmix64 state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state, out = splitmix64(self.state)
        return out

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def trial_seed(master_seed: int, index: int) -> int:
    return (master_seed ^ ((index * _GOLDEN) & _MASK64)) & _MASK64


# ---------------------------------------------------------------------------
# Generator forms

# A generator form compiles to the function that draws one value from a stream.
Draw = Callable[[Stream], Value]


def _integer(stream: Stream) -> Value:
    """Uniform integer in [-100, 100]."""
    return stream.int_between(-100, 100)


def _list_of(element: Draw) -> Draw:
    """True list with length uniform in [0, 20], drawn before its elements."""

    def draw(stream: Stream) -> Value:
        length = stream.int_between(0, 20)
        return from_list([element(stream) for _ in range(length)])

    return draw


def _symbol(names: tuple[str, ...]) -> Draw:
    return lambda stream: Symbol(names[stream.below(len(names))])


_OBJECT_DRAWS = (_integer, _symbol(DEFAULT_ALPHABET), _list_of(_integer))


def random_object(stream: Stream) -> Value:
    """One of: integer, symbol, or true list of integers (1/3 each)."""
    return _OBJECT_DRAWS[stream.below(3)](stream)


def generator(t: Term) -> Draw:
    """The draw function of a generator form like (random-list-of (random-integer)).

    The whole form is checked here, so a malformed element form is refused
    even where a draw would never reach it."""
    if not isinstance(t, App):
        raise UnexpectedToken("generator must be an application form", getattr(t, "loc", None))
    if t.op == "random-integer" and not t.args:
        return _integer
    if t.op == "random-natural" and len(t.args) == 1 and isinstance(t.args[0], IntLit):
        bound = t.args[0].value
        if bound < 0:
            raise UnexpectedToken("random-natural bound must be >= 0", t.loc)
        return lambda stream: stream.int_between(0, bound)
    if t.op == "random-list-of" and len(t.args) == 1:
        return _list_of(generator(t.args[0]))
    if t.op == "random-object" and not t.args:
        return random_object
    if t.op == "random-symbol" and t.args:
        if not all(isinstance(a, Var) for a in t.args):
            raise UnexpectedToken("random-symbol takes identifiers", t.loc)
        return _symbol(tuple(a.name for a in t.args))
    raise UnexpectedToken(f"unknown generator form {t.op!r}", t.loc)


# ---------------------------------------------------------------------------
# Running properties


class TestOutcome(Record):
    __slots__ = ()


class Pass(TestOutcome):
    __slots__ = _fields = ("trials_run", "vacuous")

    def __init__(self, trials_run: int, vacuous: int = 0):
        set_field(self, "trials_run", trials_run)
        set_field(self, "vacuous", vacuous)


class Counterexample(TestOutcome):
    __slots__ = _fields = ("bindings", "trial_index", "seed")

    def __init__(self, bindings: dict[str, Value], trial_index: int, seed: int):
        set_field(self, "bindings", bindings)
        set_field(self, "trial_index", trial_index)
        set_field(self, "seed", seed)


class TrialError(EqError):
    """An evaluator error inside one trial, tagged with its bindings."""

    code = "TrialError"

    def __init__(self, message, bindings, trial_index, cause):
        super().__init__(message)
        self.bindings = bindings
        self.trial_index = trial_index
        self.cause = cause


class PropertyReport(Record):
    __slots__ = _fields = ("name", "outcome", "seed", "trials")

    def __init__(self, name: str, outcome: TestOutcome, seed: int, trials: int):
        set_field(self, "name", name)
        set_field(self, "outcome", outcome)
        set_field(self, "seed", seed)
        set_field(self, "trials", trials)

    @property
    def passed(self) -> bool:
        return isinstance(self.outcome, Pass)

    def lines(self) -> list[str]:
        if self.passed:
            extra = f", {self.outcome.vacuous} vacuous" if self.outcome.vacuous else ""
            return [f"{self.name}: pass ({self.outcome.trials_run} trials{extra})"]
        bind = ", ".join(
            f"{k} = {print_value(v)}" for k, v in sorted(self.outcome.bindings.items())
        )
        return [f"{self.name}: counterexample at trial {self.outcome.trial_index}: {bind}"]

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "seed": self.seed, "trials": self.trials}
        if self.passed:
            out["outcome"] = "Pass"
            out["vacuous"] = self.outcome.vacuous
        else:  # run_property returns a Pass or a Counterexample
            out["outcome"] = "Counterexample"
            out["trial"] = self.outcome.trial_index
            out["bindings"] = {
                k: print_value(v) for k, v in sorted(self.outcome.bindings.items())
            }
        return out


# What run_property keeps of the draws it makes: for each generator form's
# printed text, the stream states that a draw of that form started from,
# each with the value drawn and the state after the draw.
Drawn = dict[str, dict[int, tuple[Value, int]]]


def run_property(
    p: Property,
    seed: int,
    defs: DefEnv | None = None,
    drawn: Drawn | None = None,
) -> TestOutcome:
    """Run a property's trials; deterministic given (property, seed, defs).

    Trial ``i``'s inputs depend only on ``seed``, ``i`` and the binder
    forms up to each binder.  ``drawn`` is the memo of draws to replay and
    extend (a ``Session`` passes its own); each draw of a trial below
    ``DEFAULT_TRIALS`` is drawn once per memo, and later trials draw
    afresh.  The outcome is the same with any memo or none.
    """
    if drawn is None:
        drawn = {}
    draws = [
        (var, drawn.setdefault(print_term(form), {}), generator(form)) for var, form in p.binders
    ]
    trials = p.trials if p.trials is not None else DEFAULT_TRIALS
    claim = p.claim
    hyp = claim.args[0] if isinstance(claim, App) and claim.op == "implies" else None
    vacuous = 0
    for i in range(trials):
        state = trial_seed(seed, i)
        bindings = {}
        for var, memo, draw in draws:
            hit = memo.get(state)
            if hit is None:
                stream = Stream(state)
                hit = (draw(stream), stream.state)
                if i < DEFAULT_TRIALS:
                    memo[state] = hit
            bindings[var], state = hit
        try:
            if hyp is not None and evaluate(hyp, bindings, defs) is NIL:
                vacuous += 1
            result = evaluate(claim, bindings, defs)
        except EvalError as exc:
            raise TrialError(
                f"trial {i} of {p.name} raised {exc.code}: {exc.message}", bindings, i, exc
            ) from exc
        if result is NIL:
            return Counterexample(bindings, i, seed)
    return Pass(trials, vacuous)
