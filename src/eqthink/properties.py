"""Randomized property testing for the mini-language.

Properties bind variables to generator specs and assert a claim term.
Trials are reproducible: the PRNG is splitmix64 and trial ``i`` runs on a
fresh stream seeded with ``master_seed XOR (i * 0x9E3779B97F4A7C15)``, so
any single trial can be replayed without rerunning the ones before it.

There is no shrinking; a counterexample reports the first failing binding
as generated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EqError, EvalError, UnexpectedToken
from .evaluator import DefEnv, evaluate
from .syntax import App, IntLit, Property, Term, Var
from .values import NIL, Symbol, Value, from_list

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
# Generator specs


class GenSpec:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RandomInteger(GenSpec):
    """Uniform integer in [-100, 100]."""


@dataclass(frozen=True, slots=True)
class RandomNatural(GenSpec):
    """Uniform natural in [0, bound]."""

    bound: int


@dataclass(frozen=True, slots=True)
class RandomListOf(GenSpec):
    """True list with length uniform in [0, 20]."""

    element: GenSpec


@dataclass(frozen=True, slots=True)
class RandomObject(GenSpec):
    """One of: integer, symbol, or true list of integers (1/3 each)."""


@dataclass(frozen=True, slots=True)
class RandomSymbol(GenSpec):
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET


_OBJECT_KINDS = (RandomInteger(), RandomSymbol(), RandomListOf(RandomInteger()))


def parse_genspec(t: Term) -> GenSpec:
    """Interpret a generator form like (random-list-of (random-integer))."""
    if not isinstance(t, App):
        raise UnexpectedToken("generator must be an application form", getattr(t, "loc", None))
    if t.op == "random-integer" and not t.args:
        return RandomInteger()
    if t.op == "random-natural" and len(t.args) == 1 and isinstance(t.args[0], IntLit):
        if t.args[0].value < 0:
            raise UnexpectedToken("random-natural bound must be >= 0", t.loc)
        return RandomNatural(t.args[0].value)
    if t.op == "random-list-of" and len(t.args) == 1:
        return RandomListOf(parse_genspec(t.args[0]))
    if t.op == "random-object" and not t.args:
        return RandomObject()
    if t.op == "random-symbol" and t.args:
        names = []
        for a in t.args:
            if not isinstance(a, Var):
                raise UnexpectedToken("random-symbol takes identifiers", t.loc)
            names.append(a.name)
        return RandomSymbol(tuple(names))
    raise UnexpectedToken(f"unknown generator form {t.op!r}", t.loc)


def generate(g: GenSpec, stream: Stream) -> Value:
    if isinstance(g, RandomInteger):
        return stream.int_between(-100, 100)
    if isinstance(g, RandomNatural):
        return stream.int_between(0, g.bound)
    if isinstance(g, RandomListOf):
        length = stream.int_between(0, 20)
        return from_list([generate(g.element, stream) for _ in range(length)])
    if isinstance(g, RandomSymbol):
        return Symbol(g.alphabet[stream.below(len(g.alphabet))])
    if isinstance(g, RandomObject):
        return generate(_OBJECT_KINDS[stream.below(3)], stream)
    raise TypeError(f"not a generator spec: {g!r}")


# ---------------------------------------------------------------------------
# Running properties


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


class TrialError(EqError):
    """An evaluator error inside one trial, tagged with its bindings."""

    code = "TrialError"

    def __init__(self, message, bindings, trial_index, cause):
        super().__init__(message)
        self.bindings = bindings
        self.trial_index = trial_index
        self.cause = cause


@dataclass(frozen=True)
class PropertyReport:
    name: str
    outcome: TestOutcome
    seed: int
    trials: int


def run_property(
    p: Property,
    seed: int,
    defs: DefEnv | None = None,
) -> TestOutcome:
    """Run a property's trials; deterministic given (property, seed, defs)."""
    gens = [(var, parse_genspec(form)) for var, form in p.binders]
    trials = p.trials if p.trials is not None else DEFAULT_TRIALS
    claim = p.claim
    hyp = claim.args[0] if isinstance(claim, App) and claim.op == "implies" else None
    vacuous = 0
    for i in range(trials):
        stream = Stream(trial_seed(seed, i))
        bindings = {var: generate(g, stream) for var, g in gens}
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
