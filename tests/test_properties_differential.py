"""Generator forms against the ``GenSpec`` tree they replaced.

``GenSpec`` and its five spec classes, ``_OBJECT_KINDS``, ``parse_genspec``
and ``generate`` are kept here verbatim: a generator form was first parsed
into a spec, then each draw walked the spec.  ``generator(form)`` must draw
the same values from the same stream, leave the stream in the same state,
and refuse a malformed form with the same error.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink.cli import corpus_root
from eqthink.errors import UnexpectedToken
from eqthink.properties import DEFAULT_ALPHABET, Stream, generator
from eqthink.syntax import App, IntLit, Property, Term, Var, parse_file, parse_term
from eqthink.values import Symbol, Value, from_list, value_equal

# -- the replaced code, verbatim ----------------------------------------------


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


# -- the comparison -----------------------------------------------------------

DRAWS = 50


def assert_same_draws(form: Term, seed: int) -> None:
    draw, spec = generator(form), parse_genspec(form)
    new, old = Stream(seed), Stream(seed)
    for i in range(DRAWS):
        assert value_equal(draw(new), generate(spec, old)), (form, seed, i)
        assert new.state == old.state, (form, seed, i)


def _corpus_value_forms() -> list[Term]:
    forms = []
    for sub in ("defs", "proofs", "negative"):
        for path in sorted((corpus_root() / sub).glob("*.lx")):
            for top in parse_file(path):
                if isinstance(top, Property):
                    forms.extend(form for _, form in top.binders)
    return forms


CORPUS_FORMS = _corpus_value_forms()


def test_the_corpus_has_value_forms():
    ops = {form.op for form in CORPUS_FORMS}
    assert {"random-integer", "random-list-of", "random-object"} <= ops


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_every_corpus_value_form_draws_as_before(seed):
    for form in CORPUS_FORMS:
        assert_same_draws(form, seed)


_LEAVES = st.one_of(
    st.just("(random-integer)"),
    st.just("(random-object)"),
    st.integers(0, 50).map(lambda n: f"(random-natural {n})"),
    st.lists(st.sampled_from(["a", "b", "p", "q", "zed"]), min_size=1, max_size=4).map(
        lambda names: f"(random-symbol {' '.join(names)})"
    ),
)
_FORMS = st.builds(
    lambda depth, leaf: "(random-list-of " * depth + leaf + ")" * depth,
    st.integers(0, 3),
    _LEAVES,
)


@given(_FORMS, st.integers(0, 2**64 - 1))
def test_drawn_forms_draw_as_before(text, seed):
    assert_same_draws(parse_term(text), seed)


@pytest.mark.parametrize(
    "text",
    [
        "x",
        "5",
        "(random-walk)",
        "(random-natural x)",
        "(random-natural -1)",
        "(random-symbol 1)",
        "(random-list-of (random-walk))",
    ],
)
def test_malformed_forms_raise_as_before(text):
    form = parse_term(text)
    with pytest.raises(Exception) as old:
        parse_genspec(form)
    with pytest.raises(Exception) as new:
        generator(form)
    assert type(new.value) is type(old.value) is UnexpectedToken
    assert str(new.value) == str(old.value)
