"""Trial inputs replayed from a memo against inputs drawn afresh.

``run_property`` keeps each binder's draw in a memo keyed by the form's
printed text and the stream state the draw started from, and replays it
when another property, or another run, reaches the same form at the same
state.  Whatever the memo holds, a property must see the bindings that
``generator(form)`` draws on a fresh ``Stream(trial_seed(seed, i))``, and
its outcome must be the one it has with a memo of its own.
"""

import pytest
from conftest import by_name
from hypothesis import given
from hypothesis import strategies as st

from eqthink import properties
from eqthink.properties import DEFAULT_TRIALS, Stream, generator, run_property, trial_seed
from eqthink.syntax import Property, parse_program, print_term
from eqthink.values import T, value_equal


def _prop(name, forms, trials=None):
    binders = " ".join(f"x{k} :value {form}" for k, form in enumerate(forms))
    count = f" :trials {trials}" if trials is not None else ""
    [p] = parse_program(f"(defproperty {name}{count} ({binders}) t)")
    return p


def _fresh(p, seed, i):
    """Trial i's bindings drawn on a fresh stream, and the state it ends in."""
    stream = Stream(trial_seed(seed, i))
    return {var: generator(form)(stream) for var, form in p.binders}, stream.state


def _seen_bindings(monkeypatch):
    """Make every claim hold and record the bindings each trial evaluates."""
    seen = []

    def evaluate(term, bindings, defs):
        seen.append(bindings)
        return T

    monkeypatch.setattr(properties, "evaluate", evaluate)
    return seen


def _end_state(p, seed, i, drawn):
    """The state after trial i's last binder, read off the memo's chain."""
    state = trial_seed(seed, i)
    for _, form in p.binders:
        _, state = drawn[print_term(form)][state]
    return state


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corpus_outcomes_are_the_same_through_one_shared_memo(corpus, seed):
    session, results = corpus
    shared = {}
    for p in by_name(results, Property).values():
        assert run_property(p, seed, session.env, shared) == run_property(p, seed, session.env, {})
    assert any(shared.values())


_FORM_POOL = [
    "(random-integer)",
    "(random-natural 3)",
    "(random-list-of (random-integer))",
    "(random-list-of (random-natural 1))",
    "(random-object)",
    "(random-symbol a b c)",
]


@given(
    st.lists(st.lists(st.sampled_from(_FORM_POOL), min_size=1, max_size=3), min_size=2, max_size=4),
    st.integers(0, 2**64 - 1),
    st.integers(1, 4),
)
def test_drawn_binder_lists_match_fresh_draws(binder_lists, seed, trials):
    with pytest.MonkeyPatch.context() as patch:
        seen = _seen_bindings(patch)
        drawn = {}
        for k, forms in enumerate(binder_lists):
            p = _prop(f"p{k}", forms, trials)
            del seen[:]
            run_property(p, seed, None, drawn)
            assert len(seen) == trials
            for i, bindings in enumerate(seen):
                expected, end = _fresh(p, seed, i)
                assert bindings.keys() == expected.keys()
                assert all(value_equal(bindings[var], expected[var]) for var in expected)
                assert _end_state(p, seed, i, drawn) == end


def test_a_shared_first_binder_is_the_same_object(monkeypatch):
    lists = _prop("lists", ["(random-list-of (random-integer))"])
    longer = _prop("longer", ["(random-list-of (random-integer))", "(random-natural 5)"])
    shifted = _prop("shifted", ["(random-integer)", "(random-list-of (random-integer))"])
    seen = _seen_bindings(monkeypatch)
    drawn = {}
    runs = []
    for p in (lists, longer, shifted):
        del seen[:]
        run_property(p, 0, None, drawn)
        runs.append(list(seen))
    firsts, seconds, shifts = runs
    for i in range(DEFAULT_TRIALS):
        assert seconds[i]["x0"] is firsts[i]["x0"]
        # The same form after another binder starts from another state: no hit.
        expected, _ = _fresh(shifted, 0, i)
        assert value_equal(shifts[i]["x1"], expected["x1"])


def test_the_memo_keeps_only_trials_below_the_bound(monkeypatch):
    p = _prop("long", ["(random-list-of (random-integer))", "(random-object)"], trials=1000)
    seen = _seen_bindings(monkeypatch)
    drawn = {}
    assert run_property(p, 3, None, drawn) == properties.Pass(1000, 0)
    assert sum(len(memo) for memo in drawn.values()) <= DEFAULT_TRIALS * len(p.binders)
    for i in (0, DEFAULT_TRIALS - 1, DEFAULT_TRIALS, 999):
        expected, _ = _fresh(p, 3, i)
        assert all(value_equal(seen[i][var], expected[var]) for var in expected)

