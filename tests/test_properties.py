import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqthink.errors import EqError
from eqthink.evaluator import DefEnv
from eqthink.properties import (
    Counterexample,
    DEFAULT_TRIALS,
    Pass,
    Stream,
    TrialError,
    generator,
    random_object,
    run_property,
    splitmix64,
    trial_seed,
)
from eqthink.syntax import parse_program, parse_term
from eqthink.values import NIL, Pair, Symbol, to_list


def test_splitmix64_reference_vectors():
    # Published outputs of the splitmix64 reference for seed 0.
    state, out = splitmix64(0)
    assert out == 0xE220A8397B1DCDAF
    state, out = splitmix64(state)
    assert out == 0x6E789E6AA1B965F4
    state, out = splitmix64(state)
    assert out == 0x06C45D188009454F


@given(st.integers(0, 2**64 - 1), st.integers(1, 10**6))
def test_stream_below_in_range(seed, bound):
    s = Stream(seed)
    assert all(0 <= s.below(bound) < bound for _ in range(20))


@given(st.integers(0, 2**64 - 1), st.integers(-500, 500), st.integers(0, 500))
def test_int_between_inclusive(seed, lo, width):
    s = Stream(seed)
    hi = lo + width
    draws = {s.int_between(lo, hi) for _ in range(50)}
    assert all(lo <= d <= hi for d in draws)
    if width == 0:
        assert draws == {lo}


def test_stream_deterministic():
    a, b = Stream(42), Stream(42)
    assert [a.below(1000) for _ in range(10)] == [b.below(1000) for _ in range(10)]


def test_trial_seeds_spread():
    seeds = {trial_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_parse_genspec_forms():
    s, t = Stream(11), Stream(11)
    assert generator(parse_term("(random-integer)"))(s) == t.int_between(-100, 100)
    assert generator(parse_term("(random-natural 9)"))(s) == t.int_between(0, 9)
    draw = generator(parse_term("(random-list-of (random-integer))"))
    assert to_list(draw(s)) == [t.int_between(-100, 100) for _ in range(t.int_between(0, 20))]
    assert generator(parse_term("(random-object)")) is random_object
    assert generator(parse_term("(random-symbol a b)"))(s) == Symbol("ab"[t.below(2)])
    with pytest.raises(EqError):
        generator(parse_term("(random-walk)"))
    with pytest.raises(EqError):
        generator(parse_term("(random-natural x)"))


def test_generate_ranges():
    s = Stream(7)
    ints = [generator(parse_term("(random-integer)"))(s) for _ in range(300)]
    assert all(-100 <= n <= 100 for n in ints)
    assert min(ints) < -60 and max(ints) > 60

    nats = [generator(parse_term("(random-natural 5)"))(s) for _ in range(200)]
    assert set(nats) == {0, 1, 2, 3, 4, 5}

    lists = generator(parse_term("(random-list-of (random-integer))"))
    lengths = {len(to_list(lists(s))) for _ in range(300)}
    assert min(lengths) == 0 and max(lengths) == 20

    syms = {generator(parse_term("(random-symbol p q)"))(s) for _ in range(50)}
    assert syms == {Symbol("p"), Symbol("q")}


def test_random_object_covers_all_shapes():
    s = Stream(3)
    kinds = set()
    for _ in range(200):
        v = random_object(s)
        if isinstance(v, int):
            kinds.add("int")
        elif isinstance(v, Symbol):
            kinds.add("symbol")
        else:
            # to_list raises on anything but a true list
            assert all(isinstance(x, int) for x in to_list(v))
            kinds.add("list")
    assert kinds == {"int", "symbol", "list"}


def _prop(src):
    [p] = parse_program(src)
    return p


def test_run_property_pass_and_default_trials():
    p = _prop("(defproperty always (x :value (random-integer)) (equal x x))")
    outcome = run_property(p, 0)
    assert outcome == Pass(DEFAULT_TRIALS, 0)


def test_run_property_counterexample_is_deterministic():
    p = _prop("(defproperty never (x :value (random-integer)) (< x -1000))")
    outcome = run_property(p, 5)
    assert isinstance(outcome, Counterexample)
    assert outcome.trial_index == 0 and outcome.seed == 5
    assert run_property(p, 5) == outcome


def test_counterexample_reports_first_failing_trial():
    # fails only when x = 0; earlier passing trials must be counted
    p = _prop("(defproperty nonzero (x :value (random-natural 3)) (not (= x 0)))")
    outcome = run_property(p, 0)
    assert isinstance(outcome, Counterexample)
    assert outcome.bindings["x"] == 0
    probe = _prop("(defproperty probe (x :value (random-natural 3)) t)")
    s = Stream(trial_seed(0, outcome.trial_index))
    assert generator(parse_term("(random-natural 3)"))(s) == 0


def test_vacuous_trials_counted():
    p = _prop(
        """
        (defproperty guarded :trials 200
          (x :value (random-integer))
          (implies (< x 0) (<= x 0)))
        """
    )
    outcome = run_property(p, 0)
    assert isinstance(outcome, Pass)
    assert outcome.trials_run == 200
    assert 0 < outcome.vacuous < 200


def test_explicit_trial_count_respected():
    p = _prop("(defproperty few :trials 3 (x :value (random-integer)) (equal x x))")
    assert run_property(p, 0) == Pass(3, 0)


def test_trial_error_carries_bindings():
    p = _prop("(defproperty broken (x :value (random-integer)) (mystery x))")
    with pytest.raises(TrialError) as err:
        run_property(p, 0, DefEnv())
    assert err.value.trial_index == 0
    assert "x" in err.value.bindings
    assert "UnknownOperator" in str(err.value)


def test_claims_about_pairs():
    p = _prop(
        """
        (defproperty cons-shape
          (x :value (random-object) xs :value (random-object))
          (consp (cons x xs)))
        """
    )
    assert isinstance(run_property(p, 11), Pass)
