import inspect

import pytest
from hypothesis import HealthCheck, Phase, settings

from eqthink import cost
from eqthink.cli import corpus_root
from eqthink.loader import Session

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    # The explain phase re-runs a failing example under a tracer, which on
    # the evaluator's deep recursion takes minutes before the failure shows.
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("repo")

GROWTH_SIZES = [2**k for k in range(4, 13)]


def by_name(results: list, kind: type) -> dict:
    """The load results of one type (admissibility report, property or proof
    outcome), indexed by name."""
    return {r.name: r for r in results if isinstance(r, kind)}


def rebuilt(record, **changes):
    """A copy of ``record`` with ``changes`` applied, built through its
    class's constructor from the constructor's parameters."""
    params = inspect.signature(type(record)).parameters
    unknown = changes.keys() - params.keys()
    if unknown:
        raise TypeError(f"{type(record).__name__} has no parameters {sorted(unknown)}")
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in params})


def load_corpus(seed: int = 0) -> tuple[Session, list]:
    session = Session(seed=seed)
    results = []
    for sub in ("defs", "proofs"):
        for path in sorted((corpus_root() / sub).glob("*.lx")):
            results.extend(session.load_file(path))
    return session, results


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_env(corpus):
    return corpus[0].env


# The two measurement campaigns below dominate suite runtime (the largest
# worst-case insertion sort run alone is ~1.3e8 steps), so they are shared
# session-wide by every growth assertion.


@pytest.fixture(scope="session")
def merge_sort_curve(corpus_env):
    return cost.measure_steps("merge-sort", cost.random_list, GROWTH_SIZES, 0, corpus_env)


@pytest.fixture(scope="session")
def insertion_worst_curve(corpus_env):
    return cost.measure_steps(
        "insertion-sort", cost.reverse_sorted_list, GROWTH_SIZES, 0, corpus_env, samples=1
    )
