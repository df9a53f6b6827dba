"""Hand-offs to the deep-stack worker thread.

Public operations that evaluate in a loop cross to the worker once per
call; everything they evaluate inside runs there as plain calls.
"""

import pytest

from eqthink import evaluator
from eqthink.admissibility import admit
from eqthink.cli import corpus_root
from eqthink.errors import UnknownOperator
from eqthink.evaluator import DefEnv
from eqthink.loader import Session
from eqthink.properties import Pass, run_property
from eqthink.syntax import parse_file, parse_program, parse_term


@pytest.fixture
def hand_offs(monkeypatch):
    """A list that grows by one for every job put on the worker's queue."""
    puts = []
    put = evaluator._WORK_QUEUE.put

    def counting_put(item):
        puts.append(None)
        put(item)

    monkeypatch.setattr(evaluator._WORK_QUEUE, "put", counting_put)
    return puts


def test_loading_avl_crosses_at_most_once_per_form(hand_offs):
    defs = corpus_root() / "defs"
    session = Session()
    for name in ("00_lists.lx", "10_sorting.lx"):
        session.load_file(defs / name)
    forms = parse_file(defs / "20_avl.lx")
    hand_offs.clear()
    results = session.load_forms(forms)
    assert all(r.detail.admitted for r in results if r.kind == "defeqs")
    assert 0 < len(hand_offs) <= len(forms)


def test_property_run_crosses_once(hand_offs):
    [p] = parse_program("(defproperty always (x :value (random-integer)) (equal x x))")
    assert run_property(p, 0) == Pass(100)
    assert len(hand_offs) == 1


def test_error_inside_wrapped_operation_keeps_its_type(hand_offs):
    [d] = parse_program("(defeqs f (n) (f0 (f n) 0))")
    with pytest.raises(UnknownOperator, match="unbound variable"):
        admit(d, DefEnv(), domains=("nat",), measure=parse_term("(len q)"))
    assert len(hand_offs) == 1
