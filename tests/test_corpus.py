"""The bundled library checked against host-language oracles.

The in-language sorts must agree with Python's sorted, the AVL tree
must stay balanced and keep its inorder invariant, and the binary
numbers must denote the integers they claim to.
"""

import math

from conftest import by_name
from hypothesis import given
from hypothesis import strategies as st

from eqthink.properties import Counterexample, Pass
from eqthink.prover import ProofOutcome
from eqthink.syntax import App, Property, Var
from eqthink.values import NIL, Pair, from_list, to_list, value_equal


def _call(env, op, *args):
    from eqthink.evaluator import evaluate

    names = [f"v{i}" for i in range(len(args))]
    return evaluate(App(op, tuple(Var(n) for n in names)), dict(zip(names, args)), env)


def test_all_proofs_accepted(corpus):
    _, results = corpus
    proofs = by_name(results, ProofOutcome).values()
    assert proofs and all(o.accepted for o in proofs)
    assert {o.name for o in proofs} == {
        "and-absorption",
        "app-assoc",
        "app-pfx",
        "adder-sum-0",
        "adder-carry-0",
    }


def test_property_outcomes_as_designed(corpus):
    session, results = corpus
    reports = {name: session.run_property(p) for name, p in by_name(results, Property).items()}
    for name, report in reports.items():
        if name == "app-pfx-any-object":
            assert isinstance(report.outcome, Counterexample), name
        else:
            assert isinstance(report.outcome, Pass), name
    assert reports["app-pfx-guarded"].outcome.vacuous > 0


ints = st.lists(st.integers(-100, 100), max_size=30)


@given(ints)
def test_sorts_agree_with_host_sort(corpus_env, xs):
    as_value = from_list(xs)
    merge_sorted = to_list(_call(corpus_env, "merge-sort", as_value))
    insertion_sorted = to_list(_call(corpus_env, "insertion-sort", as_value))
    assert merge_sorted == insertion_sorted == sorted(xs)


@given(ints)
def test_sortedp_agrees_with_host_check(corpus_env, xs):
    verdict = _call(corpus_env, "sortedp", from_list(xs))
    assert (verdict is not NIL) == (xs == sorted(xs))


# -- AVL ----------------------------------------------------------------------


def _tree_height(tree):
    if tree is NIL:
        return 0
    _, _, left, right = to_list(tree)
    return 1 + max(_tree_height(left), _tree_height(right))


def _tree_nodes(tree):
    if tree is NIL:
        return []
    key, _, left, right = to_list(tree)
    return _tree_nodes(left) + [key] + _tree_nodes(right)


def _assert_avl(tree):
    if tree is NIL:
        return 0
    key, stored_height, left, right = to_list(tree)
    lh = _assert_avl(left)
    rh = _assert_avl(right)
    assert abs(lh - rh) <= 1, "balance factor out of range"
    assert stored_height == 1 + max(lh, rh), "stored height stale"
    return stored_height


@given(ints)
def test_avl_insert_keeps_search_order_and_balance(corpus_env, xs):
    tree = _call(corpus_env, "build-avl", from_list(xs))
    _assert_avl(tree)
    assert _tree_nodes(tree) == sorted(set(xs))
    inorder = to_list(_call(corpus_env, "inorder", tree))
    assert inorder == sorted(set(xs))
    assert _call(corpus_env, "balancedp", tree) is not NIL


def test_avl_ascending_inserts_stay_logarithmic(corpus_env):
    tree = _call(corpus_env, "build-avl", from_list(list(range(1, 32))))
    n = 31
    height = _tree_height(tree)
    assert height <= math.floor(1.45 * math.log2(n + 2))
    assert _tree_nodes(tree) == list(range(1, 32))


def test_avl_duplicate_insert_is_identity(corpus_env):
    tree = _call(corpus_env, "build-avl", from_list([5, 2, 8]))
    again = _call(corpus_env, "avl-insert", 5, tree)
    assert value_equal(tree, again)


@given(ints)
def test_csize_counts_cons_cells(corpus_env, xs):
    got = _call(corpus_env, "csize", from_list(xs))
    assert got == len(xs)
    nested = Pair(Pair(1, 2), Pair(3, NIL))
    assert _call(corpus_env, "csize", nested) == 3


# -- binary numbers -----------------------------------------------------------

bit_lists = st.lists(st.integers(0, 1), max_size=16)


def _denote(bits):
    return sum(b << i for i, b in enumerate(bits))


@given(bit_lists)
def test_bval_denotes_little_endian(corpus_env, bits):
    got = _call(corpus_env, "bval", from_list(bits))
    assert got == _denote(bits)


@given(bit_lists)
def test_binc_is_successor(corpus_env, bits):
    incremented = _call(corpus_env, "binc", from_list(bits))
    assert _call(corpus_env, "bval", incremented) == _denote(bits) + 1


@given(bit_lists, bit_lists)
def test_badd_bmul_denote_arithmetic(corpus_env, xs, ys):
    total = _call(corpus_env, "badd", from_list(xs), from_list(ys))
    assert _call(corpus_env, "bval", total) == _denote(xs) + _denote(ys)
    product = _call(corpus_env, "bmul", from_list(xs), from_list(ys))
    assert _call(corpus_env, "bval", product) == _denote(xs) * _denote(ys)


# -- word/link helpers ----------------------------------------------------------


@given(st.lists(st.integers(-20, 20), max_size=12))
def test_sort_ord_and_dedupe(corpus_env, xs):
    sorted_value = _call(corpus_env, "sort-ord", from_list(xs))
    assert to_list(sorted_value) == sorted(xs)
    deduped = _call(corpus_env, "dedupe-sorted", sorted_value)
    assert to_list(deduped) == sorted(set(xs))


@given(st.lists(st.integers(0, 9), max_size=10), st.integers(0, 9))
def test_member_agrees_with_host(corpus_env, xs, x):
    verdict = _call(corpus_env, "member", x, from_list(xs))
    assert (verdict is not NIL) == (x in xs)
