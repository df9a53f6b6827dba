"""Grouping, the bundled jobs, and exact-arithmetic pagerank.

Each job is checked against a host-language oracle that never touches
the job's own mapper or reducer.
"""

import sys
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eqthink import evaluator
from eqthink import mapreduce as mapreduce_module
from eqthink.errors import BadDamping, JobError, MapperArity, UnknownOperator
from eqthink.mapreduce import (
    Job,
    group_pairs,
    invert_links,
    job_grep,
    job_wordcount,
    mapreduce,
    pagerank,
)
from eqthink.syntax import parse_program
from eqthink.values import (
    NIL,
    Pair,
    Symbol,
    Value,
    from_list,
    to_list,
    value_compare,
    value_equal,
    value_key,
)

keys = st.one_of(st.integers(-20, 20), st.sampled_from([Symbol(c) for c in "abcde"]))


@given(st.lists(st.tuples(keys, st.integers(0, 99)), max_size=40))
def test_group_pairs_matches_dict_oracle(pairs):
    grouped = group_pairs(pairs)
    oracle: dict = {}
    for k, v in pairs:
        oracle.setdefault(k, []).append(v)
    # same key set, values in emission order
    assert {k: vs for k, vs in grouped} == oracle
    # keys strictly increasing in the value order
    got_keys = [k for k, _ in grouped]
    assert all(value_compare(a, b) < 0 for a, b in zip(got_keys, got_keys[1:]))


def _grouped_by_index(pairs):
    """``group_pairs`` as written before it sorted the pairs by key alone:
    indices sorted by key, ties broken by position.  The differential
    oracle for the current one."""

    def by_key_then_position(i, j):
        c = value_compare(pairs[i][0], pairs[j][0])
        return c if c else i - j

    groups = []
    for i in sorted(range(len(pairs)), key=cmp_to_key(by_key_then_position)):
        key, value = pairs[i]
        if groups and value_compare(groups[-1][0], key) == 0:
            groups[-1][1].append(value)
        else:
            groups.append((key, [value]))
    return groups


# Keys as plain data, built into fresh values for every pair, so equal keys
# are distinct objects: ints, symbols (strings), lists and improper pairs.
key_specs = st.recursive(
    st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"])),
    lambda k: st.one_of(
        st.tuples(st.just("cons"), k, k), st.lists(k, max_size=2).map(tuple)
    ),
    max_leaves=4,
)


def _build_key(spec):
    if isinstance(spec, int):
        return spec
    if isinstance(spec, str):
        return Symbol(spec)
    if spec[:1] == ("cons",):
        return Pair(_build_key(spec[1]), _build_key(spec[2]))
    return from_list(_build_key(item) for item in spec)


@given(st.lists(st.tuples(key_specs, st.integers(0, 99)), max_size=30))
def test_group_pairs_matches_index_tie_break_oracle(specs):
    pairs = [(_build_key(spec), value) for spec, value in specs]
    grouped = group_pairs(pairs)
    oracle = _grouped_by_index(pairs)
    assert grouped == oracle
    # Each group is keyed by the same object: its first emission.
    assert all(got is want for (got, _), (want, _) in zip(grouped, oracle))


def test_group_pairs_keeps_emission_order_within_key():
    pairs = [(1, "c"), (0, "x"), (1, "a"), (1, "b")]
    assert group_pairs(pairs) == [(0, ["x"]), (1, ["c", "a", "b"])]


# ---------------------------------------------------------------------------
# Order keys against the comparison they replace

_VALUE_ORDER = cmp_to_key(value_compare)


def _reference_group_pairs(pairs):
    """``group_pairs`` as it was when it sorted through ``value_compare``."""
    groups = []
    for key, value in sorted(pairs, key=lambda pair: _VALUE_ORDER(pair[0])):
        if groups and value_compare(groups[-1][0], key) == 0:
            groups[-1][1].append(value)
        else:
            groups.append((key, [value]))
    return groups


atoms = st.one_of(
    st.integers(),
    st.integers(-(2**100), 2**100),
    st.sampled_from([Symbol(s) for s in ("nil", "t", "a", "ab", "b", "z")]),
)


def _improper(heads_and_end):
    heads, end = heads_and_end
    out = end
    for head in reversed(heads):
        out = Pair(head, out)
    return out


values = st.recursive(
    atoms,
    lambda v: st.one_of(
        st.builds(Pair, v, v),
        st.lists(v, max_size=3).map(from_list),
        st.tuples(st.lists(v, min_size=1, max_size=3), atoms).map(_improper),
    ),
    max_leaves=8,
)


def _rebuilt(v: Value) -> Value:
    """An equal value with fresh pairs."""
    return Pair(_rebuilt(v.head), _rebuilt(v.tail)) if isinstance(v, Pair) else v


@given(st.lists(values, min_size=1, max_size=5))
def test_value_key_orders_and_equates_as_value_compare(pool):
    others = pool + [_rebuilt(v) for v in pool]
    for a in pool:
        for b in others:
            ka, kb = value_key(a), value_key(b)
            assert (ka > kb) - (ka < kb) == value_compare(a, b)
            assert (ka == kb) == value_equal(a, b)


@given(
    st.lists(values, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from(pool).map(_rebuilt), st.integers(0, 9)), max_size=30
        )
    )
)
def test_group_pairs_matches_value_compare_reference(pairs):
    grouped = group_pairs(pairs)
    reference = _reference_group_pairs(pairs)
    assert grouped == reference
    assert all(got is want for (got, _), (want, _) in zip(grouped, reference))


def test_group_pairs_groups_deep_head_nests_at_default_recursion_limit():
    def nest():
        v = NIL
        for _ in range(100_000):
            v = Pair(v, NIL)
        return v

    a, b = nest(), nest()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        [(key, grouped)] = group_pairs([(a, 1), (b, 2)])
    finally:
        sys.setrecursionlimit(limit)
    assert key is a and grouped == [1, 2]


def _words(corpus_words):
    return [
        (i, from_list([Symbol(w) for w in doc])) for i, doc in enumerate(corpus_words)
    ]


word = st.sampled_from(["the", "cat", "sat", "dog", "big", "end"])
corpus_docs = st.lists(st.lists(word, max_size=12), max_size=8)


@given(corpus_docs)
def test_wordcount_matches_counter_oracle(corpus_env, docs):
    got = job_wordcount(_words(docs), corpus_env)
    expect = Counter(w for doc in docs for w in doc)
    assert {k.name: v for k, v in got} == dict(expect)
    names = [k.name for k, _ in got]
    assert names == sorted(names)


@given(corpus_docs)
def test_grep_matches_substring_oracle(corpus_env, docs):
    lines = _words(docs)
    got = job_grep(Symbol("the"), lines, corpus_env)
    expect = {i: doc for i, doc in enumerate(docs) if "the" in doc}
    assert {k: [s.name for s in to_list(v)] for k, v in got} == expect


@given(
    st.dictionaries(
        st.integers(0, 12), st.lists(st.integers(0, 12), max_size=5), max_size=10
    )
)
def test_invert_links_matches_brute_force(corpus_env, adjacency):
    graph = [(src, from_list(sorted(set(dsts)))) for src, dsts in sorted(adjacency.items())]
    got = invert_links(graph, corpus_env)
    expect: dict = {}
    for src, dsts in adjacency.items():
        for dst in sorted(set(dsts)):
            expect.setdefault(dst, set()).add(src)
    assert {k: set(to_list(v)) for k, v in got} == expect
    for _, v in got:
        sources = to_list(v)
        assert sources == sorted(sources)


def test_mapreduce_calls_evaluate_and_eval_counting_through_module_globals(
    corpus_env, monkeypatch
):
    # The benchmark's tracer times these calls by replacing the module
    # globals; a call that bypassed them would go uncounted.
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(mapreduce_module, "evaluate")
    counted(evaluator, "eval_counting")
    docs = [["the", "cat"], ["the", "dog", "the"]]
    got = job_wordcount(_words(docs), corpus_env)
    assert {k.name: v for k, v in got} == {"the": 3, "cat": 1, "dog": 1}
    # one map call per document, one reduce call per distinct word
    assert calls == {"evaluate": 5, "eval_counting": 5}


def _defs(src):
    from eqthink.loader import Session

    session = Session()
    session.load_forms(parse_program(src))
    return session.env


def test_mapreduce_rejects_bad_jobs(corpus_env):
    with pytest.raises(UnknownOperator):
        mapreduce(Job("no-such-op", "wc-reduce"), [], corpus_env)
    env = _defs(
        """
        (sig one-arg (any))
        (defeqs one-arg (x) (oa (one-arg x) nil))
        """
    )
    with pytest.raises(MapperArity):
        mapreduce(Job("one-arg", "one-arg"), [], env)


def test_mapper_emissions_must_be_pair_lists():
    env = _defs(
        """
        (sig bad-map (any any))
        (defeqs bad-map (k v) (bm (bad-map k v) 7))
        """
    )
    with pytest.raises(JobError):
        mapreduce(Job("bad-map", "bad-map"), [(1, 2)], env)


@pytest.mark.parametrize(
    "body, message",
    [
        ("(cons (cons 1 2) 7)", "bad must return a list of pairs, got (cons (cons 1 2) 7)"),
        # improper and holding a non-pair: the list is reported, not the item
        (
            "(cons 5 (cons (cons 1 2) 7))",
            "bad must return a list of pairs, got (cons 5 (cons (cons 1 2) 7))",
        ),
        # a true list with non-pairs at positions 2 and 3: the first is named
        ("(cons (cons 1 2) '(8 9))", "bad emitted non-pair 8"),
    ],
)
@pytest.mark.parametrize("role", ["mapper", "reducer"])
def test_emission_errors_name_the_list_before_its_items(body, message, role):
    env = _defs(
        f"""
        (defun bad (k v) :trust {body})
        (defun ok (k v) :trust (cons (cons k v) nil))
        """
    )
    job = Job("bad", "ok") if role == "mapper" else Job("ok", "bad")
    with pytest.raises(JobError) as raised:
        mapreduce(job, [(1, 2)], env)
    assert raised.value.message == message


FOUR_NODE = [
    (Symbol("a"), [Symbol("b"), Symbol("c")]),
    (Symbol("b"), [Symbol("c")]),
    (Symbol("c"), [Symbol("a")]),
    (Symbol("d"), [Symbol("c")]),
]


def _dense_pagerank(nodes, edges, damping, iterations):
    """Float power iteration with uniform dangling redistribution."""
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    ranks = [1.0 / n] * n
    for _ in range(iterations):
        incoming = [0.0] * n
        dangling = 0.0
        for src, dsts in edges.items():
            if not dsts:
                dangling += ranks[index[src]]
                continue
            share = ranks[index[src]] / len(dsts)
            for d in dsts:
                incoming[index[d]] += share
        base = (1.0 - damping) / n + damping * dangling / n
        ranks = [base + damping * x for x in incoming]
    return ranks


def test_pagerank_matches_dense_oracle():
    ranks = pagerank(FOUR_NODE, 50)
    nodes = [v for v, _ in ranks]
    edges = {src: list(dsts) for src, dsts in FOUR_NODE}
    expect = _dense_pagerank(nodes, edges, 0.85, 50)
    for (_, got), want in zip(ranks, expect):
        assert abs(float(got) - want) < 1e-9
    assert sum(r for _, r in ranks) == 1


def test_pagerank_sums_exactly_one_every_round():
    for iterations in range(12):
        ranks = pagerank(FOUR_NODE, iterations)
        assert sum(r for _, r in ranks) == Fraction(1)


def test_pagerank_zero_iterations_uniform():
    ranks = pagerank(FOUR_NODE, 0)
    assert all(r == Fraction(1, 4) for _, r in ranks)


def test_pagerank_handles_dangling_nodes():
    graph = [(Symbol("a"), [Symbol("b")]), (Symbol("b"), [])]
    ranks = pagerank(graph, 25)
    assert sum(r for _, r in ranks) == 1
    assert all(r > 0 for _, r in ranks)


def test_pagerank_two_cycle_is_uniform():
    graph = [(Symbol("a"), [Symbol("b")]), (Symbol("b"), [Symbol("a")])]
    ranks = pagerank(graph, 40)
    assert [r for _, r in ranks] == [Fraction(1, 2), Fraction(1, 2)]


def test_pagerank_accepts_language_lists():
    graph = [
        (Symbol("a"), from_list([Symbol("b")])),
        (Symbol("b"), from_list([Symbol("a")])),
    ]
    ranks = pagerank(graph, 3)
    assert sum(r for _, r in ranks) == 1


def test_pagerank_merges_equal_nodes_built_separately():
    # each mention of a node is a fresh Pair; equal values are one node
    def node(i):
        return from_list([Symbol("n"), i])

    graph = [(node(0), [node(1)]), (node(1), [node(0), node(2)])]
    ranks = pagerank(graph, 20)
    assert [to_list(k)[1] for k, _ in ranks] == [0, 1, 2]
    assert sum(r for _, r in ranks) == 1
    symbolic = pagerank([(0, [1]), (1, [0, 2])], 20)
    assert [r for _, r in ranks] == [r for _, r in symbolic]


def test_pagerank_parameter_validation():
    with pytest.raises(BadDamping):
        pagerank(FOUR_NODE, 5, Fraction(0))
    with pytest.raises(BadDamping):
        pagerank(FOUR_NODE, 5, Fraction(1))
    with pytest.raises(BadDamping):
        pagerank(FOUR_NODE, -1)


def test_pagerank_results_are_exact_fractions():
    ranks = pagerank(FOUR_NODE, 50)
    assert all(isinstance(r, Fraction) for _, r in ranks)


# ---------------------------------------------------------------------------
# PageRank against the Fraction arithmetic it replaces


def _reference_pagerank(graph, iterations, damping=Fraction(85, 100)):
    """``pagerank`` as it was when each rank was a ``Fraction``."""
    damping = Fraction(damping)
    if not 0 < damping < 1:
        raise BadDamping(f"damping must lie strictly between 0 and 1, got {damping}")
    if iterations < 0:
        raise BadDamping(f"iterations must be nonnegative, got {iterations}")

    # Values hash and compare structurally, so equal nodes share one key.
    adjacency = []
    seen = set()
    for node, succ in graph:
        targets = to_list(succ) if not isinstance(succ, list) else list(succ)
        adjacency.append((node, targets))
        seen.add(node)
        seen.update(targets)
    nodes = sorted(seen, key=_VALUE_ORDER)
    if not nodes:
        return []
    n = len(nodes)
    index_of = {node: i for i, node in enumerate(nodes)}

    out_edges = [[] for _ in nodes]
    for node, targets in adjacency:
        out_edges[index_of[node]].extend(index_of[t] for t in targets)

    ranks = [Fraction(1, n)] * n
    for _ in range(iterations):
        contributions = []
        dangling = Fraction(0)
        for i, targets in enumerate(out_edges):
            if targets:
                share = ranks[i] / len(targets)
                for t in targets:
                    contributions.append((nodes[t], share))
            else:
                dangling += ranks[i]
        incoming = [Fraction(0)] * n
        for key, values in _reference_group_pairs(contributions):
            incoming[index_of[key]] = sum(values, Fraction(0))
        base = (1 - damping + damping * dangling) / n
        ranks = [base + damping * incoming[i] for i in range(n)]
        assert sum(ranks) == 1
    return list(zip(nodes, ranks))


# Small pools, so that duplicate targets, self-loops and nodes met only as
# targets are common; pair nodes are built afresh at every mention.
node_ids = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Symbol(s) for s in ("a", "b", "nil")]),
    st.integers(0, 2).map(lambda i: from_list([Symbol("p"), i])),
    st.builds(Pair, st.integers(0, 1), st.sampled_from([Symbol("q"), 5])),
)
successors = st.lists(node_ids, max_size=4)
graphs = st.lists(
    st.tuples(node_ids, st.one_of(successors, successors.map(from_list))), max_size=6
)
dampings = st.one_of(
    st.sampled_from(
        [Fraction(85, 100), Fraction(1, 7), Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)]
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


@given(graphs, st.integers(-1, 8), dampings)
@example([], 3, Fraction(85, 100))
@example([(1, [1, 1, 2]), (2, []), (Symbol("a"), [3])], 8, Fraction(1, 7))
def test_pagerank_matches_fraction_reference(graph, iterations, damping):
    try:
        want = _reference_pagerank(graph, iterations, damping)
    except BadDamping:
        with pytest.raises(BadDamping):
            pagerank(graph, iterations, damping)
        return
    got = pagerank(graph, iterations, damping)
    assert [node for node, _ in got] == [node for node, _ in want]
    assert [rank for _, rank in got] == [rank for _, rank in want]
    assert all(type(rank) is Fraction for _, rank in got)
