"""Grouping, the bundled jobs, and exact-arithmetic pagerank.

Each job is checked against a host-language oracle that never touches
the job's own mapper or reducer.
"""

from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given
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
from eqthink.values import Pair, Symbol, from_list, to_list, value_compare

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
