"""Sequential MapReduce over key/value pairs, plus four stock jobs.

Mappers and reducers are two-argument operators written in the object
language and admitted beforehand.  The framework contributes only the
deterministic plumbing: map in input order, group by key under the
total value order, reduce per group, concatenate in key order.

PageRank keeps the same grouping engine but runs its arithmetic on the
host side with exact rationals so the rank-conservation invariant is an
equality, not an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import TypeVar

from .errors import BadDamping, JobError, MapperArity, ReducerArity, UnknownOperator
from .evaluator import DefEnv, evaluate
from .records import Record, set_field
from .syntax import App, Var
from .values import Pair, Value, from_list, is_true_list, print_value, to_list, value_compare

KVPair = tuple  # (key: Value, value: Value)

V = TypeVar("V")


class Job(Record):
    __slots__ = _fields = ("mapper", "reducer")

    def __init__(self, mapper: str, reducer: str):
        set_field(self, "mapper", mapper)
        set_field(self, "reducer", reducer)


_VALUE_ORDER = cmp_to_key(value_compare)


def group_pairs(pairs: list[tuple[Value, V]]) -> list[tuple[Value, list[V]]]:
    """Group by key: keys strictly increasing under the total value
    order, each group's values in emission order (the sort is stable)."""
    groups: list[tuple[Value, list[V]]] = []
    for key, value in sorted(pairs, key=lambda pair: _VALUE_ORDER(pair[0])):
        if groups and value_compare(groups[-1][0], key) == 0:
            groups[-1][1].append(value)
        else:
            groups.append((key, [value]))
    return groups


def _require_arity(defs: DefEnv, name: str, err) -> None:
    arity = defs.arity(name)
    if arity is None:
        raise UnknownOperator(f"{name} is not defined")
    if arity != 2:
        raise err(f"{name} takes {arity} argument(s), mappers and reducers take 2")


def _unpack_emissions(op: str, result: Value) -> list[KVPair]:
    if not is_true_list(result):
        raise JobError(f"{op} must return a list of pairs, got {print_value(result)}")
    out = []
    for item in to_list(result):
        if not isinstance(item, Pair):
            raise JobError(f"{op} emitted non-pair {print_value(item)}")
        out.append((item.head, item.tail))
    return out


def mapreduce(job: Job, input_pairs: list[KVPair], defs: DefEnv) -> list[KVPair]:
    _require_arity(defs, job.mapper, MapperArity)
    _require_arity(defs, job.reducer, ReducerArity)
    map_call = App(job.mapper, (Var("a"), Var("b")))
    reduce_call = App(job.reducer, (Var("a"), Var("b")))
    intermediate: list[KVPair] = []
    for key, value in input_pairs:
        result = evaluate(map_call, {"a": key, "b": value}, defs)
        intermediate.extend(_unpack_emissions(job.mapper, result))
    output: list[KVPair] = []
    for key, values in group_pairs(intermediate):
        result = evaluate(reduce_call, {"a": key, "b": from_list(values)}, defs)
        output.extend(_unpack_emissions(job.reducer, result))
    return output


# ---------------------------------------------------------------------------
# Stock jobs (operator definitions live in the corpus)

WORDCOUNT = Job("wc-map", "wc-reduce")
GREP = Job("grep-map", "grep-reduce")
INVERT = Job("inv-map", "inv-reduce")


def job_wordcount(documents: list[KVPair], defs: DefEnv) -> list[KVPair]:
    """documents: (doc-id, token list) pairs -> (token, count) pairs."""
    return mapreduce(WORDCOUNT, documents, defs)


def job_grep(pattern: Value, lines: list[KVPair], defs: DefEnv) -> list[KVPair]:
    """lines: (line-no, token list) pairs -> (line-no, line) for lines
    containing the pattern token.

    The mapper only sees (key, value), so the pattern rides along as the
    head of each value: (pattern . line)."""
    packed = [(key, Pair(pattern, line)) for key, line in lines]
    return mapreduce(GREP, packed, defs)


def invert_links(graph: list[KVPair], defs: DefEnv) -> list[KVPair]:
    """graph: (source, target list) pairs -> (target, sorted duplicate-free
    source list) pairs."""
    return mapreduce(INVERT, graph, defs)


# ---------------------------------------------------------------------------
# PageRank

DEFAULT_DAMPING = Fraction(85, 100)


def pagerank(
    graph: list[KVPair], iterations: int, damping: Fraction = DEFAULT_DAMPING
) -> list[tuple[Value, Fraction]]:
    """graph: (node, successor list) pairs.  Returns (node, rank) in key
    order with exact rational ranks summing to 1.

    Each iteration distributes rank(v)/outdegree(v) along edges, then
    every node receives (1-d)/N plus d times its incoming mass; mass at
    dangling nodes is split uniformly.
    """
    damping = Fraction(damping)
    if not 0 < damping < 1:
        raise BadDamping(f"damping must lie strictly between 0 and 1, got {damping}")
    if iterations < 0:
        raise BadDamping(f"iterations must be nonnegative, got {iterations}")

    # Values hash and compare structurally, so equal nodes share one key.
    adjacency: list[tuple[Value, list[Value]]] = []
    seen: set[Value] = set()
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

    out_edges: list[list[int]] = [[] for _ in nodes]
    for node, targets in adjacency:
        out_edges[index_of[node]].extend(index_of[t] for t in targets)

    ranks = [Fraction(1, n)] * n
    for _ in range(iterations):
        contributions: list[tuple[Value, Fraction]] = []
        dangling = Fraction(0)
        for i, targets in enumerate(out_edges):
            if targets:
                share = ranks[i] / len(targets)
                for t in targets:
                    contributions.append((nodes[t], share))
            else:
                dangling += ranks[i]
        incoming = [Fraction(0)] * n
        for key, values in group_pairs(contributions):
            incoming[index_of[key]] = sum(values, Fraction(0))
        base = (1 - damping + damping * dangling) / n
        ranks = [base + damping * incoming[i] for i in range(n)]
        assert sum(ranks) == 1
    return list(zip(nodes, ranks))
