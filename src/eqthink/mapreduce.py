"""Sequential MapReduce over key/value pairs, plus four stock jobs.

Mappers and reducers are two-argument operators written in the object
language and admitted beforehand.  The framework contributes only the
deterministic plumbing: map in input order, group by key under the
total value order, reduce per group, concatenate in key order.  Grouping
sorts on each key's flat order key (``values.value_key``), so the sort
compares native tuples and calls no Python function per comparison.

PageRank keeps the same grouping engine but runs its arithmetic on the
host side, exactly: each round's ranks are integer numerators over one
common denominator, so the rank-conservation invariant is an equality,
not an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import TypeVar

from .errors import BadDamping, JobError, MapperArity, ReducerArity, UnknownOperator
from .evaluator import DefEnv, evaluate
from .records import Record, set_field
from .syntax import App, Var
from .values import NIL, Pair, Value, from_list, print_value, to_list, value_key

KVPair = tuple  # (key: Value, value: Value)

V = TypeVar("V")

_KEY_AND_VALUE = (Var("a"), Var("b"))


class Job(Record):
    # map_call and reduce_call are the terms mapreduce evaluates, built once
    # per job; like App.shape they are carried but never compared.
    __slots__ = ("mapper", "reducer", "map_call", "reduce_call")
    _fields = ("mapper", "reducer")

    def __init__(self, mapper: str, reducer: str):
        set_field(self, "mapper", mapper)
        set_field(self, "reducer", reducer)
        set_field(self, "map_call", App(mapper, _KEY_AND_VALUE))
        set_field(self, "reduce_call", App(reducer, _KEY_AND_VALUE))


_FIRST = itemgetter(0)


def group_pairs(pairs: list[tuple[Value, V]]) -> list[tuple[Value, list[V]]]:
    """Group by key: keys strictly increasing under the total value
    order, each group's values in emission order and its key the first
    emission's.  The pairs are sorted stably on their keys' ``value_key``
    tuples and grouped on tuple equality."""
    keyed = sorted(zip(map(value_key, map(_FIRST, pairs)), pairs), key=_FIRST)
    groups: list[tuple[Value, list[V]]] = []
    last = None
    for order_key, (key, value) in keyed:
        if order_key == last:
            values.append(value)
        else:
            values = [value]
            groups.append((key, values))
            last = order_key
    return groups


def _require_arity(defs: DefEnv, name: str, err) -> None:
    arity = defs.arity(name)
    if arity is None:
        raise UnknownOperator(f"{name} is not defined")
    if arity != 2:
        raise err(f"{name} takes {arity} argument(s), mappers and reducers take 2")


def _unpack_emissions(op: str, result: Value) -> list[KVPair]:
    """The (key, value) pairs of a list of pairs, in one walk of its spine.
    An improper list is reported before an item that is not a pair."""
    out = []
    stray = None  # the first item that is not a pair
    node = result
    while isinstance(node, Pair):
        item = node.head
        if isinstance(item, Pair):
            out.append((item.head, item.tail))
        elif stray is None:
            stray = item
        node = node.tail
    if node is not NIL:
        raise JobError(f"{op} must return a list of pairs, got {print_value(result)}")
    if stray is not None:
        raise JobError(f"{op} emitted non-pair {print_value(stray)}")
    return out


def mapreduce(job: Job, input_pairs: list[KVPair], defs: DefEnv) -> list[KVPair]:
    _require_arity(defs, job.mapper, MapperArity)
    _require_arity(defs, job.reducer, ReducerArity)
    intermediate: list[KVPair] = []
    for key, value in input_pairs:
        result = evaluate(job.map_call, {"a": key, "b": value}, defs)
        intermediate.extend(_unpack_emissions(job.mapper, result))
    output: list[KVPair] = []
    for key, values in group_pairs(intermediate):
        result = evaluate(job.reduce_call, {"a": key, "b": from_list(values)}, defs)
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
    order (``value_key``) with exact rational ranks summing to 1.

    Each iteration distributes rank(v)/outdegree(v) along edges, then
    every node receives (1-d)/N plus d times its incoming mass; mass at
    dangling nodes is split uniformly.  A round's ranks are integer
    numerators over one common denominator, reduced by their gcd once a
    round, so they stay exact and sum to the denominator every round;
    ``Fraction``s are built only for the result.
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
    nodes = sorted(seen, key=value_key)
    if not nodes:
        return []
    n = len(nodes)
    index_of = {node: i for i, node in enumerate(nodes)}

    out_edges: list[list[int]] = [[] for _ in nodes]
    for node, targets in adjacency:
        out_edges[index_of[node]].extend(index_of[t] for t in targets)

    # A share rank/outdegree is num * (scale // outdegree) over den * scale.
    scale = lcm(*(len(targets) for targets in out_edges if targets))
    p, q = damping.numerator, damping.denominator
    num, den = [1] * n, n
    for _ in range(iterations):
        contributions: list[tuple[Value, int]] = []
        dangling = 0
        for i, targets in enumerate(out_edges):
            if targets:
                share = num[i] * (scale // len(targets))
                for t in targets:
                    contributions.append((nodes[t], share))
            else:
                dangling += num[i]
        incoming = [0] * n
        for key, values in group_pairs(contributions):
            incoming[index_of[key]] = sum(values)
        # With d = p/q, rank = (1-d)/N + d*(dangling/den)/N
        # + d*incoming/(den*scale), written over one denominator q*N*den*scale.
        base = ((q - p) * den + p * dangling) * scale
        num = [base + p * n * x for x in incoming]
        den *= q * n * scale
        g = gcd(den, *num)
        num, den = [x // g for x in num], den // g
        assert sum(num) == den
    return [(node, Fraction(x, den)) for node, x in zip(nodes, num)]
