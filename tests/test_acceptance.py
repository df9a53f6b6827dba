"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single PASS line naming the claim it verified;
tolerances and time budgets are asserted inline.  Run with -s (or read
the captured output) to see the lines.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

from conftest import by_name, rebuilt

from eqthink.admissibility import AdmissibilityReport
from eqthink.circuits import (
    BASES,
    big_add,
    big_mul,
    exhaustive_equiv,
    formula_to_circuit,
    from_bits,
    ripple_carry,
    simulate,
    to_basis,
    to_bits,
)
from eqthink.cli import corpus_root, main
from eqthink.cost import check_bound
from eqthink.evaluator import evaluate
from eqthink.loader import Session
from eqthink.mapreduce import invert_links, job_wordcount, pagerank
from eqthink.properties import (
    Counterexample,
    Pass,
    Stream,
    generator,
    trial_seed,
)
from eqthink.prover import ProofOutcome, check_proof, derive_truth_table
from eqthink.rewriting import RuleDatabase, match
from eqthink.syntax import Property, SymLit, parse_file, parse_term, substitute
from eqthink.values import NIL, Symbol, from_list, to_list, value_equal

PROOF_DIR = corpus_root() / "proofs"
NEGATIVE_DIR = corpus_root() / "negative"


def _script(path, name):
    for form in parse_file(path):
        if getattr(form, "name", None) == name and hasattr(form, "chains"):
            return form
    raise AssertionError(f"{name} not found in {path}")


def test_absorption_proof_replays_and_rejects_mutants():
    script = _script(PROOF_DIR / "50_boolean.lx", "and-absorption")
    chain = script.chains[0]
    assert [s.label for s in chain.steps] == [
        "or-identity", "or-commutative", "or-distributive", "and-null", "or-identity",
    ]
    assert chain.first == parse_term("(and (or x y) y)")
    assert [s.term for s in chain.steps] == [
        parse_term("(and (or x y) (or y nil))"),
        parse_term("(and (or y x) (or y nil))"),
        parse_term("(or y (and x nil))"),
        parse_term("(or y nil)"),
        parse_term("y"),
    ]

    started = time.perf_counter()
    outcome = check_proof(script, RuleDatabase.axioms())
    elapsed = time.perf_counter() - started
    assert outcome.accepted
    assert elapsed < 1.0, f"proof replay took {elapsed:.3f}s"

    def mutated(index, **changes):
        steps = list(chain.steps)
        steps[index] = rebuilt(steps[index], **changes)
        return rebuilt(script, chains=(rebuilt(chain, steps=tuple(steps)),))

    for i in range(len(chain.steps)):
        for changes in ({"term": SymLit("nil")}, {"label": "or-null"}):
            verdict = check_proof(mutated(i, **changes), RuleDatabase.axioms())
            assert not verdict.accepted, (i, changes)
            assert verdict.step_index == i + 1, (i, changes, verdict)
    print("PASS: five-step absorption chain replays; all 10 single-step mutants "
          "are rejected at their own step")


def test_append_associativity_proof_and_random_validation(corpus):
    session, results = corpus
    outcome = by_name(results, ProofOutcome)["app-assoc"]
    assert outcome.accepted

    script = _script(PROOF_DIR / "60_append.lx", "app-assoc")
    base, step = script.chains
    assert [s.label for s in base.steps] == ["app0", "app0"]
    assert len(step.steps) == 6  # seven lines: the start term plus six steps

    lists = generator(parse_term("(random-list-of (random-integer))"))
    lhs = parse_term("(append xs (append ys zs))")
    rhs = parse_term("(append (append xs ys) zs)")
    for i in range(1000):
        stream = Stream(trial_seed(0, i))
        bindings = {v: lists(stream) for v in ("xs", "ys", "zs")}
        assert value_equal(
            evaluate(lhs, bindings, session.env), evaluate(rhs, bindings, session.env)
        )
    print("PASS: append associativity accepted (2-step base, 7-line step) and "
          "semantically true on 1000 random list triples")


def test_guarded_prefix_narrative(corpus):
    session, results = corpus
    properties = by_name(results, Property)

    unguarded_lists = session.run_property(properties["app-pfx-random-lists"])
    assert unguarded_lists.trials == 100 and unguarded_lists.seed == 0
    assert isinstance(unguarded_lists.outcome, Pass)

    any_object = session.run_property(properties["app-pfx-any-object"])
    assert isinstance(any_object.outcome, Counterexample)
    witness = any_object.outcome.bindings["xs"]
    assert evaluate(
        parse_term("(true-listp xs)"), {"xs": witness}, session.env
    ) is NIL, "counterexample must be a non-list"

    guarded = session.run_property(properties["app-pfx-guarded"])
    assert isinstance(guarded.outcome, Pass)

    proof = by_name(results, ProofOutcome)["app-pfx"]
    assert proof.accepted
    script = _script(PROOF_DIR / "70_app_prefix.lx", "app-pfx")
    assert script.method == ("induction", "list", "xs")
    assert script.hypothesis == parse_term("(true-listp xs)")
    print("PASS: unguarded prefix law passes 100 list trials, fails on a "
          "random object, and the guarded form passes and is proved by "
          "list induction")


def test_admissibility_positives_and_negatives(corpus):
    session, results = corpus
    admissibility = by_name(results, AdmissibilityReport)
    required = ("append", "prefix", "merge", "merge-sort", "insertion-sort", "avl-insert")
    for name in required:
        assert admissibility[name].admitted, name
    assert admissibility["merge-sort"].constructive.verdict == "Proved"
    assert "merge-sort" in session.measures

    rejected = []
    for path in sorted(NEGATIVE_DIR.glob("*.lx")):
        fresh = Session()
        reports = [r for r in fresh.load_file(path) if isinstance(r, AdmissibilityReport)]
        bad = [r for r in reports if not r.admitted]
        assert bad, f"{path.name} unexpectedly admitted"
        for report in bad:
            failures = [
                c for c in (report.consistent, report.comprehensive, report.constructive)
                if c.verdict == "Failed"
            ]
            assert failures and all(f.witness for f in failures), path.name
            rejected.append(report.name)
    assert sorted(rejected) == ["chop", "clash", "spin"]
    print("PASS: all six flagship definitions admitted (merge-sort via its "
          "measure, TestedOnly); three negatives rejected with witnesses")


REGRESSION_FORMULAS = [
    "(and x y)",
    "(or x y)",
    "(not x)",
    "(xor x y)",
    "(nand x y)",
    "(nor x y)",
    "(implies x y)",
    "(and (or x y) y)",
    "(or (and x y) (and (not x) z))",
    "(implies (and x y) (or x z))",
    "(xor (xor x y) z)",
    "(nand (nand x x) (nand y y))",
    "(nor x (nor y z))",
    "(not (implies x (not y)))",
    "(or (or x y) (or z w))",
    "(and (and x y) (and z (or w v)))",
    "(implies (implies x y) (implies (not y) (not x)))",
    "(xor (and a b) (or c (not d)))",
    "(or (and a (not b)) (and (xor c d) (nor e f)))",
    "(implies (or a b) (and (or a c) (or b (not c))))",
]


def test_adders_bases_and_implication_table():
    started = time.perf_counter()
    for width in range(1, 9):
        net = ripple_carry(width)
        for packed in range(2 ** (2 * width + 1)):
            x = packed & ((1 << width) - 1)
            y = (packed >> width) & ((1 << width) - 1)
            cin = packed >> (2 * width)
            assignment = {f"x{i}": (x >> i) & 1 for i in range(width)}
            assignment |= {f"y{i}": (y >> i) & 1 for i in range(width)}
            assignment["cin"] = cin
            bits = simulate(net, assignment)
            assert sum(b << i for i, b in enumerate(bits)) == x + y + cin
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"adder sweep took {elapsed:.2f}s"

    assert len(REGRESSION_FORMULAS) == 20
    for src in REGRESSION_FORMULAS:
        net = formula_to_circuit(parse_term(src))
        assert len(net.inputs) <= 6
        for basis in BASES:
            lowered = to_basis(net, basis)
            kinds = {g.kind for g in lowered.gates}
            assert kinds <= {"NAND"} or kinds <= {"IMPL", "CONST0"}
            assert exhaustive_equiv(net, lowered).equivalent, (src, basis)

    implication = parse_term("(implies x y)")
    expected = [
        ({"x": True, "y": True}, True),
        ({"x": True, "y": False}, False),
        ({"x": False, "y": True}, True),
        ({"x": False, "y": False}, True),
    ]
    assert derive_truth_table(implication) == expected

    axiom = RuleDatabase.axioms().resolve("implication")
    sigma = match(axiom.lhs, implication)
    unfolded = substitute(axiom.rhs, sigma)  # (or (not x) y)
    assert derive_truth_table(unfolded) == expected

    net = formula_to_circuit(implication)
    for row, want in expected:
        bits = simulate(net, {k: int(v) for k, v in row.items()})
        assert bits == [int(want)]
    print(f"PASS: adders 1..8 match integer addition exhaustively in "
          f"{elapsed:.2f}s; 20-formula basis regression equivalent in both "
          f"bases; implication table matches the axiom unfolding")


def test_bignum_matches_integer_arithmetic():
    started = time.perf_counter()
    for a in range(256):
        bits_a = to_bits(a)
        for b in range(256):
            bits_b = to_bits(b)
            assert from_bits(big_add(bits_a, bits_b)) == a + b
            assert from_bits(big_mul(bits_a, bits_b)) == a * b
    rng = random.Random(0)
    for _ in range(1000):
        a = rng.getrandbits(256)
        b = rng.getrandbits(256)
        assert from_bits(big_add(to_bits(a), to_bits(b))) == a + b
        assert from_bits(big_mul(to_bits(a), to_bits(b))) == a * b
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"bignum sweep took {elapsed:.2f}s"
    print(f"PASS: bignum add/mul equal integer arithmetic on all of "
          f"[0,255]^2 plus 1000 random 256-bit pairs in {elapsed:.2f}s")


def test_sort_growth_verdicts(merge_sort_curve, insertion_worst_curve):
    merge_nlogn = check_bound(merge_sort_curve, "nlogn", window=1.5)
    assert merge_nlogn.consistent, merge_nlogn.to_json()
    merge_quadratic = check_bound(merge_sort_curve, "n^2", window=1.5)
    assert not merge_quadratic.consistent

    insertion = check_bound(insertion_worst_curve, "n^2", window=1.5)
    assert insertion.consistent, insertion.to_json()

    doubling = insertion_worst_curve[4096] / insertion_worst_curve[2048]
    assert 3.6 <= doubling <= 4.4, doubling

    merge_doubling = merge_sort_curve[1024] / merge_sort_curve[512]
    assert 1.8 <= merge_doubling <= 2.4, merge_doubling

    for n in (512, 1024, 2048, 4096):
        assert insertion_worst_curve[n] > merge_sort_curve[n], n
    print(f"PASS: merge sort consistent with nlogn (not n^2); worst-case "
          f"insertion sort consistent with n^2, doubling ratio "
          f"{doubling:.3f}; insertion exceeds merge for every n >= 512")


def _random_word_corpus(rng):
    alphabet = ["the", "cat", "sat", "mat", "dog", "big", "red", "sun"]
    docs = []
    for key in range(rng.randint(1, 8)):
        words = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        docs.append((key, from_list([Symbol(w) for w in words])))
    return docs


def test_mapreduce_oracles(corpus_env):
    rng = random.Random(0)
    for _ in range(100):
        docs = _random_word_corpus(rng)
        got = {k.name: v for k, v in job_wordcount(docs, corpus_env)}
        expect = Counter()
        for _, doc in docs:
            expect.update(s.name for s in to_list(doc))
        assert got == dict(expect)

    for trial in range(10):
        node_count = rng.randint(1, 50)
        graph = []
        for src in range(node_count):
            dsts = sorted(rng.sample(range(node_count), rng.randint(0, min(5, node_count))))
            graph.append((src, from_list(dsts)))
        got = {k: to_list(v) for k, v in invert_links(graph, corpus_env)}
        expect = {}
        for src, dsts in graph:
            for dst in to_list(dsts):
                expect.setdefault(dst, []).append(src)
        assert got == {k: sorted(set(v)) for k, v in expect.items()}

    graph = [
        (Symbol("a"), [Symbol("b"), Symbol("c")]),
        (Symbol("b"), [Symbol("c")]),
        (Symbol("c"), [Symbol("a")]),
        (Symbol("d"), [Symbol("c")]),
    ]
    for rounds in range(51):
        ranks = pagerank(graph, rounds, Fraction(85, 100))
        assert sum(r for _, r in ranks) == 1, rounds

    final = pagerank(graph, 50, Fraction(85, 100))
    index = {v: i for i, v in enumerate(n for n, _ in final)}
    dense = [0.25] * 4
    edges = {"a": ["b", "c"], "b": ["c"], "c": ["a"], "d": ["c"]}
    for _ in range(50):
        incoming = [0.0] * 4
        for src, dsts in edges.items():
            share = dense[index[Symbol(src)]] / len(dsts)
            for d in dsts:
                incoming[index[Symbol(d)]] += share
        dense = [0.15 / 4 + 0.85 * x for x in incoming]
    for node, rank in final:
        assert abs(float(rank) - dense[index[node]]) < 1e-6, node
    print("PASS: wordcount matches the fold oracle on 100 corpora; link "
          "inversion matches brute force on graphs up to 50 nodes; pagerank "
          "matches dense power iteration within 1e-6 with exact unit sums")


def test_ci_reports_are_byte_identical(capsys):
    code_a = main(["ci", "--json"])
    out_a = capsys.readouterr().out
    code_b = main(["ci", "--json"])
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a.encode() == out_b.encode()
    assert json.loads(out_a)["schema"] == 1

    code_c = main(["ci", "--json", "--seed", "31"])
    out_c = capsys.readouterr().out
    main(["ci", "--json", "--seed", "31"])
    out_d = capsys.readouterr().out
    assert out_c == out_d  # same seed, same bytes, even off the golden seed
    print("PASS: repeated corpus ci runs with a fixed seed emit "
          "byte-identical JSON")
