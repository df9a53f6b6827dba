"""The four benchmark workloads and the oracles that check their outputs.

Each workload is driven by one closed-loop client: it issues one public
call of the program, waits for it, checks the output against an oracle
written here independently of the program, and only then issues the
next.  Inputs are generated from the seed before any pass runs, so the
program receives only the generated inputs.  Only the program's calls
are timed; input generation and oracle checks are not.

Calls go through the module attributes (``circuits.simulate``, not a
name imported from it), so a traced pass sees them too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
from collections import Counter
from fractions import Fraction
from time import perf_counter

from eqthink import circuits, cli, cost, evaluator, loader, mapreduce
from eqthink.syntax import App, Var
from eqthink.values import NIL, Pair, Symbol

# On a shared host, speed drifts by up to 2x over minutes as other machines
# load its cores.  A fixed pure-Python loop, which shares no code with the
# program, is timed between calls; the harness scales each call's latency
# by the loop times around it.  REF_SECONDS is the loop's typical time on
# the host the benchmark was written on (Python 3.11, 2 vCPUs), so scaled
# times read as seconds on that host.  The median of several short loops
# keeps a single interruption out of the sample.
REF_LOOP = 50_000
REF_REPEATS = 7
REF_SECONDS = 0.0049
CALIBRATE_EVERY_S = 0.5


def reference_loop() -> float:
    """Median seconds of REF_REPEATS runs of the fixed reference loop, now."""
    times = []
    for _ in range(REF_REPEATS):
        started = perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i % 7
        times.append(perf_counter() - started)
    return statistics.median(times)


class Client:
    """Issues checked calls one at a time and records each one's latency,
    with reference-loop times taken between calls."""

    def __init__(self, log):
        self.log = log
        self.ops: list[tuple[str, float, bool]] = []
        self.faults: list[str] = []
        # (number of calls made before it, loop seconds)
        self.calibrations: list[tuple[int, float]] = []
        self.calibrated_at = 0.0

    def calibrate(self) -> None:
        self.calibrations.append((len(self.ops), reference_loop()))
        self.calibrated_at = perf_counter()

    def flag(self, fault: str) -> None:
        """Record a fault that belongs to no single call, such as drift."""
        self.faults.append(fault)
        self.log(fault)

    def call(self, kind: str, fn, check):
        """Time ``fn()``, then run ``check(output)``, which returns None when
        the output is right and a description of the fault otherwise."""
        if perf_counter() - self.calibrated_at > CALIBRATE_EVERY_S:
            self.calibrate()
        started = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising call is a failed operation
            self.ops.append((kind, perf_counter() - started, False))
            self.log(f"{kind}: raised {type(exc).__name__}: {exc}")
            return None
        seconds = perf_counter() - started
        try:
            fault = check(out)
        except Exception as exc:  # a malformed output is a failed operation
            fault = f"oracle raised {type(exc).__name__}: {exc}"
        self.ops.append((kind, seconds, fault is None))
        if fault is not None:
            self.log(f"{kind}: {fault}")
        return out


# ---------------------------------------------------------------------------
# Helpers that read and build program values without the program's own code


def py_list(v) -> list:
    out = []
    while isinstance(v, Pair):
        out.append(v.head)
        v = v.tail
    if v is not NIL:
        raise ValueError("not a true list")
    return out


def lisp_list(items):
    out = NIL
    for item in reversed(items):
        out = Pair(item, out)
    return out


def bits_of(n: int) -> list[int]:
    return [int(b) for b in reversed(bin(n)[2:])]


def int_of(bits: list[int]) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


def load_defs(seed: int):
    """Admit the bundled definition files into a fresh session."""
    session = loader.Session(seed=seed)
    for path in sorted((cli.corpus_root() / "defs").glob("*.lx")):
        session.load_file(path)
    return session.env


# ---------------------------------------------------------------------------
# ci_corpus


# The corpus states one property that is false on purpose: prefix/append
# only round-trips for true lists, and random objects are mostly atoms.
EXPECTED_OUTCOME = {"app-pfx-any-object": "Counterexample"}


class CiCorpus:
    """In-process ``eqthink ci --json --seed S`` over the bundled corpus."""

    work_unit = "corpus files"
    loads_corpus = False

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: str | None = None
        self.files = 0

    def sizes(self) -> dict:
        root = cli.corpus_root()
        return {
            "corpus_files": sum(len(list((root / sub).glob("*.lx"))) for sub in ("defs", "proofs", "negative")),
        }

    def run_pass(self, client: Client) -> int:
        argv = ["ci", "--json", "--seed", str(self.seed)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        self.files = 0
        client.call("ci", run, self._check)
        return self.files

    def _check(self, out):
        code, text = out
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "report bytes differ from the first pass at this seed"
        report = json.loads(text)
        if report["problems"]:
            return f"problems: {report['problems']}"
        mismatches = report["golden_mismatches"]
        if self.seed == 0 and mismatches:
            return f"golden mismatches at seed 0: {mismatches}"
        wrong = [
            p["name"]
            for f in report["files"]
            for p in f.get("properties", [])
            if p["outcome"] != EXPECTED_OUTCOME.get(p["name"], "Pass")
        ]
        if wrong:
            return f"properties with an unexpected outcome: {wrong}"
        if code != (1 if mismatches else 0):
            return f"exit code {code} with {len(mismatches)} golden mismatches"
        self.files = len(report["files"])
        return None


# ---------------------------------------------------------------------------
# sort_growth


GROWTH_SIZES = [2**k for k in range(4, 11)]  # 16 .. 1024
GROWTH_FUEL = cost.MEASURE_FUEL


class SortGrowth:
    """Growth campaign: worst-case insertion sort and seeded merge sort at
    doubling sizes, each judged by ``cost.check_bound``."""

    work_unit = "evaluator steps"
    loads_corpus = True

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.inputs = []  # (operator, size, python list, program list)
        for size in GROWTH_SIZES:
            worst = list(range(size - 1, -1, -1))
            self.inputs.append(("insertion-sort", size, worst, lisp_list(worst)))
        for size in GROWTH_SIZES:
            data = [rng.randint(-1000, 1000) for _ in range(size)]
            self.inputs.append(("merge-sort", size, data, lisp_list(data)))
        self.steps: dict = {}  # step totals of the first pass, per operator and size
        self.env = None

    def setup(self) -> None:
        self.env = load_defs(self.seed)

    def sizes(self) -> dict:
        return {"insertion_sizes": GROWTH_SIZES, "merge_sizes": GROWTH_SIZES}

    def run_pass(self, client: Client) -> int:
        steps: dict[str, dict[int, int]] = {"insertion-sort": {}, "merge-sort": {}}
        for op, size, data, value in self.inputs:
            term = App(op, (Var("input"),))
            expected = sorted(data)

            def check(out, op=op, size=size, expected=expected):
                result, count = out
                if py_list(result) != expected:
                    return f"{op} of {size} elements is not sorted output"
                steps[op][size] = count.total
                return None

            client.call(
                f"{op}/{size}",
                lambda term=term, value=value: evaluator.eval_counting(
                    term, {"input": value}, self.env, GROWTH_FUEL
                ),
                check,
            )
        for op, candidate in (("insertion-sort", "n^2"), ("merge-sort", "nlogn")):
            if len(steps[op]) != len(GROWTH_SIZES):
                continue  # a failed sort already counted; nothing to judge

            def check(report, op=op, candidate=candidate):
                if report.verdict != "Consistent":
                    return f"{op} judged {report.verdict} against {candidate}"
                return None

            client.call(
                f"check_bound/{op}",
                lambda op=op, candidate=candidate: cost.check_bound(steps[op], candidate),
                check,
            )
        if not self.steps:
            self.steps = steps
        elif steps != self.steps:
            client.flag("step totals drifted between passes at one seed")
        return sum(sum(per_size.values()) for per_size in steps.values())


# ---------------------------------------------------------------------------
# circuits_bignum


_CONNECTIVES = ["and", "or", "xor", "nand", "nor", "implies"]
_PY_CONNECTIVE = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nand": lambda a, b: 1 - (a & b),
    "nor": lambda a, b: 1 - (a | b),
    "implies": lambda a, b: (1 - a) | b,
}

XOR_WIDE = 16  # checked against its NAND lowering
XOR_NARROW = 12  # checked against both lowerings
FORMULA_INPUTS = 12
FORMULA_CONNECTIVES = 4  # of each kind, so every seed builds the same amount
FORMULAS = 2
ADDER_WIDTHS = [4, 8, 16, 32]
ADDER_SAMPLES = 250
BIG_ADDS = 400
BIG_MULS = [(256, 30), (128, 40), (64, 80)]  # (bits, pairs)


def py_eval(f, assignment: dict[str, int]) -> int:
    if isinstance(f, Var):
        return assignment[f.name]
    if f.op == "not":
        return 1 - py_eval(f.args[0], assignment)
    a, b = (py_eval(x, assignment) for x in f.args)
    return _PY_CONNECTIVE[f.op](a, b)


def random_formula(rng: random.Random, k: int):
    """A formula over v00..v{k-1} with a fixed mix of connectives."""
    names = [f"v{i:02d}" for i in range(k)]
    ops = _CONNECTIVES * FORMULA_CONNECTIVES
    rng.shuffle(ops)
    leaves = [Var(n) for n in names] + [Var(rng.choice(names)) for _ in range(len(ops) + 1 - k)]
    rng.shuffle(leaves)
    pool = leaves
    for op in ops:
        a = pool.pop(rng.randrange(len(pool)))
        b = pool.pop(rng.randrange(len(pool)))
        node = App(op, (a, b))
        if rng.random() < 0.2:
            node = App("not", (node,))
        pool.append(node)
    return pool[0]


def xor_chain(k: int):
    f = Var("v00")
    for i in range(1, k):
        f = App("xor", (f, Var(f"v{i:02d}")))
    return f


def _binary_nodes(f, path=()):
    if isinstance(f, App):
        if f.op in _PY_CONNECTIVE:
            yield path
        for i, a in enumerate(f.args):
            yield from _binary_nodes(a, path + (i,))


def _replace_op(f, path, op):
    if not path:
        return App(op, f.args)
    i = path[0]
    args = list(f.args)
    args[i] = _replace_op(args[i], path[1:], op)
    return App(f.op, tuple(args))


def least_difference(f, g, names):
    """First assignment, in lexicographic order of sorted port names with 0
    before 1, where f and g differ; None when they agree everywhere."""
    for values in itertools.product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, values))
        if py_eval(f, assignment) != py_eval(g, assignment):
            return assignment
    return None


def mutate(rng: random.Random, f, names):
    """Swap one connective for another so the result differs from f."""
    paths = list(_binary_nodes(f))
    rng.shuffle(paths)
    for path in paths:
        node = f
        for i in path:
            node = node.args[i]
        for op in rng.sample(_CONNECTIVES, len(_CONNECTIVES)):
            if op == node.op:
                continue
            g = _replace_op(f, path, op)
            witness = least_difference(f, g, names)
            if witness is not None:
                return g, witness
    raise ValueError("no detectable mutation")


class CircuitsBignum:
    """Netlist equivalence against basis lowerings, one mutant, adder
    simulation and bignum arithmetic; the evaluator never runs."""

    work_unit = "checked calls"
    loads_corpus = False

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        # (label, formula, bases to check it against)
        self.formulas = [
            (f"xor{XOR_WIDE}", xor_chain(XOR_WIDE), ("nand",)),
            (f"xor{XOR_NARROW}", xor_chain(XOR_NARROW), ("nand", "impl")),
        ]
        for i in range(FORMULAS):
            self.formulas.append((f"formula{i}", random_formula(rng, FORMULA_INPUTS), ("nand", "impl")))
        names = [f"v{i:02d}" for i in range(FORMULA_INPUTS)]
        self.original = random_formula(rng, FORMULA_INPUTS)
        self.mutant, self.witness = mutate(rng, self.original, names)
        self.adder_inputs = {
            w: [(rng.getrandbits(w), rng.getrandbits(w), rng.getrandbits(1)) for _ in range(ADDER_SAMPLES)]
            for w in ADDER_WIDTHS
        }
        self.adds = [(rng.getrandbits(rng.choice((1, 64, 256))), rng.getrandbits(256)) for _ in range(BIG_ADDS)]
        self.muls = [(rng.getrandbits(bits), rng.getrandbits(bits)) for bits, n in BIG_MULS for _ in range(n)]

    def sizes(self) -> dict:
        return {
            "xor_chain_inputs": [XOR_WIDE, XOR_NARROW],
            "formula_inputs": FORMULA_INPUTS,
            "formula_connectives": FORMULA_CONNECTIVES * len(_CONNECTIVES),
            "formulas": FORMULAS,
            "adder_widths": ADDER_WIDTHS,
            "adder_samples": ADDER_SAMPLES,
            "big_adds": BIG_ADDS,
            "big_muls": BIG_MULS,
        }

    def run_pass(self, client: Client) -> int:
        before = len(client.ops)
        self._equivalences(client)
        self._adders(client)
        self._bignums(client)
        return len(client.ops) - before

    def _equivalences(self, client: Client) -> None:
        allowed = {"nand": {"NAND"}, "impl": {"IMPL", "CONST0"}}
        for label, formula, bases in self.formulas:
            net = client.call(f"build/{label}", lambda f=formula: circuits.formula_to_circuit(f), _no_check)
            if net is None:
                continue
            for basis in bases:
                def check_lowering(low, basis=basis):
                    kinds = {g.kind for g in low.gates}
                    if not kinds <= allowed[basis]:
                        return f"{basis} lowering has gates {sorted(kinds)}"
                    return None

                low = client.call(
                    f"to_basis/{label}/{basis}",
                    lambda net=net, basis=basis: circuits.to_basis(net, basis),
                    check_lowering,
                )
                if low is None:
                    continue
                client.call(
                    f"equiv/{label}/{basis}",
                    lambda net=net, low=low: circuits.exhaustive_equiv(net, low),
                    lambda r: None if r.equivalent else f"lowering differs at {r.witness}",
                )
        original = client.call("build/original", lambda: circuits.formula_to_circuit(self.original), _no_check)
        mutant = client.call("build/mutant", lambda: circuits.formula_to_circuit(self.mutant), _no_check)
        if original is None or mutant is None:
            return
        lowered = client.call("to_basis/original/nand", lambda: circuits.to_basis(original, "nand"), _no_check)
        if lowered is None:
            return

        def check_mutant(r):
            if r.equivalent:
                return "mutated netlist judged equivalent"
            if py_eval(self.original, r.witness) == py_eval(self.mutant, r.witness):
                return f"formulas agree at the reported witness {r.witness}"
            if r.witness != self.witness:
                return f"witness {r.witness} is not the least one {self.witness}"
            return None

        client.call("equiv/mutant", lambda: circuits.exhaustive_equiv(lowered, mutant), check_mutant)

    def _adders(self, client: Client) -> None:
        for width, samples in self.adder_inputs.items():
            net = client.call(f"ripple_carry/{width}", lambda w=width: circuits.ripple_carry(w), _no_check)
            if net is None:
                continue
            for x, y, cin in samples:
                assignment = {f"x{i}": (x >> i) & 1 for i in range(width)}
                assignment.update({f"y{i}": (y >> i) & 1 for i in range(width)})
                assignment["cin"] = cin
                want = x + y + cin
                client.call(
                    f"simulate/adder{width}",
                    lambda net=net, a=assignment: circuits.simulate(net, a),
                    lambda bits, want=want: None if int_of(bits) == want else "adder sum is wrong",
                )

    def _bignums(self, client: Client) -> None:
        for fn, pairs, expect in (
            ("big_add", self.adds, lambda a, b: a + b),
            ("big_mul", self.muls, lambda a, b: a * b),
        ):
            for a, b in pairs:
                want = expect(a, b)
                client.call(
                    fn,
                    lambda fn=fn, a=bits_of(a), b=bits_of(b): getattr(circuits, fn)(a, b),
                    lambda bits, want=want: None if bits == bits_of(want) else "numeral differs from the integer result",
                )


def _no_check(out):
    return None


# ---------------------------------------------------------------------------
# mapreduce_jobs


MR_JOBS = 1500  # wordcount, grep and invert in turn
VOCABULARY = [Symbol(w) for w in "the cat sat on a mat dog big red sun of in".split()]
PAGERANK_NODES = [250, 500]
PAGERANK_ITERATIONS = 3
DAMPING = Fraction(85, 100)


def float_pagerank(graph, iterations: int, damping: float) -> list[float]:
    nodes = sorted({v for v, _ in graph} | {t for _, ts in graph for t in ts})
    index = {v: i for i, v in enumerate(nodes)}
    out = [[] for _ in nodes]
    for v, targets in graph:
        out[index[v]].extend(index[t] for t in targets)
    n = len(nodes)
    ranks = [1.0 / n] * n
    for _ in range(iterations):
        incoming = [0.0] * n
        dangling = 0.0
        for i, targets in enumerate(out):
            if targets:
                share = ranks[i] / len(targets)
                for t in targets:
                    incoming[t] += share
            else:
                dangling += ranks[i]
        base = (1 - damping + damping * dangling) / n
        ranks = [base + damping * incoming[i] for i in range(n)]
    return ranks


class MapreduceJobs:
    """Many small seeded wordcount, grep and invert jobs, then pagerank."""

    work_unit = "jobs"
    loads_corpus = True
    JOB_KINDS = ("wordcount", "grep", "invert")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.jobs = []
        for j in range(MR_JOBS):
            kind = self.JOB_KINDS[j % 3]
            if kind == "invert":
                n = rng.randint(1, 40)
                graph = [
                    (src, sorted(rng.sample(range(n), rng.randint(0, min(5, n)))))
                    for src in range(n)
                ]
                self.jobs.append((kind, None, graph))
            else:
                docs = [
                    (key, [rng.choice(VOCABULARY) for _ in range(rng.randint(0, 12))])
                    for key in range(rng.randint(1, 8))
                ]
                self.jobs.append((kind, rng.choice(VOCABULARY), docs))
        self.graphs = []
        for n in PAGERANK_NODES:
            self.graphs.append(
                [(v, rng.sample(range(n), rng.randint(0, 5))) for v in range(n)]
            )
        self.env = None

    def setup(self) -> None:
        self.env = load_defs(self.seed)

    def sizes(self) -> dict:
        return {
            "jobs": MR_JOBS,
            "pagerank_nodes": PAGERANK_NODES,
            "pagerank_iterations": PAGERANK_ITERATIONS,
        }

    def run_pass(self, client: Client) -> int:
        env = self.env
        for kind, pattern, data in self.jobs:
            packed = [(key, lisp_list(items)) for key, items in data]
            if kind == "wordcount":
                client.call(kind, lambda p=packed: mapreduce.job_wordcount(p, env),
                            lambda out, d=data: _check_wordcount(out, d))
            elif kind == "grep":
                client.call(kind, lambda p=packed, pat=pattern: mapreduce.job_grep(pat, p, env),
                            lambda out, d=data, pat=pattern: _check_grep(out, d, pat))
            else:
                client.call(kind, lambda p=packed: mapreduce.invert_links(p, env),
                            lambda out, d=data: _check_invert(out, d))
        for graph in self.graphs:
            client.call(
                f"pagerank/{len(graph)}",
                lambda g=graph: mapreduce.pagerank(g, PAGERANK_ITERATIONS, DAMPING),
                lambda out, g=graph: _check_pagerank(out, g),
            )
        return len(self.jobs) + len(self.graphs)


def _check_wordcount(out, docs):
    got = {}
    for key, count in out:
        if key.name in got:
            return f"word {key.name} reported twice"
        got[key.name] = count
    want = Counter(w.name for _, words in docs for w in words)
    return None if got == dict(want) else "word counts differ from collections.Counter"


def _check_grep(out, lines, pattern):
    want = [(key, words) for key, words in lines if pattern in words]
    got = [(key, py_list(line)) for key, line in out]
    return None if got == want else "grep lines differ from a direct scan"


def _check_invert(out, graph):
    want: dict = {}
    for src, targets in graph:
        for t in targets:
            want.setdefault(t, set()).add(src)
    got = {target: py_list(sources) for target, sources in out}
    if got != {t: sorted(s) for t, s in want.items()}:
        return "inverted links differ from brute-force inversion"
    return None


def _check_pagerank(out, graph):
    ranks = [rank for _, rank in out]
    if sum(ranks, Fraction(0)) != 1:
        return "ranks do not sum exactly to 1"
    if [node for node, _ in out] != sorted(v for v, _ in graph):
        return "rank list is not in node order"
    reference = float_pagerank(graph, PAGERANK_ITERATIONS, float(DAMPING))
    worst = max(abs(float(r) - f) for r, f in zip(ranks, reference))
    return None if worst <= 1e-6 else f"ranks differ from float power iteration by {worst:g}"


WORKLOADS = {
    "ci_corpus": CiCorpus,
    "sort_growth": SortGrowth,
    "circuits_bignum": CircuitsBignum,
    "mapreduce_jobs": MapreduceJobs,
}
