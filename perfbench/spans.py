"""Spans around eqthink's layer boundaries, recorded from outside the program.

A traced pass replaces the module attributes that callers look up at call
time (``loader.admit``, ``circuits.simulate``, ``mapreduce.evaluate``, ...)
with wrappers that record one span per call and the counts the call
returned; the originals are put back before the next untraced pass.  No
file of the program changes.

A span has a name, a start, an end, a parent (the span open when it began)
and a pass id.  Spans live in flat arrays while the run lasts and are
written out when it ends.  Per-layer times are self times: a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

# The layer boundaries, as (module, attribute).  Every caller inside the
# program reaches these through the module's globals, so replacing the
# attribute catches internal calls too (``evaluate`` goes through
# ``evaluator.eval_counting``; ``big_mul`` through ``big_add`` and
# ``check_bits``).
BOUNDARIES = [
    ("evaluator", "eval_counting"),
    ("cost", "eval_counting"),
    ("loader", "parse_file"),
    ("loader", "admit"),
    ("loader", "run_property"),
    ("loader", "check_proof"),
    ("admissibility", "check_consistent"),
    ("admissibility", "check_comprehensive"),
    ("admissibility", "check_constructive"),
    ("circuits", "simulate"),
    ("circuits", "exhaustive_equiv"),
    ("circuits", "to_basis"),
    ("circuits", "big_add"),
    ("circuits", "big_mul"),
    ("circuits", "check_bits"),
    ("mapreduce", "mapreduce"),
    ("mapreduce", "group_pairs"),
    ("mapreduce", "pagerank"),
    ("mapreduce", "evaluate"),
    ("cli", "main"),
]
NAMES = [f"{module}.{attr}" for module, attr in BOUNDARIES]
_EVAL = ("evaluator.eval_counting", "cost.eval_counting")
_ADMISSIBILITY = (
    "loader.admit",
    "admissibility.check_consistent",
    "admissibility.check_comprehensive",
    "admissibility.check_constructive",
)

# Counts that must repeat exactly across passes at one seed.
EXACT_COUNTS = (
    "evaluator.calls",
    "evaluator.steps",
    "properties.trials",
    "admissibility.eval_calls",
    "mapreduce.eval_calls",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("us_per_call", "us"), ("ns_per_step", "ns"),
                         ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _count_steps(counts, args, result):
    counts["evaluator.steps"] += result[1].total


def _count_forms(counts, args, result):
    counts["syntax.forms"] += len(result)


def _count_trials(counts, args, result):
    trials = getattr(result, "trials_run", None)
    if trials is None:  # a counterexample stops at the failing trial
        trials = result.trial_index + 1
    counts["properties.trials"] += trials
    counts["properties.vacuous"] += getattr(result, "vacuous", 0)


def _count_verdict(counts, args, result):
    counts["admissibility.verdicts"] += 1
    counts["admissibility.tested_only"] += result.verdict == "TestedOnly"


def _count_assignments(counts, args, result):
    names = sorted(args[0].inputs)
    if result.equivalent:
        counts["circuits.assignments"] += 1 << len(names)
    else:  # the witness is the first differing assignment in scan order
        k = len(names)
        counts["circuits.assignments"] += 1 + sum(
            result.witness[name] << (k - 1 - i) for i, name in enumerate(names)
        )


_HOOKS = {
    "evaluator.eval_counting": _count_steps,
    "cost.eval_counting": _count_steps,
    "loader.parse_file": _count_forms,
    "loader.run_property": _count_trials,
    "admissibility.check_consistent": _count_verdict,
    "admissibility.check_comprehensive": _count_verdict,
    "admissibility.check_constructive": _count_verdict,
    "circuits.exhaustive_equiv": _count_assignments,
}


class Tracer:
    """Records spans and counts for the passes run between install/uninstall.

    Spans are recorded on the calling thread only; the program's deep-stack
    worker runs compiled closures, which cross no boundary listed above.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("B")
        self.pass_of = array("H")
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, pass_no: int) -> None:
        counts = self.counts[pass_no] = Counter()
        for index, (module_name, attr) in enumerate(BOUNDARIES):
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            hook = _HOOKS.get(NAMES[index])
            setattr(module, attr, self._wrap(index, pass_no, original, hook, counts))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, index, pass_no, original, hook, counts):
        start, end, parent, name, pass_of, stack = (
            self.start, self.end, self.parent, self.name, self.pass_of, self._stack,
        )

        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(index)
            pass_of.append(pass_no)
            end.append(0)
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def span_count(self, pass_no: int) -> int:
        return sum(1 for p in self.pass_of if p == pass_no)

    def layer_metrics(self, pass_no: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (seconds, counts, ratios)."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        self_ns = Counter()
        incl_ns = Counter()
        calls = Counter()
        admit_evals = 0
        admissibility_ids = {NAMES.index(label) for label in _ADMISSIBILITY}
        eval_ids = {NAMES.index(label) for label in _EVAL}
        for i in range(n):
            if self.pass_of[i] != pass_no:
                continue
            label = self.name[i]
            duration = self.end[i] - self.start[i]
            incl_ns[label] += duration
            self_ns[label] += duration - child_ns[i]
            calls[label] += 1
            p = self.parent[i]
            if label in eval_ids and p >= 0 and self.name[p] in admissibility_ids:
                admit_evals += 1

        def self_s(label):
            return self_ns[NAMES.index(label)] / 1e9

        def incl_s(label):
            return incl_ns[NAMES.index(label)] / 1e9

        def ncalls(label):
            return calls[NAMES.index(label)]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts[pass_no]
        eval_calls = sum(ncalls(label) for label in _EVAL)
        busy = sum(self_s(label) for label in _EVAL)
        return {
            "evaluator.calls": eval_calls,
            "evaluator.steps": c["evaluator.steps"],
            "evaluator.busy_s": busy,
            "evaluator.us_per_call": ratio(busy * 1e6, eval_calls),
            "evaluator.ns_per_step": ratio(busy * 1e9, c["evaluator.steps"]),
            "admissibility.admit_s": self_s("loader.admit"),
            "admissibility.consistent_s": self_s("admissibility.check_consistent"),
            "admissibility.comprehensive_s": self_s("admissibility.check_comprehensive"),
            "admissibility.constructive_s": self_s("admissibility.check_constructive"),
            "admissibility.eval_calls": admit_evals,
            "admissibility.tested_only_ratio": ratio(
                c["admissibility.tested_only"], c["admissibility.verdicts"]
            ),
            "properties.run_s": self_s("loader.run_property"),
            "properties.trials": c["properties.trials"],
            "properties.trials_per_s": ratio(c["properties.trials"], incl_s("loader.run_property")),
            "properties.vacuous_ratio": ratio(c["properties.vacuous"], c["properties.trials"]),
            "syntax.parse_s": self_s("loader.parse_file"),
            "syntax.forms": c["syntax.forms"],
            "prover.check_s": self_s("loader.check_proof"),
            "prover.proofs": ncalls("loader.check_proof"),
            "cli.self_s": self_s("cli.main"),
            "circuits.equiv_s": self_s("circuits.exhaustive_equiv"),
            "circuits.equiv_assignments_per_s": ratio(
                c["circuits.assignments"], incl_s("circuits.exhaustive_equiv")
            ),
            "circuits.simulate_calls": ncalls("circuits.simulate"),
            "circuits.simulate_s": self_s("circuits.simulate"),
            "circuits.to_basis_s": self_s("circuits.to_basis"),
            "circuits.big_add_calls": ncalls("circuits.big_add"),
            "circuits.big_mul_s": self_s("circuits.big_mul"),
            "circuits.check_bits_s": self_s("circuits.check_bits"),
            "mapreduce.jobs": ncalls("mapreduce.mapreduce"),
            "mapreduce.job_s": self_s("mapreduce.mapreduce"),
            "mapreduce.group_s": self_s("mapreduce.group_pairs"),
            "mapreduce.eval_calls": ncalls("mapreduce.evaluate"),
            "mapreduce.pagerank_s": self_s("mapreduce.pagerank"),
        }

    def write(self, path) -> None:
        """One CSV line per span: pass, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("pass,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.pass_of[i]},{i},{self.parent[i]},{NAMES[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )
