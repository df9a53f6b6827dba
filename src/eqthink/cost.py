"""Empirical complexity checks over instrumented step counts.

Growth verdicts are statistical, not symbolic: we measure steps at a
range of sizes, divide by a candidate growth function, and demand that
the ratio stays inside a window on the larger sizes.
"""

from __future__ import annotations

import io
import math
from typing import Callable

from .evaluator import DefEnv, eval_counting
from .properties import Stream, trial_seed
from .records import Record, set_field
from .syntax import App, Var
from .values import Value, from_list

CANDIDATES: dict[str, Callable[[int], float]] = {
    "n": lambda n: float(n),
    "nlogn": lambda n: n * math.log2(n) if n > 1 else 0.0,
    "n^2": lambda n: float(n * n),
}

DEFAULT_WINDOW = 1.5
MIN_SIZES = 4  # fewest sizes a growth verdict is drawn from
MEASURE_SAMPLES = 5
MEASURE_FUEL = 10**10  # quadratic desk-scale runs overflow the eval default


def random_list(size: int, stream: Stream) -> Value:
    return from_list([stream.int_between(-100, 100) for _ in range(size)])


def reverse_sorted_list(size: int, stream: Stream) -> Value:
    return from_list(range(size - 1, -1, -1))


def measure_steps(
    op: str,
    gen: Callable[[int, Stream], Value],
    sizes: list[int],
    seed: int = 0,
    defs: DefEnv | None = None,
    samples: int = MEASURE_SAMPLES,
) -> dict[int, int]:
    """Median step total over `samples` random inputs at each size.

    Deterministic generators (worst case) should use samples=1.
    """
    term = App(op, (Var("input"),))
    out: dict[int, int] = {}
    for size in sizes:
        totals = []
        for i in range(samples):
            stream = Stream(trial_seed(seed, size * samples + i))
            value = gen(size, stream)
            _, count = eval_counting(term, {"input": value}, defs, MEASURE_FUEL)
            totals.append(count.total)
        totals.sort()
        out[size] = totals[len(totals) // 2]
    return out


class BoundReport(Record):
    __slots__ = _fields = ("sizes", "steps", "candidate", "window", "c_lo", "c_hi", "verdict")

    def __init__(
        self,
        sizes: list[int],
        steps: dict[int, int],
        candidate: str,
        window: float,
        c_lo: float,
        c_hi: float,
        verdict: str,
    ):
        set_field(self, "sizes", sizes)
        set_field(self, "steps", steps)
        set_field(self, "candidate", candidate)
        set_field(self, "window", window)
        set_field(self, "c_lo", c_lo)
        set_field(self, "c_hi", c_hi)
        set_field(self, "verdict", verdict)

    @property
    def consistent(self) -> bool:
        return self.verdict == "Consistent"

    def to_json(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "steps": {str(n): self.steps[n] for n in self.sizes},
            "candidate": self.candidate,
            "window": self.window,
            "c_lo": self.c_lo,
            "c_hi": self.c_hi,
            "verdict": self.verdict,
        }


def check_bound(
    steps: dict[int, int], candidate: str, window: float = DEFAULT_WINDOW
) -> BoundReport:
    """Consistent iff max/min of steps(n)/f(n) over the largest half of
    the sizes stays within `window`."""
    if candidate not in CANDIDATES:
        raise ValueError(f"unknown candidate {candidate!r}")
    sizes = sorted(steps)
    if len(sizes) < MIN_SIZES:
        raise ValueError(f"need at least {MIN_SIZES} sizes to judge growth")
    f = CANDIDATES[candidate]
    upper = sizes[len(sizes) // 2 :]
    ratios = []
    for n in upper:
        if f(n) <= 0:
            raise ValueError(f"candidate {candidate} is not positive at n={n}")
        ratios.append(steps[n] / f(n))
    c_lo, c_hi = min(ratios), max(ratios)
    verdict = "Consistent" if c_hi / c_lo <= window else "Inconsistent"
    return BoundReport(sizes, dict(steps), candidate, window, c_lo, c_hi, verdict)


def emit_csv(report: BoundReport) -> str:
    f = CANDIDATES[report.candidate]
    buf = io.StringIO()
    buf.write("size,steps,candidate,c\n")
    for n in report.sizes:
        denom = f(n)
        c = f"{report.steps[n] / denom:.6f}" if denom > 0 else ""
        buf.write(f"{n},{report.steps[n]},{report.candidate},{c}\n")
    return buf.getvalue()

