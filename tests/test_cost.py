import math

import pytest

from eqthink.cost import (
    CANDIDATES,
    check_bound,
    emit_csv,
    measure_steps,
    random_list,
    reverse_sorted_list,
)
from eqthink.values import to_list


def test_candidate_shapes():
    assert CANDIDATES["n"](8) == 8.0
    assert CANDIDATES["nlogn"](8) == 24.0
    assert CANDIDATES["nlogn"](1) == 0.0
    assert CANDIDATES["n^2"](9) == 81.0


def test_input_generators():
    class FixedStream:
        def int_between(self, lo, hi):
            return lo

    xs = to_list(random_list(5, FixedStream()))
    assert xs == [-100] * 5
    assert to_list(reverse_sorted_list(4, None)) == [3, 2, 1, 0]


def test_measure_steps_deterministic(corpus_env):
    a = measure_steps("insertion-sort", random_list, [8, 16], 3, corpus_env)
    b = measure_steps("insertion-sort", random_list, [8, 16], 3, corpus_env)
    assert a == b
    c = measure_steps("insertion-sort", random_list, [8, 16], 4, corpus_env)
    assert set(a) == set(c) == {8, 16}


def test_check_bound_exact_fit():
    steps = {n: 7 * n * n for n in (4, 8, 16, 32, 64)}
    report = check_bound(steps, "n^2", window=1.01)
    assert report.consistent
    assert report.c_lo == report.c_hi == 7.0
    assert report.verdict == "Consistent"


def test_check_bound_rejects_wrong_shape():
    steps = {n: n * n for n in (4, 8, 16, 32, 64, 128)}
    report = check_bound(steps, "n", window=1.5)
    assert not report.consistent
    # upper half ratios double each size: 32, 64, 128
    assert report.c_hi / report.c_lo == pytest.approx(4.0)


def test_check_bound_uses_largest_half_only():
    # noisy small sizes must not affect the verdict
    steps = {4: 10**6, 8: 1, 16: 256, 32: 1024, 64: 4096, 128: 16384}
    report = check_bound(steps, "n^2", window=1.01)
    assert report.consistent


def test_check_bound_input_validation():
    with pytest.raises(ValueError):
        check_bound({4: 1, 8: 2, 16: 3}, "n")
    with pytest.raises(ValueError):
        check_bound({n: n for n in (4, 8, 16, 32)}, "n^3")
    # a zero denominator below the judged half is harmless
    assert check_bound({n: n for n in (1, 2, 4, 8)}, "nlogn").sizes == [1, 2, 4, 8]


def test_emit_csv_frozen():
    report = check_bound({n: 2 * n for n in (4, 8, 16, 32)}, "n", window=1.5)
    assert emit_csv(report) == (
        "size,steps,candidate,c\n"
        "4,8,n,2.000000\n"
        "8,16,n,2.000000\n"
        "16,32,n,2.000000\n"
        "32,64,n,2.000000\n"
    )


def test_measured_curves_obey_their_recurrences(merge_sort_curve, insertion_worst_curve):
    """Measured step counts stay within a constant of the closed forms of
    their textbook recurrences over the same sizes: T(n) = 2T(n/2) + n is
    n(log2 n + 1) at powers of two, and T(n) = T(n-1) + n is n(n+1)/2."""
    sizes = sorted(merge_sort_curve)
    assert all(n & (n - 1) == 0 for n in sizes)
    for curve, closed_form in (
        (merge_sort_curve, lambda n: n * (math.log2(n) + 1)),
        (insertion_worst_curve, lambda n: n * (n + 1) // 2),
    ):
        ratios = [curve[n] / closed_form(n) for n in sizes[len(sizes) // 2 :]]
        assert max(ratios) / min(ratios) < 1.5
