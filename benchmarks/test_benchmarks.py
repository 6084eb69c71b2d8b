"""Tests of the benchmark's own arithmetic: the tail-percentile rule and
span self times.  Run with ``python3 -m pytest benchmarks``."""

import numpy as np

import run
import tracing


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90(list(range(99))) is None
    assert run.p90([]) is None
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.p90(values) == 90  # exactly 10 samples (91..100) lie beyond
    assert run.p90(list(range(1, 201))) == 180


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] has children b [1, 4] and c [5, 6]; b has child d [2, 3].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert tracing.self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_summarizes_one_pass_by_name():
    tracer = tracing.Tracer()
    tracer.close(tracer.open("earlier pass"))
    lo = len(tracer)
    outer = tracer.open("op")
    for _ in range(3):
        tracer.close(tracer.open("leaf"))
    tracer.close(outer)
    spans = tracer.summarize(lo, len(tracer))
    assert set(spans) == {"op", "leaf"}
    assert spans["op"][0] == 1 and spans["leaf"][0] == 3
    total = tracer.end[outer] - tracer.start[outer]
    assert abs(spans["op"][1] + spans["leaf"][1] - total) < 1e-12
