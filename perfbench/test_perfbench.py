"""Tests of the benchmark's own arithmetic and of its tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import random
from types import SimpleNamespace

import pytest

import metrics
import reference
import spans


def _shuffled(n):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    return values


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (39, None),                  # p75 would leave only 9 beyond
    (40, (75.0, 30, 40)),
    (99, (75.0, 75, 99)),        # p90 would leave only 9 beyond
    (100, (90.0, 90, 100)),
    (1000, (99.0, 990, 1000)),
    (10000, (99.9, 9990, 10000)),
])
def test_tail_takes_highest_percentile_with_ten_beyond(n, expected):
    assert metrics.tail(_shuffled(n)) == expected


def test_tail_counts_samples_strictly_beyond_the_rank():
    pct, value, n = metrics.tail(_shuffled(200))
    assert sum(1 for v in range(1, n + 1) if v > value) == 10
    assert (pct, value) == (95.0, 190)


def _span(start, end, parent=None):
    return SimpleNamespace(start=start, end=end, parent=parent)


def test_self_time_with_nested_and_overlapping_children():
    tree = [
        _span(0.0, 10.0),            # 0: root
        _span(1.0, 4.0, 0),          # 1: child
        _span(3.0, 6.0, 0),          # 2: child overlapping 1
        _span(1.0, 2.0, 1),          # 3: grandchild under 1
        _span(9.0, 12.0, 0),         # 4: child running past the root's end
    ]
    own = metrics.self_times(tree)
    # root: 10 minus the union [1, 6] and the clipped [9, 10]
    assert own == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_of_a_sequential_tree_sum_to_the_root():
    tree = [_span(0.0, 8.0), _span(1.0, 3.0, 0), _span(1.5, 2.5, 1),
            _span(3.0, 7.0, 0), _span(4.0, 4.5, 3), _span(5.0, 6.0, 3)]
    assert sum(metrics.self_times(tree)) == pytest.approx(8.0)


def test_failed_frac_counts_raised_error_points_and_fail_checks():
    outcomes = [
        metrics.OpOutcome("a", 1.0),
        metrics.OpOutcome("a", 1.0, raised="AnalyticPathError: complex"),
        metrics.OpOutcome("b", 1.0, error_point="invalid junction rates"),
        metrics.OpOutcome("b", 1.0, failed_checks=("oracle multiset "
                                                   "equivalence",)),
        metrics.OpOutcome("c", 1.0, check_errors=("positive root 0.1",)),
        metrics.OpOutcome("c", 1.0, failed_checks=("x", "y"),
                          check_errors=("z",)),
        metrics.OpOutcome("c", 1.0, events=1000),
    ]
    assert metrics.failure_counts(outcomes) == (7, 5)
    assert metrics.failed_frac(outcomes) == pytest.approx(5 / 7)
    assert metrics.failed_frac([]) == 0.0


def test_host_speed_runs_a_share_of_each_call(monkeypatch):
    clock = [0.0]

    def slow_kernel():               # twice the nominal time: a slow host
        clock[0] += 2 * reference.NOMINAL_S

    monkeypatch.setattr(reference, "kernel", slow_kernel)
    monkeypatch.setattr(reference, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(reference, "SHARE", 0.1)
    host = reference.HostSpeed()     # its first, unmeasured call
    assert host.slowdown() == 1.0
    host.after_call(0.001)           # a short call still gets one
    assert host.calls == 1
    host.after_call(0.5)             # 0.05 s of kernel: three calls
    assert host.calls == 4
    host.after_call(reference.LONG_S)    # a long call gets none
    assert host.calls == 4
    assert host.slowdown() == pytest.approx(2.0)
    assert reference.slowdown_now(calls=5) == pytest.approx(2.0)


def test_end_to_end_puts_times_at_the_nominal_host_speed():
    import harness

    short, long = 0.5, 1.5
    assert short < reference.LONG_S <= long
    outcomes = [metrics.OpOutcome("a", short), metrics.OpOutcome("a", long)]
    setup = [(0.3, 1.5), (0.5, 2.0), (0.4, 1.0)]   # (seconds, slowdown)
    gated, extra = harness._end_to_end(outcomes, setup, slowdown=2.0)
    # the short call counts at half its time, the long one as measured
    assert gated["ops_per_s_norm"][0] == pytest.approx(2 / (0.25 + 1.5))
    assert extra["ops_per_s"][0] == pytest.approx(1.0)
    assert gated["setup_s"][0] == pytest.approx(0.25)
    assert extra["setup_s_raw"][0] == pytest.approx(0.4)


def test_overhead_is_the_median_pair_ratio():
    pairs = [(1.1, 1.0), (2.2, 2.0), (5.0, 1.0)]
    out = spans.layer_metrics([], pairs, wall=1.0)
    assert out["trace.overhead_frac"][0] == pytest.approx(0.1)
    assert spans.layer_metrics([], [], wall=1.0)["trace.overhead_frac"][0] == 0


def test_tracer_nests_calls_and_unwraps():
    from coagchain import model, oneparticle, sweeps

    original = sweeps.one_particle_spectrum
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sweeps.one_particle_spectrum is not original
        assert oneparticle.one_particle_spectrum is sweeps.one_particle_spectrum
        rates = model.RateTriple.from_theta(0.5, 3.0, 0.5)
        sweeps.impurity_gap_sweep(rates, 4, [0.5])     # outside an op
        assert tracer.spans == []
        root = tracer.begin_op(0)
        sweeps.impurity_gap_sweep(rates, 4, [0.5])
        tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert sweeps.one_particle_spectrum is original
    names = {s.name: i for i, s in enumerate(tracer.spans)}
    sweep = names["sweeps"]
    assert tracer.spans[sweep].parent == root
    roots = tracer.spans[names["oneparticle.one_particle_spectrum"]]
    assert roots.parent == sweep and roots.info["roots"] == 7
    assert tracer.spans[names["model.build"]].parent == sweep
    assert all(s.op == 0 for s in tracer.spans)
    table = spans.dump(tracer.spans, tracer.spans[root].start)
    rows = [dict(zip(table["fields"], row)) for row in table["rows"]]
    assert rows[root]["start"] == 0.0 and rows[root]["parent"] is None
    assert rows[names["oneparticle.one_particle_spectrum"]]["info"] == {
        "roots": 7, "route": roots.info["route"]}
    assert all(r["end"] >= r["start"] >= 0.0 for r in rows)
