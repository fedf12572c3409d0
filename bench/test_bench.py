"""Tests of the benchmark's own arithmetic: python -m pytest bench"""

import types
import warnings

import pytest

import refkernel
from stats import beyond, covered_length, percentile, quartile_spread, \
    self_times, tail_percentile
from tracing import Tracer, summarise
from worker import parse_importtime


# --- self time ----------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 5.0, 6.0, 0),
        (3, "a.inner", 2.0, 3.0, 1),
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 5.0, 0),
        (2, "b", 3.0, 7.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == \
        pytest.approx(2.0)
    assert self_times([(0, "leaf", 2.0, 2.5, None)]) == \
        {0: pytest.approx(0.5)}


def test_summarise_totals_and_parents():
    spans = [
        [0, "op", 0.0, 10.0, None],
        [1, "step", 1.0, 3.0, 0],
        [2, "step", 4.0, 5.0, 0],
        [3, "kernel", 4.2, 4.7, 2],
    ]
    per_name, parents = summarise(spans)
    assert per_name["step"][0] == 2
    assert per_name["step"][1] == pytest.approx(2.5)    # 2 + (1 - 0.5)
    assert per_name["step"][2] == pytest.approx(3.0)
    assert per_name["op"][1] == pytest.approx(7.0)
    assert parents == {"op": {None}, "step": {"op"}, "kernel": {"step"}}


# --- percentile rule ----------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 90.0) == 90.0
    assert percentile(values, 99.0) == 99.0
    assert beyond(100, 90.0) == 10


@pytest.mark.parametrize("n, level", [
    (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_needs_ten_samples_beyond_it(n, level):
    tail = tail_percentile([float(v) for v in range(n)])
    if level is None:
        assert tail is None
    else:
        assert tail[0] == level
        assert beyond(n, level) >= 10


def test_tail_value_ignores_input_order():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values[::-1]) == (90.0, 90.0)


def test_quartile_spread():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5 / 2.5)
    assert quartile_spread([5.0] * 10) == 0.0


# --- host-speed gauge ----------------------------------------------------------

def test_gauge_scales_to_nominal_speed(monkeypatch):
    clock = iter([0.0, 0.03, 0.06, 0.09,     # kernels of 30 ms: slow host
                  1.0, 1.01])                # one of 10 ms: fast host
    monkeypatch.setattr(refkernel, "kernel", lambda: 0.0)
    monkeypatch.setattr(refkernel.time, "perf_counter", lambda: next(clock))
    gauge = refkernel.Gauge()
    assert gauge.speed() == 1.0
    nominal = refkernel.NOMINAL_S
    assert gauge.sample(0.08) == pytest.approx(nominal / 0.03)
    assert gauge.sample(0.0) == pytest.approx(nominal / 0.01)  # one at least
    assert gauge.speed() == pytest.approx(nominal * 4 / 0.1)


def test_kernel_work_is_fixed():
    assert refkernel.kernel() == refkernel.kernel()


# --- tracer -------------------------------------------------------------------

def test_tracer_wraps_names_in_the_calling_namespace():
    layer = types.SimpleNamespace()
    layer.inner = lambda x: x + 1
    layer.outer = lambda x: layer.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(layer, "inner", "layer.inner",
                count=lambda args, kwargs, result: {"seen": args[0]})
    tracer.wrap(layer, "outer", "layer.outer")
    original = layer.inner
    tracer.install()
    try:
        assert layer.outer(3) == 8
    finally:
        tracer.uninstall()
    assert layer.inner is original
    spans, counters = tracer.take()
    assert [(s[1], s[4], s[5]) for s in spans] == [("layer.outer", None, 0),
                                                   ("layer.inner", 0, 0)]
    assert counters == {"seen": 3}
    assert tracer.take() == ([], {})
    tracer.install()
    try:
        layer.inner(0)
    finally:
        tracer.uninstall()
    assert tracer.take()[0][0][5] == 2     # the third operation


def test_tracer_counts_warnings_against_the_open_layer():
    layer = types.SimpleNamespace()

    def noisy():
        warnings.warn("beware", UserWarning)
    layer.noisy = noisy
    tracer = Tracer()
    tracer.wrap(layer, "noisy", "protocol.noisy")
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = tracer.count_warning
            layer.noisy()
            layer.noisy()
            warnings.warn("outside any span")
    finally:
        tracer.uninstall()
    assert tracer.take()[1] == {"warnings.protocol": 2, "warnings.none": 1}


# --- import times -------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |         numpy.core
import time:       200 |        300 |       numpy
import time:        50 |        350 |     catsim.params
import time:        10 |         10 |         scipy
import time:        40 |         50 |       scipy.linalg
import time:        20 |         70 |     catsim.fock_oracle
import time:        30 |        450 |   catsim
import time:        60 |        510 | catsim.cli
"""


def test_parse_importtime_sums_outermost_modules_per_package():
    totals = parse_importtime(IMPORTTIME)
    assert totals["catsim"] == pytest.approx(510e-6)
    assert totals["numpy"] == pytest.approx(300e-6)
    assert totals["scipy"] == pytest.approx(50e-6)
