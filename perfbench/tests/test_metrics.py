"""Tail-percentile rule, metric-name validation and the metric tables."""

import json
from pathlib import Path

import pytest

from perfbench import metrics

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (40, 75.0), (49, 75.0), (50, 80.0), (99, 80.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (500, 98.0), (1000, 99.0),
     (2000, 99.5), (10000, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, expected):
    samples = list(range(n))
    p, value, count = metrics.tail(samples)
    assert p == expected
    assert count == n
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= metrics.MIN_BEYOND
    # The next rung up would leave fewer than ten samples beyond it.
    higher = [q for q in metrics.TAIL_LADDER if q > p]
    if higher:
        above = metrics.percentile(samples, min(higher))
        assert sum(1 for s in samples if s > above) < metrics.MIN_BEYOND


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        metrics.tail(list(range(19)))


def test_percentile_is_nearest_rank():
    assert metrics.percentile([5, 1, 3, 2, 4], 50) == 3
    assert metrics.percentile([1, 2, 3, 4], 100) == 4
    assert metrics.percentile([1, 2, 3, 4], 1) == 1


@pytest.mark.parametrize(
    "name", ["a", "0", "sim_rps.fast.ours", "x-y_z.1", "a" * 64]
)
def test_valid_names(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_a", ".a", "-a", "a b", "a/b", "a%", "é", "a" * 65, None, 3]
)
def test_invalid_names(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


@pytest.mark.parametrize("unit", ["ms", "s", "1/s", "req/s", "%", "count", "MB"])
def test_valid_units(unit):
    assert metrics.check_unit(unit) == unit


@pytest.mark.parametrize("unit", ["", "m s", "x" * 17, "ms!"])
def test_invalid_units(unit):
    with pytest.raises(ValueError):
        metrics.check_unit(unit)


def test_tables_have_valid_unique_names():
    names = [row[0] for row in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for row in metrics.END_TO_END + metrics.PER_LAYER:
        metrics.check_name(row[0])
        metrics.check_unit(row[1])


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        tuple(row) for row in metrics.PER_LAYER
    ]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_requires_every_metric():
    tally = metrics.Tally()
    table = (("a", "ms"), ("b", "s"))
    with pytest.raises(KeyError):
        metrics.result_line(tally, {"a": 1.0}, table)
    line = metrics.result_line(tally, {"a": 1.0, "b": 2.5}, table)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["b"] == {"value": 2.5, "unit": "s"}


def test_setup_log_is_median_times_per_pass_count():
    log = metrics.SetupLog()
    log.need("open", 2)
    for seconds in (0.1, 0.9, 0.2):
        log.add("open", seconds)
    assert log.seconds() == pytest.approx(0.4)
    log.need("missing", 1)
    with pytest.raises(ValueError):
        log.seconds()


def test_daemon_latencies_best_of_position_and_every_sample():
    from perfbench.daemon_phase import DaemonLoop

    loop = DaemonLoop(None, 1, metrics.SetupLog(), metrics.Tally(), "t")
    for _ in range(4):  # four fast repetitions of 100 step positions
        for position in range(100):
            loop.sample(True, "step", 0, position, 0.001 * (1 + (position >= 60)))
    for position in range(50):  # stalls hitting one repetition each
        loop.sample(True, "step", 0, position, 0.5)
    loop.sample(False, "step", 0, 0, 9.0)  # a warm-up round is not measured
    for op in ("get", "put"):
        loop.sample(True, op, 0, 0, 0.002)
        loop.sample(True, op, 0, 0, 0.004)
    best = loop.metrics()
    assert best["step_best_p50_ms"] == pytest.approx(1.0)
    assert best["step_best_tail_ms"] == pytest.approx(2.0)
    assert loop.tail_info == {"percentile": 90.0, "positions": 100}
    assert best["get_best_p50_ms"] == best["put_best_p50_ms"] == pytest.approx(2.0)
    raw = loop.raw()
    assert raw["step_samples"] == 450
    assert raw["step_tail_percentile"] == 95.0
    assert raw["step_tail_ms"] == pytest.approx(500.0)  # the stalls show here
    assert raw["step_p50_ms"] == pytest.approx(1.0)
    assert raw["get_p50_ms"] == raw["put_p50_ms"] == pytest.approx(3.0)


def test_reference_speed_scales_times_not_memory():
    from perfbench.run import REFERENCE_S, at_reference_speed

    values = {name: 10.0 for name, _unit, _better in metrics.END_TO_END}
    scaled = at_reference_speed(values, 2 * REFERENCE_S)  # a host twice as slow
    for name, _unit, better in metrics.END_TO_END:
        if name == "peak_rss_mb":
            assert scaled[name] == 10.0
        elif better == "higher":
            assert scaled[name] == pytest.approx(20.0)
        else:
            assert scaled[name] == pytest.approx(5.0)
