"""The A1 analysis-speed ratchet: parse-normalized costs, both paths."""

from benchmarks.ratchet_analysis import GATED, compare

BASE = {
    "cold_over_parse": 5.0,
    "warm_over_parse": 0.03,
    "warm_speedup": 160.0,
    "min_warm_speedup": 3.0,
}


def test_a_faster_cold_run_holds():
    faster = dict(BASE, cold_over_parse=2.5, warm_speedup=80.0)
    assert compare(BASE, faster) == []


def test_a_slower_path_fails_even_when_the_speedup_rises():
    slower_cold = dict(BASE, cold_over_parse=6.5, warm_speedup=210.0)
    assert [m.split()[0] for m in compare(BASE, slower_cold)] == [
        "cold_over_parse"
    ]
    slower_warm = dict(BASE, warm_over_parse=0.04)
    assert [m.split()[0] for m in compare(BASE, slower_warm)] == [
        "warm_over_parse"
    ]


def test_within_tolerance_holds():
    assert compare(BASE, dict(BASE, cold_over_parse=6.2)) == []


def test_a_baseline_without_a_gated_figure_fails():
    for key in GATED:
        stale = {k: v for k, v in BASE.items() if k != key}
        [message] = compare(stale, BASE)
        assert key in message and "baseline" in message


def test_the_warm_speedup_floor_still_holds():
    [message] = compare(BASE, dict(BASE, warm_speedup=2.0))
    assert "hard floor" in message
