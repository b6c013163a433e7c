"""F3 — Fig. 3: the Search-Until-Trip-Point formulation.

Regenerates the figure's claim quantitatively: across a multi-test
campaign, incremental ±SF(IT) searches from the reference trip point cost a
small fraction of re-running the full characterization-range search per
test, while landing on the same boundaries — "huge savings of measurement
time and guaranteed automatic convergence".
"""

import pytest

from benchmarks.conftest import RESOLUTION, SEARCH_RANGE, fresh_ate
from repro.core.trip_point import MultipleTripPointRunner
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

N_TESTS = 50

#: Exact tester measurement counts of the seeded campaigns below.  The
#: counts are deterministic, so they are pinned exactly; update them in
#: the change that moves them.
SUTP_MEASUREMENTS = 396
FULL_MEASUREMENTS = 642
LINEAR_MEASUREMENTS = 15_606


def make_tests():
    return [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=29).batch(N_TESTS)
    ]


def run_campaign(strategy, full_searcher=None):
    ate = fresh_ate(seed=29)
    runner = MultipleTripPointRunner(
        ate, SEARCH_RANGE, strategy=strategy, resolution=RESOLUTION,
        search_factor=0.5, full_searcher=full_searcher,
    )
    dsv = runner.run(make_tests())
    run_campaign.last_ate = ate  # exposes counters for time estimation
    return dsv


@pytest.mark.benchmark(group="fig3")
def test_fig3_sutp_vs_full_range(benchmark, report_sink):
    from repro.search.linear import LinearSearch

    from repro.ate.test_time import TestTimeModel

    time_model = TestTimeModel()

    # Conventional baselines: the ATE-recommended successive approximation
    # and the section-1 linear search, both re-run over the full CR per test.
    full_dsv = run_campaign("full")
    full_time = time_model.session_time_s(run_campaign.last_ate)
    linear_dsv = run_campaign(
        "full", full_searcher=LinearSearch(resolution=RESOLUTION)
    )
    linear_time = time_model.session_time_s(run_campaign.last_ate)
    sutp_dsv = benchmark.pedantic(
        run_campaign, args=("sutp",), rounds=1, iterations=1
    )
    sutp_time = time_model.session_time_s(run_campaign.last_ate)

    report_sink(f"fig. 3 — {N_TESTS}-test campaign over CR = "
                f"{SEARCH_RANGE[1] - SEARCH_RANGE[0]:.0f} ns:")
    for label, dsv, seconds in (
        ("linear full-range", linear_dsv, linear_time),
        ("succ.approx. full-range", full_dsv, full_time),
        ("SUTP", sutp_dsv, sutp_time),
    ):
        report_sink(
            f"  {label:<24} {dsv.total_measurements:>6} measurements "
            f"({dsv.total_measurements / N_TESTS:6.1f}/test, "
            f"~{seconds:6.2f} s tester time)"
        )
    assert sutp_time < full_time < linear_time
    saving_sa = 1 - sutp_dsv.total_measurements / full_dsv.total_measurements
    saving_linear = 1 - sutp_dsv.total_measurements / linear_dsv.total_measurements
    report_sink(f"  saving vs successive approximation: {saving_sa:.0%}")
    report_sink(f"  saving vs linear search: {saving_linear:.0%}")

    disagreements = [
        abs(a - b) for a, b in zip(full_dsv.values(), sutp_dsv.values())
    ]
    report_sink(f"  max boundary disagreement: {max(disagreements):.3f} ns")
    incremental = sum(1 for e in sutp_dsv if not e.used_full_search)
    report_sink(
        f"  incremental searches: {incremental}/{N_TESTS} "
        f"(the rest bootstrapped or fell back to the full search)"
    )

    # Shape: real savings against both baselines (dramatic against the
    # linear search the paper calls "time consuming"), and convergence to
    # the same boundaries.
    assert saving_sa > 0.25
    assert saving_linear > 0.90
    assert max(disagreements) < 0.5
    assert incremental >= N_TESTS - 3

    assert sutp_dsv.total_measurements == SUTP_MEASUREMENTS
    assert full_dsv.total_measurements == FULL_MEASUREMENTS
    assert linear_dsv.total_measurements == LINEAR_MEASUREMENTS


@pytest.mark.benchmark(group="fig3")
def test_fig3_sutp_per_test_cost_profile(benchmark, report_sink):
    """Per-test cost series: the first (RTP) test is expensive, the rest
    cheap — fig. 3's 'number of search steps' axis."""
    sutp_dsv = benchmark.pedantic(
        run_campaign, args=("sutp",), rounds=1, iterations=1
    )
    costs = [entry.measurements for entry in sutp_dsv]
    report_sink("per-test measurement cost (SUTP):")
    for index, cost in enumerate(costs):
        report_sink(f"  test {index:>3}: {'#' * cost} {cost}")

    assert costs[0] == max(costs[:10])  # the RTP bootstrap dominates early
    tail_mean = sum(costs[1:]) / (len(costs) - 1)
    assert tail_mean < costs[0]
    assert sum(costs) == SUTP_MEASUREMENTS
