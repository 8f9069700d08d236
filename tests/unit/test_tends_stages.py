"""One stage and metric vocabulary across the three TENDS entry points.

``fit``, ``partial_fit`` and ``apply_drift_adaptation`` run the same
pipeline, so on the same data they report the same stage names,
emit the same algorithm metrics, and their stage timings account for
(nearly) the whole wall time of their root span.
"""

from __future__ import annotations

import pytest

from repro.core.drift import DriftReport, PairDrift
from repro.core.tends import Tends
from repro.graphs import erdos_renyi_digraph
from repro.simulation.engine import DiffusionSimulator

PIPELINE_STAGES = {"stats", "imi", "threshold", "search"}
METRICS = {
    "counters": {
        "tends_score_evaluations_total",
        "tends_bound_terminations_total",
        "executor_retries_total",
        "executor_timeouts_total",
        "executor_pool_rebuilds_total",
        "executor_fallbacks_total",
    },
    "gauges": {"tends_mask_density", "tends_threshold_tau"},
    "histograms": {"tends_greedy_iterations"},
}


@pytest.fixture(scope="module")
def results():
    # Large enough that counting is a visible share of the fit.
    n = 100
    truth = erdos_renyi_digraph(n, 0.03, seed=11)
    statuses = DiffusionSimulator(truth, seed=11).run(beta=1500).statuses
    estimator = Tends(trace=True, executor="serial", audit="ignore")
    fitted = estimator.fit(statuses.subset(range(1000)))
    updated = estimator.partial_fit(statuses.subset(range(1000, 1500)))
    report = DriftReport(
        drifted_pairs=(PairDrift(i=0, j=1, statistic=9.0, p_value=1e-9),),
        affected_nodes=tuple(range(n)),
        n_pairs_tested=1,
        alpha=0.01,
        correction="bh",
        statistic="gtest",
        reference_beta=1000,
        recent_beta=500,
    )
    adapted = estimator.apply_drift_adaptation(report)
    return {
        "tends.fit": fitted,
        "tends.update": updated,
        "tends.adapt": adapted,
    }


def test_one_stage_vocabulary(results):
    assert set(results["tends.fit"].stage_times) == PIPELINE_STAGES
    # Updates and adaptations add the dirty-node diff (where they prune).
    assert set(results["tends.update"].stage_times) == PIPELINE_STAGES | {"diff"}
    assert set(results["tends.adapt"].stage_times) == PIPELINE_STAGES | {"diff"}
    for result in results.values():
        names = set(result.telemetry.span_names())
        assert {f"tends.{stage}" for stage in result.stage_times} <= names


def test_one_metric_vocabulary(results):
    for result in results.values():
        snapshot = result.telemetry.metrics
        for kind, names in METRICS.items():
            assert names <= set(snapshot[kind]), (kind, names - set(snapshot[kind]))
        assert result.telemetry.counter("tends_score_evaluations_total") == (
            sum(
                result.diagnostics[node].n_evaluations
                for node in (
                    range(len(result.diagnostics))
                    if result.update is None
                    else result.update.dirty_nodes
                )
            )
        )


def test_stage_times_cover_the_root_span(results):
    for root_name, result in results.items():
        (root,) = [
            span
            for span in result.telemetry.spans
            if span.name == root_name and span.parent_id is None
        ]
        covered = sum(result.stage_times.values())
        assert covered >= 0.9 * (root.end - root.start), (root_name, covered)
