"""Tiling combined with drift detection or adaptation is refused.

The drift windows are counted dense, so letting a tiled estimator detect
or adapt would silently replace its tile-backed statistics with dense
ones and drop the tiled memory bound.  Every entry point refuses the
combination with :class:`~repro.exceptions.ConfigurationError` and
leaves the tiled model untouched.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.drift import DriftReport, PairDrift
from repro.core.tends import Tends
from repro.core.tiles import TiledSufficientStats
from repro.exceptions import ConfigurationError
from repro.graphs.generators.random_graphs import erdos_renyi_digraph
from repro.serve import IngestService
from repro.simulation.engine import DiffusionSimulator


def _statuses(n=20, beta=60, seed=4):
    truth = erdos_renyi_digraph(n, 0.15, seed=seed)
    return DiffusionSimulator(truth, seed=seed).run(beta=beta).statuses


def _report(n: int) -> DriftReport:
    return DriftReport(
        drifted_pairs=(PairDrift(i=0, j=1, statistic=9.0, p_value=1e-9),),
        affected_nodes=tuple(range(n)),
        n_pairs_tested=1,
        alpha=0.01,
        correction="bh",
        statistic="gtest",
        reference_beta=30,
        recent_beta=30,
    )


@pytest.fixture(params=["tile_size", "tiled_model"])
def tiled(request, tmp_path):
    """A fitted tiled estimator: configured with ``tile_size``, or resumed
    from a tile-backed model with ``tile_size`` cleared."""
    statuses = _statuses()
    estimator = Tends(tile_size=8, spill_dir=str(tmp_path / "tiles"))
    estimator.fit(statuses.subset(range(30)))
    if request.param == "tiled_model":
        estimator = Tends.from_model(estimator.model, tile_size=None)
    assert isinstance(estimator.model.stats, TiledSufficientStats)
    return estimator, statuses.subset(range(30, 60))


@pytest.mark.parametrize("drift", ["detect", "adapt"])
def test_partial_fit_with_drift_is_refused(tiled, drift):
    estimator, batch = tiled
    before = estimator.model
    with pytest.raises(ConfigurationError, match="tiled"):
        estimator.partial_fit(batch, drift=drift)
    assert estimator.model is before


def test_detect_drift_is_refused(tiled):
    estimator, _batch = tiled
    with pytest.raises(ConfigurationError, match="tiled"):
        estimator.detect_drift()


def test_apply_drift_adaptation_is_refused(tiled):
    estimator, _batch = tiled
    before = estimator.model
    with pytest.raises(ConfigurationError, match="tiled"):
        estimator.apply_drift_adaptation(_report(before.n_nodes))
    assert estimator.model is before
    assert isinstance(estimator.model.stats, TiledSufficientStats)


def test_partial_fit_without_drift_stays_tiled(tiled):
    estimator, batch = tiled
    estimator.partial_fit(batch)
    assert isinstance(estimator.model.stats, TiledSufficientStats)


@pytest.mark.parametrize("drift", ["detect", "adapt", "snapshot-adapt"])
def test_service_refuses_tiled_estimator_with_drift(tmp_path, drift):
    estimator = Tends()
    estimator.fit(_statuses())
    with pytest.raises(ConfigurationError, match="tiled"):
        IngestService(
            tmp_path / "svc",
            estimator.model,
            drift=drift,
            estimator_overrides={
                "tile_size": 8,
                "spill_dir": str(tmp_path / "tiles"),
            },
        )


@pytest.mark.parametrize("flag", ["--tile-size", "--spill-dir"])
def test_serve_cli_refuses_tiling_with_drift(tmp_path, flag, capsys):
    value = "8" if flag == "--tile-size" else str(tmp_path / "tiles")
    code = main(
        ["serve", str(tmp_path / "svc"), flag, value, "--drift", "adapt"]
    )
    assert code == 2
    assert "--drift" in capsys.readouterr().err
    assert not (tmp_path / "svc").exists()
