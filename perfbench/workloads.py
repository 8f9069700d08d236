"""The TENDS benchmark workloads.

Each workload builds its inputs from the seed, measures for the given
number of seconds and returns a :class:`Outcome`: the metrics of the run
plus the attempted / failed operation counts, where every correctness
gate counts as one operation.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import bisect
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.config import TendsConfig
from repro.core.kernels import resolve_kernel
from repro.core.kmeans import fixed_zero_two_means
from repro.core.search import ParentSearch, prune_candidates
from repro.core.stats import SufficientStats
from repro.core.tends import Tends, TendsModel
from repro.evaluation import evaluate_edges
from repro.graphs import DiffusionGraph, lfr_benchmark_graph
from repro.serve.service import IngestService, ServiceStats
from repro.simulation import DiffusionSimulator, StatusMatrix
from repro.utils.rng import derive_seed

from layers import LayerTrace, span_metrics

#: Set-up runs per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The diffusion network is one fixed LFR instance per size; the run's
#: seed draws the cascades (and the serving masks).  Networks of different
#: difficulty would otherwise spread F1 and search work across seeds by
#: ±10%, far more than the host noise the bounds are meant to absorb.
GRAPH_SEED = 0
#: Serving: a rate step "holds" when publish p90 and the drain after the
#: step's load both stay within this many seconds.
SERVE_LIMIT_S = 3.0
#: Longest the benchmark waits for a service to absorb its backlog.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sizes:
    fit_n: int
    fit_beta: int
    tile_size: int
    serve_n: int
    serve_beta: int
    serve_batch: int
    serve_observed: int


SCALES = {
    "full": Sizes(
        fit_n=800, fit_beta=500, tile_size=512,
        serve_n=600, serve_beta=500, serve_batch=16, serve_observed=24,
    ),
    # For the smoke test: every path runs, in seconds.
    "tiny": Sizes(
        fit_n=60, fit_beta=120, tile_size=32,
        serve_n=40, serve_beta=120, serve_batch=16, serve_observed=8,
    ),
}
SERVE_RATES = (64, 128)
#: Share of the run's seconds the 64 cascades/s step takes; the 128 step
#: sends the same batches in the other third.
SERVE_STEADY_SHARE = 2 / 3


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    #: Timed operations behind the latency percentiles.
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)

    def gate(self, name: str, ok: bool) -> None:
        """One correctness check: counts as an operation, fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate failed: {name}", file=sys.stderr)
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def attempt(self, operation: Callable):
        """Run one measured operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return operation()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    workdir: Path
    _dirs: int = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.workdir / f"{label}-{self._dirs}"


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _f_score(truth, graph) -> float:
    return evaluate_edges(truth, graph).f_score


@dataclass
class Simulated:
    truth: DiffusionGraph
    simulator: DiffusionSimulator
    statuses: StatusMatrix
    simulation_s: float


def _simulate(seed: int, n: int, beta: int) -> Simulated:
    """The LFR graph (κ=4, τ=2) and β IC cascades (μ=0.3, α=0.15)."""
    truth = lfr_benchmark_graph(n=n, avg_degree=4.0, tau=2.0, seed=GRAPH_SEED)
    simulator = DiffusionSimulator(
        truth, mu=0.3, alpha=0.15, seed=derive_seed(seed, "cascades")
    )
    started = time.perf_counter()
    statuses = simulator.run(beta).statuses
    return Simulated(truth, simulator, statuses, time.perf_counter() - started)


def _timed_setup(ctx: Context, build: Callable):
    """Run ``build`` several times (once when traced); return the median
    wall time and the last build's value."""
    walls, value = [], None
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        started = time.perf_counter()
        value = build()
        walls.append(time.perf_counter() - started)
    return float(statistics.median(walls)), value


def _repeat(
    ctx: Context,
    outcome: Outcome,
    operation: Callable,
    summarize: Callable,
):
    """Call ``operation`` until the next call would end past the run's
    seconds (at least once).  Returns the walls, ``summarize`` of each
    result (applied outside the timed region) and the last result."""
    deadline = time.perf_counter() + ctx.seconds
    walls: list[float] = []
    summaries: list = []
    last = None
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        started = time.perf_counter()
        result = outcome.attempt(operation)
        walls.append(time.perf_counter() - started)
        if result is not None:
            last = result
            summaries.append(summarize(result))
    return walls, summaries, last


def _end_to_end(
    *,
    setup_s: float,
    peak_rss_mb: float,
    f_score: float,
    outcome: Outcome,
    latencies: list[float],
    throughput: float,
) -> dict[str, float]:
    outcome.samples = len(latencies)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "f_score": f_score,
        "ok_frac": 1.0 - outcome.failed / max(outcome.attempted, 1),
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p90_s": _percentile(latencies, 90),
        "throughput_cps": throughput,
    }


def _traced(operation: Callable):
    """Run ``operation`` under layer spans; return (spans, window, result)."""
    trace = LayerTrace()
    with trace.installed():
        started = time.perf_counter()
        result = operation()
        ended = time.perf_counter()
    return trace.finished(), (started, ended), result


#: Serving-only per-layer metrics; the other workloads report them as 0.
SERVE_LAYER_METRICS = (
    "journal.bytes_per_batch",
    "serve.submit_p50_ms",
    "serve.submit_p90_ms",
    "queue.wait_p50_s",
    "absorb.p50_s",
    "absorb.batches_per_absorb",
    "snapshot.count",
    "absorb.retries",
    "loadgen.late_max_ms",
    "loadgen.max_rate_cps",
)


def _layer_metrics(
    spans, window, *, overhead: float, simulation_s: float, cascades: int,
    serve: dict[str, float] | None = None,
) -> dict[str, float]:
    return {
        "simulation.s": simulation_s,
        "simulation.cascades_per_s": cascades / simulation_s,
        **span_metrics(spans, window=window),
        **(serve or dict.fromkeys(SERVE_LAYER_METRICS, 0.0)),
        "trace.overhead_frac": overhead,
    }


# ----------------------------------------------------------------------
# fit-wide / fit-tiled
# ----------------------------------------------------------------------

def decomposed_fit(statuses: StatusMatrix, config: TendsConfig):
    """Algorithm 1 as explicit calls into each layer's public function:
    returns ``(τ, parent sets)``, which must equal ``Tends.fit``'s."""
    n = statuses.n_nodes
    stats = SufficientStats.from_statuses(
        statuses, kernel=resolve_kernel(config.kernel)
    )
    mi = stats.mi_matrix(config.mi_kind)
    off_diagonal = mi[~np.eye(n, dtype=bool)]
    tau = (
        fixed_zero_two_means(off_diagonal[off_diagonal >= 0.0]).threshold
        * config.threshold_scale
    )
    search = ParentSearch(statuses, config)
    parent_sets = tuple(
        tuple(search.find_parents(node, prune_candidates(mi, node, tau, config))[0])
        for node in range(n)
    )
    return tau, parent_sets


def _fit_workload(ctx: Context, *, tiled: bool) -> Outcome:
    sizes = ctx.sizes
    setup_s, data = _timed_setup(
        ctx, lambda: _simulate(ctx.seed, sizes.fit_n, sizes.fit_beta)
    )
    statuses = data.statuses
    outcome = Outcome()
    spill_dirs: list[Path] = []

    def fit_once(trace: bool = False):
        if not tiled:
            return Tends(trace=trace).fit(statuses)
        spill_dirs.append(ctx.fresh_dir("tiles"))
        return Tends(
            tile_size=sizes.tile_size,
            spill_dir=str(spill_dirs[-1]),
            max_resident_tiles=2,
            trace=trace,
        ).fit(statuses)

    def fingerprint(result) -> str:
        # Spill files are not needed once the result is summarised.
        for directory in spill_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        spill_dirs.clear()
        return result.fingerprint()

    if ctx.trace:
        started = time.perf_counter()
        result = fit_once()
        untraced_s = time.perf_counter() - started
        reference = fingerprint(result)
        spans, window, traced = _traced(lambda: fit_once(trace=True))
        outcome.attempted += 2
        outcome.gate("traced fit equals untraced fit", fingerprint(traced) == reference)
        metrics = _layer_metrics(
            spans, window,
            overhead=(window[1] - window[0]) / untraced_s - 1.0,
            simulation_s=data.simulation_s,
            cascades=statuses.beta,
        )
        if not tiled:
            tau, parent_sets = decomposed_fit(statuses, TendsConfig())
            outcome.gate(
                "layer decomposition reproduces Tends.fit",
                tau == result.threshold and parent_sets == result.parent_sets,
            )
    else:
        walls, fingerprints, result = _repeat(ctx, outcome, fit_once, fingerprint)
        # Read before the reference fit below raises the high-water mark.
        peak_rss_mb = _peak_rss_mb()
        reference = fingerprints[0]
        outcome.gate(
            "repeated fits are identical",
            all(each == reference for each in fingerprints),
        )
    if tiled:
        outcome.gate(
            "tiled fit equals dense fit",
            reference == Tends().fit(statuses).fingerprint(),
        )
    if not ctx.trace:
        metrics = _end_to_end(
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb,
            f_score=_f_score(data.truth, result.graph),
            outcome=outcome,
            latencies=walls,
            throughput=statuses.beta / float(statistics.median(walls)),
        )
    outcome.metrics = metrics
    return outcome


def fit_wide(ctx: Context) -> Outcome:
    return _fit_workload(ctx, tiled=False)


def fit_tiled(ctx: Context) -> Outcome:
    return _fit_workload(ctx, tiled=True)


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------

#: Flight-recorder ring size: large enough to keep every span and event
#: of one rate step, which the publish and queue-wait figures read back.
RECORDER_CAPACITY = 8192


@dataclass
class Step:
    """What one open-loop rate step against a fresh service measured."""

    rate: int
    open_s: float
    start: float
    load_end: float
    drained: float
    acked: list[tuple[int, int, float, float, float]]  # index, seq, due, sent, acked
    late: list[float]
    publish: list[float]
    absorbs: list[dict]
    stats: ServiceStats
    model: TendsModel
    journal_bytes: int

    @property
    def holds(self) -> bool:
        """Publish p90 and the drain after the load within the limit."""
        return (
            len(self.publish) == len(self.acked) > 0
            and _percentile(self.publish, 90) <= SERVE_LIMIT_S
            and self.drained - self.load_end <= SERVE_LIMIT_S
        )


def _serve_batches(ctx: Context, data: Simulated) -> list[StatusMatrix]:
    """Batches of cascades, each observed at its own random set of nodes."""
    sizes = ctx.sizes
    rng = np.random.default_rng(derive_seed(ctx.seed, "observed"))
    steady_s = SERVE_STEADY_SHARE * ctx.seconds
    count = max(2, round(steady_s * SERVE_RATES[0] / sizes.serve_batch))
    batches = []
    for _ in range(count):
        cascades = data.simulator.run(sizes.serve_batch).statuses
        mask = np.zeros((cascades.beta, cascades.n_nodes), dtype=bool)
        observed = rng.choice(cascades.n_nodes, sizes.serve_observed, replace=False)
        mask[:, observed] = True
        batches.append(StatusMatrix(cascades.values.copy(), mask))
    return batches


def _serve_step(
    ctx: Context,
    outcome: Outcome,
    model,
    batches: list[StatusMatrix],
    rate: int,
    *,
    trace: bool = False,
) -> Step:
    """Submit ``batches`` on an open-loop schedule at ``rate`` cascades/s
    to a fresh service started from ``model``, then wait for the drain."""
    directory = ctx.fresh_dir(f"serve-{rate}")
    opened = time.perf_counter()
    service = IngestService(
        directory,
        model=model,
        drift="off",
        flight_recorder=RECORDER_CAPACITY,
        estimator_overrides={"trace": True} if trace else None,
    )
    open_s = time.perf_counter() - opened
    service.start()
    interval = ctx.sizes.serve_batch / rate
    epoch = time.time() - time.perf_counter()
    acked, late = [], []
    try:
        start = time.perf_counter()
        for index, batch in enumerate(batches):
            due = start + index * interval
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            late.append(sent - due)
            seq = outcome.attempt(lambda: service.submit(batch))
            if seq is not None:
                acked.append((index, seq, due, sent, time.perf_counter()))
        load_end = start + len(batches) * interval
        last_seq = acked[-1][1] if acked else 0
        give_up = time.perf_counter() + DRAIN_TIMEOUT_S
        while service.stats().absorbed_seq < last_seq:
            if time.perf_counter() > give_up:
                break
            time.sleep(0.01)
        drained = time.perf_counter()
        payload = service.debug_trace()
        stats = service.stats()
        served = service.model
    finally:
        service.close(timeout=DRAIN_TIMEOUT_S)
    published = sorted(
        (event["seq"], event["unix_time"] - epoch)
        for event in payload["events"]
        if event["kind"] == "publish"
    )
    published_seqs = [seq for seq, _ in published]
    publish = []
    for _, seq, due, _, _ in acked:
        at = bisect.bisect_left(published_seqs, seq)
        if at < len(published):
            publish.append(published[at][1] - due)
    outcome.gate("every acknowledged batch is published", len(publish) == len(acked))
    # Rejected submits already failed as exceptions; shed and quarantined
    # batches fail here.
    outcome.failed += max(stats.quarantined - stats.rejected, 0)
    outcome.gate(
        "no batch quarantined, rejected or shed",
        stats.quarantined == 0 and stats.rejected == 0 and stats.shed == 0,
    )
    return Step(
        rate=rate,
        open_s=open_s,
        start=start,
        load_end=load_end,
        drained=drained,
        acked=acked,
        late=late,
        publish=publish,
        absorbs=sorted(
            (span for span in payload["spans"] if span["name"] == "serve.absorb"),
            key=lambda span: span["start"],
        ),
        stats=stats,
        model=served,
        journal_bytes=(directory / "ingest.jsonl").stat().st_size,
    )


def _absorb_busy_s(step: Step) -> float:
    return sum(span["end"] - span["start"] for span in step.absorbs)


def _serve_layers(step: Step, steps: list[Step]) -> dict[str, float]:
    """The serving per-layer metrics of one traced step."""
    waits, pending = [], iter(step.acked)
    for span in step.absorbs:
        for _ in range(span["attrs"]["batches"]):
            acked = next(pending, None)
            if acked is not None:
                waits.append(span["start"] - acked[4])
    submits = [1e3 * (acked_at - sent) for *_, sent, acked_at in step.acked]
    return {
        "journal.bytes_per_batch": step.journal_bytes / max(len(step.acked), 1),
        "serve.submit_p50_ms": _percentile(submits, 50),
        "serve.submit_p90_ms": _percentile(submits, 90),
        "queue.wait_p50_s": float(statistics.median(waits)) if waits else 0.0,
        "absorb.p50_s": float(statistics.median(
            span["end"] - span["start"] for span in step.absorbs
        )),
        "absorb.batches_per_absorb": len(step.acked) / len(step.absorbs),
        "snapshot.count": float(step.stats.snapshots_written),
        "absorb.retries": float(step.stats.retries),
        "loadgen.late_max_ms": 1e3 * max(step.late),
        "loadgen.max_rate_cps": float(
            max((each.rate for each in steps if each.holds), default=0)
        ),
    }


def _bootstrap(ctx: Context, n: int, beta: int) -> tuple[Simulated, TendsModel]:
    """Simulated inputs plus the model of a cold ``Tends().fit`` on them."""
    data = _simulate(ctx.seed, n, beta)
    estimator = Tends()
    estimator.fit(data.statuses)
    return data, estimator.model


def _refit_fingerprint(history: StatusMatrix) -> str:
    """Model fingerprint of a one-shot fit on ``history``."""
    estimator = Tends()
    estimator.fit(history)
    return estimator.model.fingerprint()


def serve_open(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    setup_s, (data, model) = _timed_setup(
        ctx, lambda: _bootstrap(ctx, sizes.serve_n, sizes.serve_beta)
    )
    started = time.perf_counter()
    batches = _serve_batches(ctx, data)
    simulation_s = data.simulation_s + time.perf_counter() - started
    outcome = Outcome()
    refits: dict[tuple[int, ...], str] = {}

    def check(step: Step) -> None:
        indices = tuple(index for index, *_ in step.acked)
        if indices not in refits:
            history = model.statuses.append(
                StatusMatrix.concat([batches[index] for index in indices])
            )
            refits[indices] = _refit_fingerprint(history)
        outcome.gate(
            "served model equals a refit on every acknowledged batch",
            step.model.fingerprint() == refits[indices],
        )

    slow, fast = SERVE_RATES
    if ctx.trace:
        untraced = _serve_step(ctx, outcome, model, batches, slow)
        trace = LayerTrace()
        with trace.installed():
            traced = _serve_step(ctx, outcome, model, batches, slow, trace=True)
        with LayerTrace().installed():
            overloaded = _serve_step(ctx, outcome, model, batches, fast, trace=True)
        for step in (untraced, traced, overloaded):
            check(step)
        outcome.metrics = _layer_metrics(
            trace.finished(), (traced.start, traced.drained),
            overhead=_absorb_busy_s(traced) / _absorb_busy_s(untraced) - 1.0,
            simulation_s=simulation_s,
            cascades=data.statuses.beta + len(batches) * sizes.serve_batch,
            serve=_serve_layers(traced, [traced, overloaded]),
        )
        return outcome

    steady = _serve_step(ctx, outcome, model, batches, slow)
    overloaded = _serve_step(ctx, outcome, model, batches, fast)
    peak_rss_mb = _peak_rss_mb()
    for step in (steady, overloaded):
        check(step)
    absorbed = len(overloaded.acked) * sizes.serve_batch
    last_publish = max(
        due + latency
        for (_, _, due, _, _), latency in zip(overloaded.acked, overloaded.publish)
    )
    # Set-up includes opening a service on the bootstrap model, which
    # each rate step does on its own.
    opens = [step.open_s for step in (steady, overloaded)]
    outcome.metrics = _end_to_end(
        setup_s=setup_s + float(statistics.median(opens)),
        peak_rss_mb=peak_rss_mb,
        f_score=_f_score(data.truth, steady.model.graph()),
        outcome=outcome,
        latencies=steady.publish,
        throughput=absorbed / (last_publish - overloaded.start),
    )
    return outcome


WORKLOADS = {
    "fit-wide": fit_wide,
    "fit-tiled": fit_tiled,
    "serve-open": serve_open,
}
