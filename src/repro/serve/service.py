"""The crash-safe streaming ingest service.

:class:`IngestService` owns a service directory::

    <directory>/
        ingest.jsonl        write-ahead journal of acknowledged batches
        quarantine.jsonl    sequences the service gave up on (and why)
        model-<seq>.npz     crash-atomic model snapshots (newest two kept)

and runs three cooperating pieces:

* **submit path** (any producer thread) — journal the batch durably,
  then enqueue it under the backpressure policy.  The WAL write *is* the
  acknowledgement: once :meth:`IngestService.submit` returns a sequence
  number, the batch survives any crash.
* **absorb loop** (daemon thread) — waits for the
  :class:`~repro.serve.policy.BatchPolicy` debounce (k cascades or t
  seconds), takes the pending run of batches, absorbs them through
  ``Tends.partial_fit`` with jittered
  :class:`~repro.core.executor.RetryPolicy` retries, and publishes the
  new copy-on-write :class:`~repro.core.tends.TendsModel` atomically.
  A batch that keeps failing is **quarantined** (with the observation
  audit's findings attached — degenerate data is the usual culprit) and
  the loop moves on: readers keep being served the last good model.
* **watchdog** (daemon thread) — when the absorb loop stops heartbeating
  mid-work for ``hang_timeout`` seconds, the loop is declared hung: its
  generation is retired (a late result from the stuck thread can never
  publish), its in-flight batches are re-queued at the front, and a
  fresh loop resumes from the last good model.

Ordering and bit-identity
-------------------------
Submits are serialised, so journal order == queue order == absorb order.
The final model state is a pure function of the absorbed history (see
docs/INCREMENTAL.md), so however the live run grouped batches — and
however many crash/replay cycles happened — the recovered model's
:meth:`~repro.core.tends.TendsModel.fingerprint` matches an
uninterrupted run over the same acknowledged sequence.  Readers always
see a complete model: publication is a single reference swap under a
lock, never an in-place mutation.
"""

from __future__ import annotations

import signal
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

from repro.core.drift import DriftConfig, DriftReport
from repro.core.executor import RetryPolicy
from repro.core.tends import Tends, TendsModel, TendsResult
from repro.exceptions import (
    CheckpointError,
    JournalCorruptionWarning,
    ServiceError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.serve.journal import IngestJournal, IngestRecord, QuarantineStore
from repro.serve.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.serve.policy import BatchPolicy, BoundedQueue, QueueItem
from repro.simulation.statuses import StatusMatrix, validate_observations
from repro.utils.logging import get_logger

__all__ = ["DRIFT_POLICIES", "IngestService", "ServiceStats", "SNAPSHOT_KEEP"]

PathLike = Union[str, Path]

_LOGGER = get_logger("serve.service")

JOURNAL_NAME = "ingest.jsonl"
QUARANTINE_NAME = "quarantine.jsonl"
SNAPSHOT_PREFIX = "model-"
SNAPSHOT_SUFFIX = ".npz"

#: Snapshots retained on disk: the newest plus one fallback, so a crash
#: mid-save (or a snapshot damaged at rest) always leaves a loadable
#: predecessor whose missing suffix replays from the journal.
SNAPSHOT_KEEP = 2

#: Pre-adaptation model archives written by the ``snapshot-adapt`` drift
#: policy.  Deliberately OUTSIDE the recovery glob (``model-*``): recovery
#: must replay to the post-adapt state deterministically, while these
#: keep the pre-drift model around for forensic diffing / rollback.
PREADAPT_PREFIX = "preadapt-"

#: Drift response policies of the absorb loop (``drift=`` ctor knob):
#: ``off`` (no detector), ``detect`` (log + metrics only), ``adapt``
#: (self-heal via :meth:`~repro.core.tends.Tends.apply_drift_adaptation`),
#: ``snapshot-adapt`` (archive the pre-drift model first, then adapt).
DRIFT_POLICIES = ("off", "detect", "adapt", "snapshot-adapt")

#: Absorb-loop wake granularity while waiting out the debounce window.
_TICK_SECONDS = 0.05


def snapshot_path(directory: Path, seq: int) -> Path:
    return directory / f"{SNAPSHOT_PREFIX}{seq:012d}{SNAPSHOT_SUFFIX}"


def snapshot_seq(path: Path) -> int:
    return int(path.name[len(SNAPSHOT_PREFIX) : -len(SNAPSHOT_SUFFIX)])


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of the service's counters and gauges."""

    status: str
    absorbed_seq: int
    journal_seq: int
    queue_depth: int
    queue_cascades: int
    submitted_batches: int
    absorbed_batches: int
    absorbed_cascades: int
    quarantined: int
    shed: int
    rejected: int
    retries: int
    watchdog_restarts: int
    snapshots_written: int
    model_beta: int
    model_edges: int
    seconds_since_absorb: float | None
    drift_mode: str = "off"
    drift_checks: int = 0
    drift_detections: int = 0
    drift_adaptations: int = 0
    drift_last_nodes: int = 0
    quarantine_entries: int = 0
    quarantine_evicted: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class IngestService:
    """Long-running, crash-safe cascade ingest around a TENDS model.

    Parameters
    ----------
    directory:
        Service state directory (created if missing).  Reopening a
        directory replays its journal — see :meth:`recovered_batches`.
    model:
        Bootstrap :class:`~repro.core.tends.TendsModel`, required the
        first time a directory is opened; ignored afterwards (the
        snapshot + journal are authoritative).
    batch_policy, queue_capacity, backpressure:
        Debounce and backpressure knobs (see :mod:`repro.serve.policy`).
        ``queue_capacity`` is in pending *cascades*.
    retry:
        :class:`~repro.core.executor.RetryPolicy` for failed absorbs;
        the default retries 3× with seeded-jitter exponential backoff.
    snapshot_every:
        Crash-atomic model snapshot cadence, in absorbed batches (the
        journal bounds replay work between snapshots).
    hang_timeout / watchdog_interval:
        Absorb-loop heartbeat staleness that triggers a watchdog
        restart, and how often the watchdog checks.
    flight_recorder:
        Capacity of the bounded span/event ring behind ``GET
        /debug/trace`` (:class:`~repro.serve.recorder.FlightRecorder`);
        ``None`` or ``0`` disables it.  When no ``tracer`` is supplied
        the recorder doubles as the service tracer, so the most recent
        absorb spans are always inspectable at O(capacity) memory.
    estimator_overrides:
        Execution/observability ``TendsConfig`` overrides for the
        resuming estimator (executor, n_jobs, kernel, ...); algorithm
        fields are refused by :meth:`~repro.core.tends.Tends.from_model`.
    drift, drift_window, drift_config:
        Drift response policy (one of :data:`DRIFT_POLICIES`), the
        recent-window size in processes the detector compares against the
        rest of the history (default: each absorbed batch), and the
        detector's sensitivity knobs
        (:class:`~repro.core.drift.DriftConfig`).  Any active policy
        absorbs record by record — live and during replay — so detection
        and adaptation points are a deterministic function of the
        acknowledged sequence, keeping recovery fingerprint-identical.
        An active policy refuses a tiled estimator (``tile_size`` set, or
        a tile-backed model) with
        :class:`~repro.exceptions.ConfigurationError`: the drift windows
        are dense.
    quarantine_limit:
        Retention cap on quarantine verdicts; beyond it the store is
        durably compacted after each snapshot (``None`` disables).  Only
        sequences older than the oldest retained snapshot are evicted.
    degraded_window:
        How long (seconds) after a watchdog restart :meth:`health` keeps
        reporting ``degraded``.
    """

    def __init__(
        self,
        directory: PathLike,
        model: TendsModel | None = None,
        *,
        batch_policy: BatchPolicy | None = None,
        queue_capacity: int = 1024,
        backpressure: str = "block",
        retry: RetryPolicy | None = None,
        snapshot_every: int = 8,
        hang_timeout: float = 30.0,
        watchdog_interval: float = 0.5,
        metrics: MetricsRegistry | None = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        flight_recorder: int | None = DEFAULT_CAPACITY,
        estimator_overrides: Mapping | None = None,
        clock: Callable[[], float] = time.monotonic,
        drift: str = "off",
        drift_window: int | None = None,
        drift_config: DriftConfig | None = None,
        quarantine_limit: int | None = 1024,
        degraded_window: float = 600.0,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.batch_policy = batch_policy or BatchPolicy()
        self.retry = retry or RetryPolicy(backoff_seconds=0.05, jitter=0.5)
        if snapshot_every < 1:
            raise ServiceError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if drift not in DRIFT_POLICIES:
            raise ServiceError(
                f"unknown drift policy {drift!r} "
                f"(choose from {', '.join(DRIFT_POLICIES)})"
            )
        if drift_window is not None and drift_window < 1:
            raise ServiceError(
                f"drift_window must be >= 1, got {drift_window}"
            )
        if quarantine_limit is not None and quarantine_limit < 1:
            raise ServiceError(
                f"quarantine_limit must be >= 1, got {quarantine_limit}"
            )
        self.snapshot_every = snapshot_every
        self.hang_timeout = hang_timeout
        self.watchdog_interval = watchdog_interval
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Flight recorder: a bounded span/event ring for /debug/trace.
        # When the caller supplies no tracer of their own, the recorder
        # doubles as the service tracer so absorb spans land in the ring;
        # a caller-supplied FlightRecorder is reused; any other explicit
        # tracer wins and the recorder keeps only its event ring.
        self.recorder: FlightRecorder | None = None
        if flight_recorder:
            if isinstance(tracer, FlightRecorder):
                self.recorder = tracer
            else:
                self.recorder = FlightRecorder(flight_recorder)
                if isinstance(tracer, NullTracer):
                    tracer = self.recorder
        self.tracer = tracer
        self._clock = clock
        self._overrides = dict(estimator_overrides or {})
        self.drift = drift
        self.drift_window = drift_window
        self.drift_config = drift_config
        self.quarantine_limit = quarantine_limit
        self.degraded_window = degraded_window

        self._queue: BoundedQueue[IngestRecord] = BoundedQueue(
            queue_capacity, backpressure, clock=clock
        )
        self._quarantine_lock = threading.Lock()
        self._quarantine = QuarantineStore(self.directory / QUARANTINE_NAME)
        self._quarantined_seqs = set(
            QuarantineStore.load(self.directory / QUARANTINE_NAME)
        )
        self._quarantine_evicted = 0

        # Drift state — initialised before journal replay, which applies
        # the same drift policy the live loop does (replay determinism).
        self._drift_checks = 0
        self._drift_detections = 0
        self._drift_adaptations = 0
        self._drift_last_report: DriftReport | None = None
        self._last_watchdog_restart_at: float | None = None

        # --- recovery: newest good snapshot + journal replay ----------
        self._model_lock = threading.RLock()
        self._submit_lock = threading.Lock()
        model, absorbed_seq = self._load_latest_snapshot(model)
        self._estimator = Tends.from_model(model, **self._overrides)
        self._model: TendsModel = self._estimator.model
        if drift != "off":
            self._estimator._refuse_tiled_drift(
                self._model, f"drift policy {drift!r}"
            )
        self._last_result: TendsResult | None = None
        self._absorbed_seq = absorbed_seq
        self._absorbed_batches = 0
        self._recovered = self._replay_journal()

        self._journal = IngestJournal(self.directory / JOURNAL_NAME)

        # --- runtime state --------------------------------------------
        self._generation = 0
        self._inflight: list[QueueItem[IngestRecord]] = []
        self._heartbeat = self._clock()
        self._last_absorb_at: float | None = None
        self._since_snapshot = 0
        self._stopping = False
        self._closed = False
        self._shutdown_requested = threading.Event()
        self._absorb_thread: threading.Thread | None = None
        self._watchdog_thread: threading.Thread | None = None
        self._submitted = 0
        self._quarantined_total = 0
        self._retries_total = 0
        self._watchdog_restarts = 0
        self._snapshots_written = 0

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _snapshot_paths(self) -> list[Path]:
        paths = []
        for path in self.directory.glob(f"{SNAPSHOT_PREFIX}*{SNAPSHOT_SUFFIX}"):
            try:
                snapshot_seq(path)
            except ValueError:
                continue
            paths.append(path)
        return sorted(paths, key=snapshot_seq)

    def _load_latest_snapshot(
        self, bootstrap: TendsModel | None
    ) -> tuple[TendsModel, int]:
        for path in reversed(self._snapshot_paths()):
            try:
                return TendsModel.load(path), snapshot_seq(path)
            except CheckpointError as exc:
                warnings.warn(
                    f"{path}: snapshot unusable, falling back to an older "
                    f"one ({exc})",
                    JournalCorruptionWarning,
                    stacklevel=3,
                )
        if bootstrap is None:
            raise ServiceError(
                f"{self.directory} holds no loadable model snapshot and no "
                "bootstrap model was supplied; fit one and pass it as "
                "IngestService(directory, model=...)"
            )
        # First open: persist the bootstrap before accepting traffic, so
        # a crash during the very first batches still has a base to
        # replay against.
        bootstrap.save(snapshot_path(self.directory, 0))
        return bootstrap, 0

    def _replay_journal(self) -> int:
        """Absorb journaled-but-unsnapshotted batches; returns how many."""
        records = IngestJournal.replay(
            self.directory / JOURNAL_NAME, after_seq=self._absorbed_seq
        )
        replayed = 0
        for record in records:
            if record.seq in self._quarantined_seqs:
                continue
            self._absorb_one(record, during_replay=True)
            replayed += 1
        return replayed

    @property
    def recovered_batches(self) -> int:
        """Batches replayed from the journal when this service opened."""
        return self._recovered

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "IngestService":
        """Start the absorb loop and watchdog; idempotent."""
        if self._closed:
            raise ServiceError("service is closed")
        if self._absorb_thread is None or not self._absorb_thread.is_alive():
            self._spawn_absorb_loop()
        if self._watchdog_thread is None or not self._watchdog_thread.is_alive():
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, name="serve-watchdog", daemon=True
            )
            self._watchdog_thread.start()
        return self

    def _spawn_absorb_loop(self) -> None:
        generation = self._generation
        estimator = self._estimator
        self._absorb_thread = threading.Thread(
            target=self._absorb_loop,
            args=(generation, estimator),
            name=f"serve-absorb-{generation}",
            daemon=True,
        )
        self._heartbeat = self._clock()
        self._absorb_thread.start()

    def __enter__(self) -> "IngestService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def handle_signals(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain-and-snapshot stop
        (main thread only; the handler just sets a flag)."""

        def _request_shutdown(signum, frame):  # pragma: no cover - signal
            _LOGGER.warning(
                "received %s: draining queue and snapshotting",
                signal.Signals(signum).name,
            )
            self._shutdown_requested.set()

        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown_requested.is_set()

    def wait_for_shutdown(self, timeout: float | None = None) -> bool:
        return self._shutdown_requested.wait(timeout)

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service: refuse new submissions, optionally drain the
        queue through the absorb loop, snapshot, and release the journal.

        With ``drain=False`` pending batches stay journaled (not lost —
        the next open replays them); with ``drain=True`` (the default,
        and what the SIGTERM path uses) the absorb loop finishes the
        queue first, so the final snapshot covers every acknowledged
        batch.
        """
        if self._closed:
            return
        self._stopping = True
        if not drain:
            self._generation += 1  # retire the loop without waiting
        self._queue.close()
        thread = self._absorb_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            if thread.is_alive():
                _LOGGER.warning(
                    "absorb loop did not drain within %.3gs; pending batches "
                    "remain journaled for replay", timeout or 0.0
                )
        self._closed = True
        watchdog = self._watchdog_thread
        if watchdog is not None and watchdog.is_alive():
            watchdog.join(self.watchdog_interval * 4)
        with self._model_lock:
            self._save_snapshot()
        self._journal.close()
        self._quarantine.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # submit path
    # ------------------------------------------------------------------
    def submit(
        self, statuses: StatusMatrix, *, timeout: float | None = None
    ) -> int:
        """Durably accept one batch; returns its journal sequence number.

        The batch is journaled (fsync + CRC) before it is queued, so a
        returned sequence number survives any crash.  Under the
        ``reject`` policy a full queue raises
        :class:`~repro.exceptions.ServiceError` — the batch is journaled
        but durably quarantined as rejected, so replay will not
        resurrect it.  Under ``shed``, accepting this batch may drop the
        oldest pending ones (also durably quarantined).  Under ``block``
        the call waits for space, up to ``timeout`` seconds.
        """
        if self._stopping or self._closed:
            raise ServiceError("service is shutting down; submission refused")
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        if statuses.n_nodes != self._model.n_nodes:
            raise ServiceError(
                f"batch covers {statuses.n_nodes} nodes, service model "
                f"covers {self._model.n_nodes}"
            )
        if statuses.beta == 0:
            raise ServiceError("empty batch (beta=0) submitted")
        started = time.perf_counter()
        try:
            with self._submit_lock:
                record = self._journal.append(statuses)
                self._submitted += 1
                self.metrics.inc("serve_submitted_batches_total")
                self.metrics.inc("serve_submitted_cascades_total", statuses.beta)
                try:
                    shed = self._queue.put(
                        record, weight=statuses.beta, timeout=timeout
                    )
                except ServiceError:
                    self._quarantine_record(
                        record, reason="rejected",
                        error="bounded queue full (backpressure policy)",
                    )
                    raise
                for dropped in shed:
                    self._quarantine_record(
                        dropped, reason="shed",
                        error="dropped by shed backpressure under overload",
                    )
        finally:
            # Journal append + enqueue (including any backpressure wait):
            # the latency a producer actually experiences.
            self.metrics.observe(
                "serve_submit_seconds", time.perf_counter() - started
            )
        self._record_event("submit", seq=record.seq, cascades=statuses.beta)
        return record.seq

    def _record_event(self, kind: str, **fields) -> None:
        """Append one discrete outcome to the flight recorder's event
        ring (no-op when the recorder is disabled)."""
        recorder = self.recorder
        if recorder is not None:
            recorder.record(kind, **fields)

    def _quarantine_record(
        self,
        record: IngestRecord,
        *,
        reason: str,
        error: str | None,
        findings: list[str] | None = None,
    ) -> None:
        with self._quarantine_lock:
            self._quarantine.add(
                record.seq, reason=reason, error=error, findings=findings
            )
            self._quarantined_seqs.add(record.seq)
        self._quarantined_total += 1
        self.metrics.inc("serve_quarantined_total", reason=reason)
        self._record_event("quarantine", seq=record.seq, reason=reason)
        _LOGGER.warning(
            "quarantined batch seq=%d (%s): %s", record.seq, reason, error
        )

    # ------------------------------------------------------------------
    # absorb loop
    # ------------------------------------------------------------------
    def _absorb_loop(self, generation: int, estimator: Tends) -> None:
        while True:
            if self._generation != generation:
                return  # retired by the watchdog or a no-drain close
            self._heartbeat = self._clock()
            if not self._queue.wait_for_items(_TICK_SECONDS):
                if self._stopping:
                    return  # drained
                continue
            # Debounce: fire on k pending cascades or the oldest waiting
            # t seconds; when stopping, drain immediately.
            if not self._stopping and not self.batch_policy.ready(
                self._queue.weight, self._queue.oldest_age()
            ):
                budget = self.batch_policy.wait_budget(self._queue.oldest_age())
                time.sleep(min(_TICK_SECONDS, max(budget, 0.001)))
                continue
            items = self._queue.take()
            if not items:
                continue
            self._inflight = items
            try:
                self._absorb_items(items, generation, estimator)
            finally:
                if self._generation == generation:
                    self._inflight = []

    def _absorb_items(
        self,
        items: Sequence[QueueItem[IngestRecord]],
        generation: int,
        estimator: Tends,
    ) -> None:
        records = [item.payload for item in items]
        if self.drift != "off" and len(records) > 1:
            # Active drift policy: absorb record by record so window
            # boundaries — and therefore detection and adaptation points —
            # are a deterministic function of the acknowledged sequence,
            # identical live and on replay, regardless of queue grouping.
            for record in records:
                with self.tracer.span(
                    "serve.absorb", batches=1, cascades=record.statuses.beta
                ):
                    result = self._try_absorb(
                        estimator,
                        record.statuses,
                        token=record.seq,
                        generation=generation,
                    )
                if result is not None:
                    self._publish(estimator, result, [record], generation)
                else:
                    self._quarantine_failed(record, generation)
            return
        batch = (
            records[0].statuses
            if len(records) == 1
            else StatusMatrix.concat([r.statuses for r in records])
        )
        with self.tracer.span(
            "serve.absorb", batches=len(records), cascades=batch.beta
        ):
            result = self._try_absorb(
                estimator, batch, token=records[0].seq, generation=generation
            )
        if result is not None:
            self._publish(estimator, result, records, generation)
            return
        if len(records) == 1:
            self._quarantine_failed(records[0], generation)
            return
        # The group failed permanently; isolate the poison pill by
        # absorbing record by record (copy-on-write means the failed
        # group attempt left the estimator untouched).
        _LOGGER.warning(
            "group of %d batches failed to absorb; retrying batch by batch",
            len(records),
        )
        for record in records:
            with self.tracer.span(
                "serve.absorb", batches=1, cascades=record.statuses.beta
            ):
                result = self._try_absorb(
                    estimator,
                    record.statuses,
                    token=record.seq,
                    generation=generation,
                )
            if result is not None:
                self._publish(estimator, result, [record], generation)
            else:
                self._quarantine_failed(record, generation)

    def _try_absorb(
        self,
        estimator: Tends,
        batch: StatusMatrix,
        *,
        token: int,
        generation: int,
    ) -> TendsResult | None:
        """``partial_fit`` with jittered retries; None = gave up."""
        failures = 0
        while True:
            if self._generation != generation:
                return None  # retired mid-retry
            try:
                self._heartbeat = self._clock()
                started = time.perf_counter()
                result = self._absorb_step(
                    estimator, batch, seq=token, during_replay=False
                )
                self.metrics.observe(
                    "serve_absorb_seconds", time.perf_counter() - started
                )
                return result
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failures += 1
                self.metrics.inc("serve_absorb_failures_total")
                if failures >= self.retry.max_attempts:
                    _LOGGER.error(
                        "absorb failed permanently after %d attempt(s): %s",
                        failures, exc,
                    )
                    self._last_absorb_error = str(exc)
                    return None
                self._retries_total += 1
                self.metrics.inc("serve_absorb_retries_total")
                delay = self.retry.delay(failures, token=token)
                _LOGGER.warning(
                    "absorb attempt %d/%d failed: %s; retrying after %.3gs",
                    failures, self.retry.max_attempts, exc, delay,
                )
                self._heartbeat = self._clock()
                time.sleep(delay)

    _last_absorb_error: str | None = None

    def _absorb_step(
        self,
        estimator: Tends,
        batch: StatusMatrix,
        *,
        seq: int,
        during_replay: bool,
    ) -> TendsResult:
        """One ``partial_fit`` under the configured drift policy.

        ``drift="off"`` is byte-for-byte the plain incremental absorb.
        Otherwise the batch is absorbed with detection on, and a drift
        verdict is routed through :meth:`_handle_drift` — identically
        during live absorbs and startup replay, so the recovered model is
        fingerprint-identical to the uninterrupted run.
        """
        if self.drift == "off":
            return estimator.partial_fit(batch)
        result = estimator.partial_fit(
            batch,
            drift="detect",
            drift_window=self.drift_window,
            drift_config=self.drift_config,
        )
        return self._handle_drift(
            estimator, result, seq=seq, during_replay=during_replay
        )

    def _handle_drift(
        self,
        estimator: Tends,
        result: TendsResult,
        *,
        seq: int,
        during_replay: bool,
    ) -> TendsResult:
        """Apply the drift response policy to one absorb's verdict."""
        report = result.drift
        self._drift_checks += 1
        self.metrics.inc("serve_drift_checks_total")
        if report is None or not report.drifted:
            return result
        self._drift_detections += 1
        self._drift_last_report = report
        self.metrics.inc("serve_drift_detected_total")
        self.metrics.inc("serve_drift_pairs_flagged_total", report.n_flagged)
        self.metrics.set_gauge(
            "serve_drift_nodes_affected", float(len(report.affected_nodes))
        )
        _LOGGER.warning("seq=%d: %s", seq, report.summary())
        if self.drift == "detect":
            return result
        with self.tracer.span(
            "serve.drift",
            policy=self.drift,
            pairs=report.n_flagged,
            nodes=len(report.affected_nodes),
        ):
            if self.drift == "snapshot-adapt" and not during_replay:
                # Archive the pre-drift model for forensics/rollback —
                # outside the recovery glob, so replay still converges on
                # the post-adapt state (see PREADAPT_PREFIX).
                self._save_preadapt_snapshot(estimator.model, seq)
            try:
                adapted = estimator.apply_drift_adaptation(report)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # Degrade to detect-only: the un-adapted model is still a
                # valid (if stale-biased) estimate, and raising here would
                # re-absorb the already-installed batch on retry.
                self.metrics.inc("serve_drift_adapt_failures_total")
                _LOGGER.error(
                    "drift adaptation failed; serving un-adapted model: %s",
                    exc,
                )
                return result
        self._drift_adaptations += 1
        self.metrics.inc("serve_drift_adaptations_total")
        _LOGGER.warning(
            "seq=%d: drift adaptation applied — rebased onto newest %d "
            "process(es), re-searched %d node(s)",
            seq, report.recent_beta, len(report.affected_nodes),
        )
        return adapted

    def _save_preadapt_snapshot(self, model: TendsModel, seq: int) -> Path:
        path = self.directory / f"{PREADAPT_PREFIX}{seq:012d}{SNAPSHOT_SUFFIX}"
        model.save(path)
        self.metrics.inc("serve_preadapt_snapshots_total")
        stale = sorted(
            self.directory.glob(f"{PREADAPT_PREFIX}*{SNAPSHOT_SUFFIX}")
        )[:-SNAPSHOT_KEEP]
        for old in stale:
            old.unlink(missing_ok=True)
        return path

    def _quarantine_failed(self, record: IngestRecord, generation: int) -> None:
        if self._generation != generation:
            return
        try:
            audit = validate_observations(
                record.statuses, on_degenerate="ignore"
            )
            findings = audit.findings()
        except Exception:  # pragma: no cover - audit must never mask
            findings = []
        self._quarantine_record(
            record,
            reason="absorb-failed",
            error=self._last_absorb_error,
            findings=findings,
        )

    def _publish(
        self,
        estimator: Tends,
        result: TendsResult,
        records: Sequence[IngestRecord],
        generation: int,
    ) -> None:
        """Atomically install the new model for readers and advance the
        absorbed watermark — only if this loop generation is still
        current (a hung loop's late result must not clobber its
        replacement's)."""
        with self._model_lock:
            if self._generation != generation:
                _LOGGER.warning(
                    "discarding absorb result from retired loop generation %d",
                    generation,
                )
                return
            self._model = estimator.model
            self._last_result = result
            self._absorbed_seq = max(self._absorbed_seq, records[-1].seq)
            self._absorbed_batches += len(records)
            self._last_absorb_at = self._clock()
            self._since_snapshot += len(records)
            self.metrics.inc("serve_absorbed_batches_total", len(records))
            self.metrics.inc(
                "serve_absorbed_cascades_total",
                sum(r.statuses.beta for r in records),
            )
            self.metrics.set_gauge("serve_model_beta", float(self._model.beta))
            self.metrics.set_gauge(
                "serve_model_edges", float(sum(map(len, self._model.parent_sets)))
            )
            self._record_event(
                "publish",
                seq=self._absorbed_seq,
                batches=len(records),
                model_beta=self._model.beta,
            )
            if self._since_snapshot >= self.snapshot_every:
                self._save_snapshot()

    def _absorb_one(self, record: IngestRecord, *, during_replay: bool) -> None:
        """Synchronous absorb used by startup replay (no queue, no
        retries — a replay failure quarantines immediately, matching
        what the live loop would eventually have done)."""
        try:
            result = self._absorb_step(
                self._estimator,
                record.statuses,
                seq=record.seq,
                during_replay=during_replay,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._last_absorb_error = str(exc)
            self._quarantine_failed(record, self._generation)
            return
        with self._model_lock:
            self._model = self._estimator.model
            self._last_result = result
            self._absorbed_seq = max(self._absorbed_seq, record.seq)
            self._absorbed_batches += 1
            if during_replay:
                self.metrics.inc("serve_replayed_batches_total")

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def _save_snapshot(self) -> Path:
        """Crash-atomic snapshot named by the absorbed watermark; prunes
        all but the newest :data:`SNAPSHOT_KEEP`.  Caller holds the
        model lock."""
        path = snapshot_path(self.directory, self._absorbed_seq)
        self._model.save(path)
        self._since_snapshot = 0
        self._snapshots_written += 1
        self.metrics.inc("serve_snapshots_total")
        for stale in self._snapshot_paths()[:-SNAPSHOT_KEEP]:
            stale.unlink(missing_ok=True)
        self._compact_quarantine()
        return path

    def _compact_quarantine(self) -> None:
        """Bound the quarantine store after a snapshot.  Eviction only
        touches sequences at or below the *oldest* retained snapshot's
        watermark: recovery may fall back to that snapshot and must still
        find the verdict for every sequence it would replay past."""
        if self.quarantine_limit is None:
            return
        snapshots = self._snapshot_paths()
        protect_after = snapshot_seq(snapshots[0]) if snapshots else 0
        with self._quarantine_lock:
            evicted = self._quarantine.compact(
                self.quarantine_limit, protect_after_seq=protect_after
            )
            self._quarantined_seqs.difference_update(evicted)
        if evicted:
            self._quarantine_evicted += len(evicted)
            self.metrics.inc("serve_quarantine_evicted", len(evicted))
            _LOGGER.info(
                "compacted quarantine: evicted %d verdict(s) at or below "
                "snapshot watermark %d", len(evicted), protect_after,
            )

    def snapshot_now(self) -> Path:
        """Force a snapshot of the current model (ops escape hatch)."""
        with self._model_lock:
            return self._save_snapshot()

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._closed:
            time.sleep(self.watchdog_interval)
            if self._stopping and not self._inflight:
                continue
            thread = self._absorb_thread
            if thread is None:
                continue
            busy = bool(self._inflight) or len(self._queue) > 0
            stale = self._clock() - self._heartbeat
            if not thread.is_alive() and not self._stopping:
                _LOGGER.error("absorb loop died; restarting")
                self._restart_absorb_loop()
            elif busy and stale > self.hang_timeout:
                _LOGGER.error(
                    "absorb loop hung (no heartbeat for %.3gs > %.3gs); "
                    "restarting from the last good model",
                    stale, self.hang_timeout,
                )
                self._restart_absorb_loop()

    def _restart_absorb_loop(self) -> None:
        with self._model_lock:
            self._generation += 1
            self._watchdog_restarts += 1
            self._last_watchdog_restart_at = self._clock()
            self.metrics.inc("serve_watchdog_restarts_total")
            # Re-deliver whatever the retired loop had taken but not
            # published; the journal still holds every byte, so worst
            # case these absorb twice-attempted but publish once.
            pending, self._inflight = self._inflight, []
            self._queue.requeue_front(pending)
            self._estimator = Tends.from_model(self._model, **self._overrides)
        self._spawn_absorb_loop()

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def model(self) -> TendsModel:
        """The last good model (never partially updated — publication is
        a reference swap)."""
        with self._model_lock:
            return self._model

    @property
    def last_result(self) -> TendsResult | None:
        with self._model_lock:
            return self._last_result

    def edges(self) -> list[tuple[int, int]]:
        """Current inferred edge set as (parent, child) pairs."""
        model = self.model
        return [
            (parent, child)
            for child, parents in enumerate(model.parent_sets)
            for parent in parents
        ]

    def edge_confidence(self) -> dict[tuple[int, int], float]:
        """Per-edge IMI-to-threshold margin (``>= 1`` ⇒ the pair cleared
        the pruning threshold).  This is the streaming-updatable
        confidence surface; bootstrap-resampled confidence needs a full
        :meth:`~repro.core.tends.Tends.fit` (docs/SERVING.md §5)."""
        model = self.model
        mi = model.stats.mi_matrix(model.config.mi_kind)
        tau = model.threshold if model.threshold > 0 else 1.0
        return {
            (parent, child): float(mi[parent, child] / tau)
            for child, parents in enumerate(model.parent_sets)
            for parent in parents
        }

    def health(self) -> dict:
        """Liveness summary: ``status`` is ``serving`` (all good),
        ``degraded`` (the quarantine store is non-empty, or a watchdog
        restart happened within the last ``degraded_window`` seconds —
        the last good model is still served), ``draining`` or
        ``stopped``.  Includes the last-absorb age and the drift
        detector's state so probes need no second endpoint."""
        stats = self.stats()
        return {
            "status": stats.status,
            "absorbed_seq": stats.absorbed_seq,
            "journal_seq": stats.journal_seq,
            "queue_depth": stats.queue_depth,
            "quarantined": stats.quarantined,
            "quarantine_entries": stats.quarantine_entries,
            "watchdog_restarts": stats.watchdog_restarts,
            "model_beta": stats.model_beta,
            "model_edges": stats.model_edges,
            "last_absorb_age_seconds": stats.seconds_since_absorb,
            "drift": {
                "mode": stats.drift_mode,
                "checks": stats.drift_checks,
                "detections": stats.drift_detections,
                "adaptations": stats.drift_adaptations,
                "last_nodes_affected": stats.drift_last_nodes,
            },
        }

    def debug_trace(self) -> dict:
        """The ``GET /debug/trace`` payload: the flight recorder's
        retained spans and events plus the service status, or an empty
        shell (``enabled: false``) when the recorder is disabled."""
        if self.recorder is None:
            payload: dict = {
                "enabled": False,
                "capacity": 0,
                "spans": [],
                "events": [],
            }
        else:
            payload = {"enabled": True, **self.recorder.snapshot()}
        stats = self.stats()
        payload["status"] = stats.status
        payload["absorbed_seq"] = stats.absorbed_seq
        return payload

    def _degraded(self) -> bool:
        """Honest degradation: quarantined work is sitting in the store,
        or the watchdog had to restart the absorb loop recently (within
        ``degraded_window`` seconds) — either way the served model may
        lag the acknowledged sequence."""
        if len(self._quarantine) > 0:
            return True
        restarted = self._last_watchdog_restart_at
        return (
            restarted is not None
            and self._clock() - restarted <= self.degraded_window
        )

    def stats(self) -> ServiceStats:
        with self._model_lock:
            if self._closed:
                status = "stopped"
            elif self._stopping:
                status = "draining"
            elif self._degraded():
                status = "degraded"
            else:
                status = "serving"
            last = self._last_absorb_at
            report = self._drift_last_report
            return ServiceStats(
                status=status,
                absorbed_seq=self._absorbed_seq,
                journal_seq=self._journal.next_seq - 1,
                queue_depth=len(self._queue),
                queue_cascades=self._queue.weight,
                submitted_batches=self._submitted,
                absorbed_batches=self._absorbed_batches,
                absorbed_cascades=self._model.beta,
                quarantined=self._quarantined_total,
                shed=self._queue.shed_total,
                rejected=self._queue.rejected_total,
                retries=self._retries_total,
                watchdog_restarts=self._watchdog_restarts,
                snapshots_written=self._snapshots_written,
                model_beta=self._model.beta,
                model_edges=sum(map(len, self._model.parent_sets)),
                seconds_since_absorb=(
                    None if last is None else self._clock() - last
                ),
                drift_mode=self.drift,
                drift_checks=self._drift_checks,
                drift_detections=self._drift_detections,
                drift_adaptations=self._drift_adaptations,
                drift_last_nodes=(
                    0 if report is None else len(report.affected_nodes)
                ),
                quarantine_entries=len(self._quarantine),
                quarantine_evicted=self._quarantine_evicted,
            )

    @property
    def last_drift_report(self) -> DriftReport | None:
        """The most recent drifted verdict the absorb loop saw (``None``
        until one flags)."""
        with self._model_lock:
            return self._drift_last_report
