"""Fault-tolerant sweep engine: checkpointed, guarded matrix runs.

The paper's headline artifact is a (datasets x algorithms x
orderings) matrix; run monolithically, one pathological cell — an
OOM in a heavy ordering, a hung anneal, a Ctrl-C at hour three —
throws away every completed cell.  This engine runs any experiment
matrix as a set of independent, addressable **cells** with the
operational hardening a training-job runner would have:

* **Checkpoint/resume** — every finished cell (result *or* failure)
  is appended to an on-disk JSONL journal keyed by
  ``(dataset, algorithm, ordering, seed)`` plus a fingerprint of the
  profile configuration.  A killed sweep resumes exactly where it
  stopped; an uninterrupted and an interrupted+resumed run produce
  archives with the same :func:`repro.perf.store.archive_digest`.
  Appends are flushed and fsynced per cell; a torn final line (the
  kill landed mid-append) is detected and discarded on load.
* **Per-cell guards** — a configurable wall-clock ``cell_timeout``,
  ``retries`` with exponential backoff for flaky cells, and optional
  subprocess isolation (``multiprocessing`` *spawn*) so a hard crash
  or ``MemoryError`` in one cell cannot take down the sweep.
* **Graceful degradation** — a cell that exhausts its budget is
  recorded as a structured :class:`~repro.perf.store.CellFailure`
  (exception type, traceback tail, attempts, elapsed) and the sweep
  continues; ``strict=True`` restores fail-fast.  Failures surface
  as explicit gaps in reports, never as silently missing data.

Faults are injectable deterministically via
:mod:`repro.perf.faults`, which is how all of the above is tested.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.errors import ReproError
from repro.graph import datasets
from repro.ioutil import atomic_write_text, read_jsonl
from repro.ordering import base as ordering_base
from repro.perf.experiments import Profile, algorithm_params
from repro.perf.faults import FaultPlan
from repro.perf.runner import (
    GLOBAL_ORDERING_CACHE,
    OrderingCache,
    RunResult,
    run_cell,
)
from repro.perf.store import (
    CellFailure,
    failure_from_dict,
    failure_to_dict,
    result_from_dict,
    result_to_dict,
)

#: Journal format marker in the checkpoint header line.
CHECKPOINT_VERSION = 1


class SweepError(ReproError):
    """The sweep engine could not run or resume a sweep."""


class CheckpointError(SweepError):
    """A checkpoint journal is unusable (corrupt or mismatched)."""


class StrictCellError(SweepError):
    """A cell failed while the sweep was running in strict mode."""

    def __init__(self, failure: CellFailure) -> None:
        super().__init__(
            f"cell failed in strict mode — {failure.describe()}"
        )
        self.failure = failure


class CellTimeout(SweepError):
    """A cell exceeded its wall-clock budget."""


@dataclass(frozen=True)
class CellSpec:
    """One addressable unit of sweep work."""

    dataset: str
    algorithm: str
    ordering: str
    seed: int

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.dataset, self.algorithm, self.ordering, self.seed)


@dataclass(frozen=True)
class SweepGuards:
    """Per-cell budgets and isolation policy.

    ``cell_timeout`` is wall-clock seconds per attempt; with
    ``isolate=False`` the timed-out cell's thread is abandoned (it
    cannot be killed from Python), with ``isolate=True`` the cell's
    subprocess is terminated for real.  ``retries`` re-attempts a
    failed or timed-out cell with ``backoff_seconds * 2**attempt``
    sleeps in between.  ``strict`` restores fail-fast: the first
    exhausted cell aborts the sweep with :class:`StrictCellError`
    (after being checkpointed).
    """

    cell_timeout: float | None = None
    retries: int = 0
    backoff_seconds: float = 0.0
    isolate: bool = False
    strict: bool = False


def enumerate_cells(profile: Profile) -> list[CellSpec]:
    """The profile's cells in canonical (deterministic) sweep order.

    Deterministic orderings contribute one cell per (dataset,
    algorithm); seeded ones contribute one cell per seed in
    ``profile.random_seeds`` — the replication's
    repetition-with-median protocol, made addressable.
    """
    cells: list[CellSpec] = []
    for dataset in profile.datasets:
        for algorithm in profile.algorithms:
            for ordering in profile.orderings:
                deterministic = ordering_base.spec(
                    ordering
                ).deterministic
                seeds = (
                    (profile.seed,)
                    if deterministic
                    else profile.random_seeds
                )
                for seed in seeds:
                    cells.append(
                        CellSpec(dataset, algorithm, ordering, seed)
                    )
    return cells


def profile_fingerprint(profile: Profile) -> str:
    """A short stable hash of everything that shapes the matrix.

    Two sweeps may share a checkpoint only if their fingerprints
    match; resuming a ``quick`` checkpoint with a ``full`` profile is
    refused instead of silently mixing configurations.
    """
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "profile": asdict(profile),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
@dataclass
class CheckpointState:
    """Parsed contents of one checkpoint journal."""

    header: dict
    results: dict[tuple[str, str, str, int], RunResult] = field(
        default_factory=dict
    )
    failures: dict[tuple[str, str, str, int], CellFailure] = field(
        default_factory=dict
    )

    @property
    def completed(self) -> set[tuple[str, str, str, int]]:
        return set(self.results) | set(self.failures)


class SweepCheckpoint:
    """Append-only JSONL journal of completed cells.

    Line 1 is a header (journal version, profile name, config
    fingerprint, total cell count); each further line is one
    completed cell: ``{"kind": "cell", "cell": {...}, "record":
    {...}}`` where the record is a result or failure in the archive
    schema.  Appends are flushed and fsynced so a completed cell
    survives any subsequent kill; a torn final line is discarded on
    load (that cell simply re-runs).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    # -- reading -------------------------------------------------------
    def load(self) -> CheckpointState:
        """Parse the journal into a :class:`CheckpointState`.

        A torn final append (the kill landed mid-write) is discarded;
        that cell re-runs on resume.
        """
        def torn_tail(line: int) -> None:
            obs.event(
                "sweep.checkpoint_torn_tail", level="warning",
                path=str(self.path), line=line,
            )

        records = [
            record for _, record in read_jsonl(
                self.path, CheckpointError, "checkpoint", torn_tail
            )
        ]
        if not records or records[0].get("kind") != "header":
            raise CheckpointError(
                f"checkpoint {self.path} has no header line"
            )
        header = records[0]
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has journal version "
                f"{version!r}; this build writes "
                f"{CHECKPOINT_VERSION}"
            )
        state = CheckpointState(header=header)
        for record in records[1:]:
            if record.get("kind") != "cell":
                continue
            cell = record.get("cell", {})
            key = (
                cell.get("dataset"),
                cell.get("algorithm"),
                cell.get("ordering"),
                cell.get("seed"),
            )
            payload = record.get("record", {})
            if payload.get("status") == "failed":
                state.failures[key] = failure_from_dict(payload)
            else:
                state.results[key] = result_from_dict(payload)
        return state

    # -- writing -------------------------------------------------------
    def _append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def start(
        self, profile: Profile, fingerprint: str, total_cells: int
    ) -> None:
        """Truncate and write a fresh header."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, "")
        self._append(
            {
                "kind": "header",
                "version": CHECKPOINT_VERSION,
                "profile": profile.name,
                "fingerprint": fingerprint,
                "total_cells": total_cells,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            }
        )

    def record(
        self, cell: CellSpec, record: dict
    ) -> None:
        """Append one completed cell (result or failure record)."""
        self._append(
            {"kind": "cell", "cell": asdict(cell), "record": record}
        )


# ----------------------------------------------------------------------
# Sweep outcome
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Everything a sweep produced: per-seed results and failures."""

    profile: Profile
    results: dict[tuple[str, str, str, int], RunResult] = field(
        default_factory=dict
    )
    failures: dict[tuple[str, str, str, int], CellFailure] = field(
        default_factory=dict
    )
    #: Cells replayed from a checkpoint rather than executed.
    resumed_cells: int = 0

    def matrix(self) -> dict[tuple[str, str, str], RunResult]:
        """Aggregate per-seed runs into the paper's 3-key matrix.

        Non-deterministic orderings are represented by their median
        run over the seeds that *succeeded* (the replication's
        protocol); cells with zero successful runs are absent — see
        :meth:`failed_cells` for their structured failures.
        """
        grouped: dict[
            tuple[str, str, str], list[RunResult]
        ] = {}
        for (ds, alg, order, _seed), result in self.results.items():
            grouped.setdefault((ds, alg, order), []).append(result)
        matrix: dict[tuple[str, str, str], RunResult] = {}
        for key, runs in grouped.items():
            runs.sort(key=lambda run: run.cycles)
            matrix[key] = runs[len(runs) // 2]
        return matrix

    def failed_cells(self) -> dict[tuple[str, str, str], CellFailure]:
        """3-key cells with **no** successful run, with one failure.

        A seeded cell where some seeds failed but one succeeded still
        yields a (degraded) matrix entry, so it does not appear here.
        """
        succeeded = {
            (ds, alg, order)
            for (ds, alg, order, _seed) in self.results
        }
        gaps: dict[tuple[str, str, str], CellFailure] = {}
        for (ds, alg, order, _seed), failure in self.failures.items():
            key = (ds, alg, order)
            if key not in succeeded and key not in gaps:
                gaps[key] = failure
        return gaps


# ----------------------------------------------------------------------
# Subprocess isolation worker (must be importable at module top level
# for the multiprocessing *spawn* start method)
# ----------------------------------------------------------------------
def _isolated_cell_worker(conn, payload: dict) -> None:
    try:
        fields = dict(payload["profile"])
        for key in (
            "datasets", "orderings", "algorithms", "random_seeds"
        ):
            fields[key] = tuple(fields[key])
        # JSON round-trips the (name, value) pairs as lists.
        fields["ordering_params"] = tuple(
            tuple(pair) for pair in fields.get("ordering_params", ())
        )
        profile = Profile(**fields)
        plan = FaultPlan.from_payload(payload["plan"])
        cell = CellSpec(**payload["cell"])
        result = _execute_cell_body(
            profile, cell, payload["attempt"], plan, cache=None
        )
        conn.send(("ok", result_to_dict(result)))
    except BaseException as exc:  # repro: noqa[REP003] — reported
        # over the pipe as a structured record; the parent converts
        # it into a CellFailure.
        conn.send(
            (
                "error",
                type(exc).__name__,
                str(exc),
                _traceback_tail(),
            )
        )
    finally:
        conn.close()


def _traceback_tail(limit: int = 6) -> str:
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


def _execute_cell_body(
    profile: Profile,
    cell: CellSpec,
    attempt: int,
    plan: FaultPlan,
    cache: OrderingCache | None,
) -> RunResult:
    """One attempt of one cell: faults, then the real run."""
    plan.apply_in_cell(
        cell.dataset, cell.algorithm, cell.ordering, cell.seed, attempt
    )
    graph = datasets.load(cell.dataset)
    params = algorithm_params(cell.algorithm, graph, profile)
    return run_cell(
        graph,
        cell.algorithm,
        cell.ordering,
        seed=cell.seed,
        params=params,
        hierarchy=profile.hierarchy(),
        cache=cache,
        dataset_name=cell.dataset,
        ordering_params=dict(profile.ordering_params),
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SweepEngine:
    """Runs an experiment matrix cell by cell, surviving bad cells.

    Parameters
    ----------
    guards:
        Per-cell budgets and isolation policy.
    plan:
        Optional deterministic :class:`~repro.perf.faults.FaultPlan`
        (tests and the CI smoke job).
    cache:
        Ordering memo shared across cells; defaults to the bounded
        global cache.  Ignored by isolated cells (each subprocess is
        a fresh interpreter).
    """

    def __init__(
        self,
        guards: SweepGuards | None = None,
        plan: FaultPlan | None = None,
        cache: OrderingCache | None = None,
    ) -> None:
        self.guards = guards or SweepGuards()
        self.plan = plan or FaultPlan()
        # Explicit None check: an *empty* OrderingCache is falsy
        # (len() == 0), and ``cache or GLOBAL`` would silently swap a
        # caller's fresh private cache for the shared one.
        self.cache = GLOBAL_ORDERING_CACHE if cache is None else cache

    # -- public API ----------------------------------------------------
    def run(
        self,
        profile: Profile,
        checkpoint: str | os.PathLike | None = None,
        resume: bool = False,
    ) -> SweepOutcome:
        """Run every cell of ``profile``, returning a SweepOutcome.

        With ``checkpoint`` set, completed cells are journaled there;
        ``resume=True`` replays a compatible existing journal instead
        of re-running its cells (a missing journal starts fresh).
        Without a checkpoint the engine still guards and degrades,
        it just cannot resume.
        """
        cells = enumerate_cells(profile)
        fingerprint = profile_fingerprint(profile)
        journal, done = self._open_journal(
            profile, checkpoint, resume, fingerprint, len(cells)
        )
        outcome = SweepOutcome(profile=profile)
        with obs.span(
            "sweep.run",
            profile=profile.name,
            cells=len(cells),
            fingerprint=fingerprint,
        ):
            for index, cell in enumerate(cells):
                if done is not None and cell.key in done.completed:
                    self._replay(outcome, done, cell)
                    continue
                self._run_one(
                    profile, cell, index, len(cells), journal, outcome
                )
        if outcome.resumed_cells:
            obs.event(
                "sweep.resumed",
                cells=outcome.resumed_cells,
                checkpoint=str(checkpoint),
            )
        return outcome

    # -- internals -----------------------------------------------------
    def _open_journal(
        self,
        profile: Profile,
        checkpoint: str | os.PathLike | None,
        resume: bool,
        fingerprint: str,
        total_cells: int,
    ) -> tuple[SweepCheckpoint | None, CheckpointState | None]:
        if checkpoint is None:
            return None, None
        journal = SweepCheckpoint(checkpoint)
        if resume and journal.path.exists():
            state = journal.load()
            recorded = state.header.get("fingerprint")
            if recorded != fingerprint:
                raise CheckpointError(
                    f"checkpoint {journal.path} was written by a "
                    f"different configuration (fingerprint "
                    f"{recorded} != {fingerprint}); refusing to mix "
                    "results — delete it or rerun without --resume"
                )
            return journal, state
        journal.start(profile, fingerprint, total_cells)
        return journal, None

    def _replay(
        self,
        outcome: SweepOutcome,
        done: CheckpointState,
        cell: CellSpec,
    ) -> None:
        if cell.key in done.results:
            outcome.results[cell.key] = done.results[cell.key]
        else:
            outcome.failures[cell.key] = done.failures[cell.key]
        outcome.resumed_cells += 1

    def _run_one(
        self,
        profile: Profile,
        cell: CellSpec,
        index: int,
        total: int,
        journal: SweepCheckpoint | None,
        outcome: SweepOutcome,
    ) -> None:
        result, failure = self._run_cell_guarded(profile, cell)
        if result is not None:
            outcome.results[cell.key] = result
            if journal is not None:
                journal.record(cell, result_to_dict(result))
            obs.inc("sweep.cells_ok")
            obs.progress(
                "sweep.cell",
                dataset=cell.dataset,
                algorithm=cell.algorithm,
                ordering=cell.ordering,
                seed=cell.seed,
                mcycles=round(result.cycles / 1e6, 1),
                cell=index + 1,
                cells=total,
            )
        else:
            assert failure is not None
            outcome.failures[cell.key] = failure
            if journal is not None:
                journal.record(cell, failure_to_dict(failure))
            obs.inc("sweep.cells_failed")
            obs.event(
                "sweep.cell_failed",
                level="warning",
                dataset=cell.dataset,
                algorithm=cell.algorithm,
                ordering=cell.ordering,
                seed=cell.seed,
                error=failure.error_type,
                attempts=failure.attempts,
                timed_out=failure.timed_out,
            )
            if self.guards.strict:
                raise StrictCellError(failure)
        # The cell is durably recorded — the moment an injected kill
        # is most informative to fire.
        self.plan.kill_after_cell(
            cell.dataset, cell.algorithm, cell.ordering, cell.seed
        )

    def _run_cell_guarded(
        self, profile: Profile, cell: CellSpec
    ) -> tuple[RunResult | None, CellFailure | None]:
        attempts = max(0, self.guards.retries) + 1
        started = time.perf_counter()
        last: tuple[str, str, str, bool] | None = None
        for attempt in range(attempts):
            if attempt:
                backoff = self.guards.backoff_seconds * (
                    2 ** (attempt - 1)
                )
                if backoff > 0:
                    time.sleep(backoff)
                obs.inc("sweep.retries")
                obs.event(
                    "sweep.cell_retry",
                    level="warning",
                    dataset=cell.dataset,
                    algorithm=cell.algorithm,
                    ordering=cell.ordering,
                    seed=cell.seed,
                    attempt=attempt,
                )
            try:
                with obs.profile(
                    "sweep.cell",
                    dataset=cell.dataset,
                    algorithm=cell.algorithm,
                    ordering=cell.ordering,
                    seed=cell.seed,
                    attempt=attempt,
                ):
                    return self._attempt(profile, cell, attempt), None
            except (KeyboardInterrupt, SystemExit):
                raise
            except CellTimeout as exc:
                obs.event(
                    "sweep.cell_timeout",
                    level="warning",
                    dataset=cell.dataset,
                    algorithm=cell.algorithm,
                    ordering=cell.ordering,
                    seed=cell.seed,
                    attempt=attempt,
                    timeout_s=self.guards.cell_timeout,
                )
                last = ("CellTimeout", str(exc), "", True)
            except Exception as exc:
                obs.event(
                    "sweep.cell_error",
                    level="warning",
                    dataset=cell.dataset,
                    algorithm=cell.algorithm,
                    ordering=cell.ordering,
                    seed=cell.seed,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                last = (
                    type(exc).__name__,
                    str(exc),
                    _traceback_tail(),
                    False,
                )
        assert last is not None
        error_type, message, tail, timed_out = last
        return None, CellFailure(
            dataset=cell.dataset,
            algorithm=cell.algorithm,
            ordering=cell.ordering,
            seed=cell.seed,
            error_type=error_type,
            message=message,
            traceback_tail=tail,
            attempts=attempts,
            elapsed_seconds=time.perf_counter() - started,
            timed_out=timed_out,
        )

    def _attempt(
        self, profile: Profile, cell: CellSpec, attempt: int
    ) -> RunResult:
        if self.guards.isolate:
            return self._attempt_isolated(profile, cell, attempt)
        if self.guards.cell_timeout is not None:
            return self._attempt_with_thread_timeout(
                profile, cell, attempt
            )
        return _execute_cell_body(
            profile, cell, attempt, self.plan, self.cache
        )

    def _attempt_with_thread_timeout(
        self, profile: Profile, cell: CellSpec, attempt: int
    ) -> RunResult:
        """Soft timeout: run in a worker thread, abandon on expiry.

        Python threads cannot be killed, so a timed-out cell's thread
        keeps running as a daemon until it finishes or the process
        exits — use ``isolate=True`` for a hard stop.  The abandoned
        attempt gets a private ordering cache so it cannot race the
        sweep's shared memo.
        """
        box: dict[str, object] = {}
        private_cache = OrderingCache()

        def target() -> None:
            try:
                box["result"] = _execute_cell_body(
                    profile, cell, attempt, self.plan, private_cache
                )
            except BaseException as exc:  # repro: noqa[REP003] —
                # transported to the sweep thread, which re-raises.
                box["error"] = exc

        worker = threading.Thread(
            target=target,
            name=f"sweep-cell-{cell.dataset}-{cell.algorithm}",
            daemon=True,
        )
        worker.start()
        worker.join(self.guards.cell_timeout)
        if worker.is_alive():
            raise CellTimeout(
                f"cell exceeded {self.guards.cell_timeout}s "
                "(thread abandoned; use isolate for a hard stop)"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]

    def _attempt_isolated(
        self, profile: Profile, cell: CellSpec, attempt: int
    ) -> RunResult:
        """Hard isolation: the attempt runs in a spawned subprocess.

        A crash (segfault, OOM-kill, ``os._exit``) surfaces as an
        ordinary cell failure; a timeout terminates the child.
        """
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=False)
        payload = {
            "profile": asdict(profile),
            "cell": asdict(cell),
            "attempt": attempt,
            "plan": self.plan.to_payload(),
        }
        process = context.Process(
            target=_isolated_cell_worker,
            args=(child_conn, payload),
            daemon=True,
        )
        process.start()
        child_conn.close()
        timeout = self.guards.cell_timeout
        try:
            if parent_conn.poll(timeout):
                message = parent_conn.recv()
            else:
                process.terminate()
                process.join(5)
                raise CellTimeout(
                    f"isolated cell exceeded {timeout}s; "
                    "subprocess terminated"
                )
        except EOFError:
            message = None
        finally:
            parent_conn.close()
        process.join(5)
        if message is None:
            raise SweepError(
                "isolated cell subprocess died without reporting "
                f"(exit code {process.exitcode})"
            )
        if message[0] == "ok":
            return result_from_dict(message[1])
        _status, error_type, text, tail = message
        exc_type = _rehydrate_exception_type(error_type)
        exc = exc_type(f"{text}\n[subprocess traceback]\n{tail}")
        raise exc


def _rehydrate_exception_type(name: str) -> type[Exception]:
    """Best-effort mapping of a child's exception name to a type."""
    import builtins

    from repro.perf import faults

    candidate = getattr(faults, name, None) or getattr(
        builtins, name, None
    )
    if (
        isinstance(candidate, type)
        and issubclass(candidate, Exception)
    ):
        return candidate
    return SweepError


# ----------------------------------------------------------------------
# Checkpoint status (the CLI `sweep status` view)
# ----------------------------------------------------------------------
@dataclass
class CheckpointStatus:
    """Summary of one checkpoint journal for human display."""

    path: str
    profile: str
    fingerprint: str
    total_cells: int
    ok: int
    failed: int
    failures: list[CellFailure]

    @property
    def pending(self) -> int:
        return max(0, self.total_cells - self.ok - self.failed)


def checkpoint_status(path: str | os.PathLike) -> CheckpointStatus:
    """Inspect a checkpoint journal without running anything."""
    state = SweepCheckpoint(path).load()
    header = state.header
    return CheckpointStatus(
        path=str(path),
        profile=header.get("profile", "?"),
        fingerprint=header.get("fingerprint", "?"),
        total_cells=int(header.get("total_cells", 0)),
        ok=len(state.results),
        failed=len(state.failures),
        failures=list(state.failures.values()),
    )
