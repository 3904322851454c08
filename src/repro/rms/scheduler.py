"""Common scheduling machinery shared by the SLURM-like and Maui-like RMs.

The scheduling loop itself is not the paper's contribution; what matters is
where Aequus plugs in.  Still, a credible loop is needed for the evaluation
to be meaningful, so the base scheduler provides:

* a pending queue ordered by (priority desc, submit time, job id),
* periodic scheduling passes and a periodic *re-prioritization* pass
  (delay source IV in Section IV-A.2),
* EASY backfill: the highest-priority blocked job gets a shadow
  reservation; lower-priority jobs may jump ahead only if they do not
  delay it (scan depth bounded, like SLURM's ``bf_max_job_test``),
* completion events that release resources and drive the job-completion
  plugins (the usage-reporting seam).

Performance notes (the evaluation runs 43,200-job traces): the sorted queue
is cached and only rebuilt after re-prioritization; submissions bisect into
the cached order; started jobs are removed lazily.  A scheduling pass on a
full cluster is O(1).
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import PeriodicTask, SimulationEngine
from .cluster import Cluster
from .job import Job, JobState

__all__ = ["BaseScheduler"]


def _queue_key(job: Job) -> Tuple[float, float, int]:
    return (-job.priority, job.submit_time, job.job_id)


class BaseScheduler:
    """Priority scheduler over a cluster, on the simulation engine."""

    def __init__(self, name: str, engine: SimulationEngine, cluster: Cluster,
                 sched_interval: float = 5.0,
                 reprioritize_interval: float = 30.0,
                 backfill: bool = True,
                 backfill_depth: int = 100,
                 start_offset: float = 0.0):
        if sched_interval <= 0 or reprioritize_interval <= 0:
            raise ValueError("intervals must be positive")
        self.name = name
        self.engine = engine
        self.cluster = cluster
        self.backfill = backfill
        self.backfill_depth = backfill_depth
        self._pending: Dict[int, Job] = {}
        self._queue: Optional[List[Tuple[Tuple[float, float, int], Job]]] = None
        self._head = 0  # consumed prefix of _queue (lazy compaction)
        self._running: Dict[int, Job] = {}
        self.completed: List[Job] = []
        self.jobs_submitted = 0
        self.jobs_started = 0
        self.jobs_completed = 0
        self.reprioritize_interval = reprioritize_interval
        self._sched_task: Optional[PeriodicTask] = engine.periodic(
            sched_interval, self.schedule_pass, start_offset=start_offset)
        self._prio_task: Optional[PeriodicTask] = engine.periodic(
            reprioritize_interval, self.reprioritize, start_offset=start_offset)
        self._completion_hooks: List[Callable[[Job, float], None]] = []

    # -- integration seam: subclasses decide how priority is computed -------

    def compute_priority(self, job: Job, now: float) -> float:
        raise NotImplementedError

    def on_job_completed(self, job: Job, now: float) -> None:
        """Subclass hook: drive completion plugins / call-outs."""

    def add_completion_hook(self, hook: Callable[[Job, float], None]) -> None:
        """External observers (metrics, grid bookkeeping)."""
        self._completion_hooks.append(hook)

    # -- submission -----------------------------------------------------------

    @property
    def pending(self) -> List[Job]:
        return list(self._pending.values())

    @property
    def running(self) -> List[Job]:
        return list(self._running.values())

    def submit(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            raise ValueError(f"cannot submit job in state {job.state}")
        if job.cores > self.cluster.total_cores:
            raise ValueError(
                f"job {job.job_id} needs {job.cores} cores; cluster has "
                f"{self.cluster.total_cores}")
        if job.submit_time is None:
            job.submit_time = self.engine.now
        job.priority = self.compute_priority(job, self.engine.now)
        self._pending[job.job_id] = job
        if self._queue is not None:
            # only the live region [head:] is ordered; the consumed prefix
            # is garbage awaiting compaction
            insort(self._queue, (_queue_key(job), job), lo=self._head)
        self.jobs_submitted += 1

    def cancel(self, job: Job) -> None:
        if job.job_id in self._pending:
            del self._pending[job.job_id]
            job.mark_cancelled()  # lazy removal purges it from the queue

    # -- the periodic passes ----------------------------------------------

    def reprioritize(self) -> None:
        now = self.engine.now
        for job in self._pending.values():
            job.priority = self.compute_priority(job, now)
        self._queue = None  # order changed wholesale: rebuild lazily

    def _ensure_queue(self) -> List[Tuple[Tuple[float, float, int], Job]]:
        if self._queue is None:
            self._queue = sorted(
                ((_queue_key(j), j) for j in self._pending.values()),
                key=lambda kv: kv[0])
            self._head = 0
        return self._queue

    def schedule_pass(self) -> None:
        """Start as many jobs as priorities and resources allow.

        The sorted queue is consumed from a head pointer; started or
        cancelled entries behind it are skipped lazily and compacted in
        bulk, so a pass on a full cluster or with an untouched backlog is
        O(1) instead of O(queue).
        """
        if not self._pending or self.cluster.free_cores == 0:
            return
        now = self.engine.now
        queue = self._ensure_queue()
        shadow: Optional[Tuple[float, int]] = None  # (shadow time, spare cores)
        scanned_blocked = 0
        i = self._head
        while i < len(queue):
            job = queue[i][1]
            if job.job_id not in self._pending:
                # lazily dropped (started earlier / cancelled)
                if i == self._head:
                    self._head += 1
                i += 1
                continue
            if self.cluster.free_cores == 0 and shadow is None:
                break
            if self.cluster.fits(job.cores):
                if shadow is not None:
                    shadow_time, spare = shadow
                    # EASY: don't delay the reserved job — backfill only if
                    # we finish before its shadow time or leave it enough
                    # spare cores.
                    if not (now + job.duration <= shadow_time or job.cores <= spare):
                        i += 1
                        continue
                    if job.cores <= spare:
                        shadow = (shadow_time, spare - job.cores)
                self._start(job, now)
                if i == self._head:
                    self._head += 1
                i += 1
            else:
                if shadow is None:
                    if not self.backfill:
                        break
                    shadow = self._shadow_for(job, now)
                    i += 1
                else:
                    scanned_blocked += 1
                    if scanned_blocked >= self.backfill_depth:
                        break
                    i += 1
        if self._head > 64 and self._head * 2 > len(queue):
            del queue[:self._head]
            self._head = 0

    def _shadow_for(self, job: Job, now: float) -> Tuple[float, int]:
        """Earliest time ``job`` could start, and the cores spare then."""
        free = self.cluster.free_cores
        releases = sorted((j.end_time, j.cores) for j in self._running.values()
                          if j.end_time is not None)
        shadow_time = now
        for end, cores in releases:
            if free >= job.cores:
                break
            free += cores
            shadow_time = end
        return shadow_time, max(0, free - job.cores)

    # -- start / completion ----------------------------------------------

    def _start(self, job: Job, now: float) -> None:
        self.cluster.allocate(job, now)
        job.mark_started(now)
        del self._pending[job.job_id]
        self._running[job.job_id] = job
        self.jobs_started += 1
        self.engine.schedule_at(job.end_time, lambda: self._complete(job))

    def _complete(self, job: Job) -> None:
        now = self.engine.now
        self.cluster.release(job, now)
        job.mark_completed(now)
        del self._running[job.job_id]
        self.completed.append(job)
        self.jobs_completed += 1
        self.on_job_completed(job, now)
        for hook in self._completion_hooks:
            hook(job, now)
        # a slot opened: try to start something immediately
        self.schedule_pass()

    # -- introspection -----------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    def utilization(self, now: Optional[float] = None) -> float:
        return self.cluster.utilization(now if now is not None else self.engine.now)

    def stop(self) -> None:
        if self._sched_task is not None:
            self._sched_task.cancel()
            self._sched_task = None
        if self._prio_task is not None:
            self._prio_task.cancel()
            self._prio_task = None
