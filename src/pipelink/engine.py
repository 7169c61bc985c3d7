"""Discrete-event pipeline execution core.

Single-threaded event loop over an integer-nanosecond virtual clock: requests
arrive, the head batches them into micro-batches under the controller's
per-iteration decision, stages compute via latency profiles, activations and
token feedback move over serial chunked links, and tokens are emitted when
feedback reaches the head.

Event ties at one timestamp resolve in a frozen order (payload deliveries,
then compute completions, then arrivals, then iteration boundaries, then
chunk completions), then by subject id, so runs are bit-reproducible.  An
iteration boundary is a deferred step, not a heap entry: it is due at the
current time and runs once the heap holds nothing that sorts before it.

Every run logs through a sink, a :class:`pipelink.outputs.LogSink`, which a
run given none makes for itself.  The engine's log rows are plain tuples,
``(time, kind, subject, stage)``.  ``kind`` is the name of an
:class:`EventKind` member, spelled here; ``stage`` is -1 when the row is not
stage-scoped; the link rows are described in :mod:`pipelink.transport`.  The
time slot of every row holds the sink's ``stamp`` of the current tick, the
CSV text of the time, computed once per distinct time right after the heap
pop; the sink's clock refuses a tick that goes back.

Rows are appended to two lists, one per log.  After an iteration boundary
that dispatched, once the two lists hold ``LOG_BLOCK_ROWS`` rows or more,
the run hands each list to its log's ``take``, which writes it as CSV text
to the log's temporary file, and empties it, and hands over the rest when it
ends; so the blocks arrive in log order, and a run holds a block of rows in
memory at most.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .controller import ControllerConfig, ControllerDecision, choose_n, clamp_demand
from .errors import ConfigError
from .outputs import HeldLog, LogSink
from .placement import ClusterSpec, ModelSpec, PartitionPlan
from .profiles import LinkProfile, Phase, StageProfile, compute_time
from .transport import (
    DEFAULT_CHUNK_SIZE,
    LinkPolicy,
    LinkRow,
    NS_PER_S,
    Payload,
    VirtualLink,
    _new,
    activation_bytes,
    feedback_bytes,
    s_to_ns,
)
from .workload import Request, RequestState, Trace

# Rows a run holds before it hands them over to its sink.
LOG_BLOCK_ROWS = 4096


class EventKind(enum.IntEnum):
    """Heap tie order at equal timestamps; values are frozen."""

    PAYLOAD_DELIVERED = 0
    COMPUTE_DONE = 1
    ARRIVAL = 2
    ITERATION_BOUNDARY = 3
    CHUNK_SENT = 4


@dataclass(frozen=True)
class MicroBatch:
    id: int
    request_ids: tuple[int, ...]
    phase: Phase
    batched_tokens: int

    def __post_init__(self) -> None:
        if not self.request_ids:
            raise ConfigError(f"micro-batch {self.id} has no requests")


@dataclass(frozen=True)
class EngineConfig:
    partition: PartitionPlan
    model: ModelSpec
    controller: ControllerConfig
    chunk_size: int | None = DEFAULT_CHUNK_SIZE
    scheduling_policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY


EngineRow = tuple[str, str, int, int]  # (time stamp, kind name, subject, stage)


@dataclass
class RunResult:
    """Everything a run produced; times other than the logs' are in ns.

    ``events`` and ``link_events`` are the sink's two :class:`HeldLog` logs,
    which hold every row the run logged, in log order, as CSV text in a
    temporary file, not in memory, and are what the log writers write;
    ``len()`` of either is its row count.
    """

    requests: list[Request]
    events: HeldLog
    link_events: HeldLog
    decisions: list[ControllerDecision]  # one per iteration
    stage_busy_ns: list[list[tuple[int, int]]]
    end_ns: int
    all_finished: bool

    def tokens_by_request(self) -> dict[int, int]:
        return {r.id: r.tokens_emitted for r in self.requests}


_START, _END = itemgetter(0), itemgetter(1)  # of a busy interval


def measure_bubble(result: RunResult, stage_id: int, t0: int, t1: int) -> float:
    """Idle fraction of a stage within [t0, t1) ns: 1 means fully idle."""
    if t1 <= t0:
        raise ConfigError("empty measurement window")
    if t0 < 0 or t1 > result.end_ns:
        raise ConfigError(f"window [{t0}, {t1}] ns outside run span [0, {result.end_ns}] ns")
    if not 0 <= stage_id < len(result.stage_busy_ns):
        raise ConfigError(f"unknown stage {stage_id}")
    # A stage's intervals are sorted and disjoint: those in [lo, hi) meet the
    # window, and only the first and the last can stick out of it.
    intervals = result.stage_busy_ns[stage_id]
    lo = bisect_right(intervals, t0, key=_END)
    hi = bisect_left(intervals, t1, lo, key=_START)
    if lo == hi:
        return 1.0
    inside = intervals[lo:hi]
    busy = (sum(map(_END, inside)) - sum(map(_START, inside))
            - max(0, t0 - inside[0][0]) - max(0, inside[-1][1] - t1))
    return 1.0 - busy / (t1 - t0)


@dataclass
class _Bin:
    tokens: int = 0
    members: list[Request] = field(default_factory=list)


def admit_and_batch(
    decoding: deque[Request],
    queued: deque[Request],
    decision: ControllerDecision,
    max_batch_size: int,
    capacity: int,
    id_start: int = 0,
) -> list[MicroBatch]:
    """Continuous batching step: fill up to ``capacity`` micro-batches.

    Ready decoding requests go first (one token each), then queued prefills
    strictly FCFS, each into the lightest-loaded compatible micro-batch under
    the token budget and batch-size caps.  A micro-batch is all prefill or
    all decode.  A prefill whose input alone exceeds the budget is
    admitted solo into an empty micro-batch rather than blocking forever.
    Admitted requests are consumed from the input queues.
    """
    budget = decision.token_budget_per_microbatch
    if capacity < 1:
        return []
    # A decode adds one token and a decode micro-batch only grows, so the
    # lightest one with room is always the last opened: decodes fill fresh
    # micro-batches in turn, k at a time (a fresh one takes the first decode
    # whatever the budget).
    k = max(1, min(budget, max_batch_size))
    ids = [decoding.popleft().id for _ in range(min(len(decoding), capacity * k))]
    groups = [tuple(ids[i:i + k]) for i in range(0, len(ids), k)]
    batches = [MicroBatch(id_start + j, g, Phase.DECODE, len(g)) for j, g in enumerate(groups)]

    bins: list[_Bin] = []  # prefill micro-batches, in the order they opened
    free = capacity - len(batches)
    while queued:
        request = queued[0]
        tokens = request.input_len
        fits = [b for b in bins
                if b.tokens + tokens <= budget and len(b.members) < max_batch_size]
        if fits:
            b = min(fits, key=attrgetter("tokens"))  # the first of the lightest
        elif len(bins) < free:
            # A fresh micro-batch takes any prefill, including one whose
            # input alone exceeds the budget (oversize-admit: solo rather
            # than stuck forever, since compute is never split).
            b = _Bin()
            bins.append(b)
        else:
            break  # strict FCFS: nothing behind this request is considered
        b.members.append(queued.popleft())
        b.tokens += tokens

    id_start += len(batches)
    batches.extend(
        MicroBatch(id_start + i, tuple(r.id for r in b.members), Phase.PREFILL, b.tokens)
        for i, b in enumerate(bins)
    )
    return batches


def ring_links(partition: PartitionPlan, cluster: ClusterSpec) -> list[LinkProfile]:
    """The links a plan runs over: each stage to the next, then last to head."""
    names = partition.node_names()
    for name in names:
        if name not in cluster.nodes:
            raise ConfigError(f"plan references unregistered node {name}")
    links: list[LinkProfile] = []
    if len(names) >= 2:
        for src, dst in list(zip(names, names[1:])) + [(names[-1], names[0])]:
            link = cluster.link(src, dst)
            if link is None:
                raise ConfigError(f"cluster is missing required link {src}->{dst}")
            links.append(link)
    return links


class HeadScheduler:
    """Head-side scheduling with no clock of its own.

    Owns the request state machine (on fresh copies of the requests), the
    pending and ready queues, the in-flight micro-batches and the decision
    memo.  The caller hands arrivals to ``arrive`` and supplies the time.
    """

    def __init__(
        self,
        cfg: EngineConfig,
        stage_profiles: list[StageProfile],
        link_profiles: list[LinkProfile],
        requests: list[Request],
    ):
        self.cfg = cfg
        self.stage_profiles = stage_profiles
        self.link_profiles = link_profiles
        self.bytes_per_token = cfg.model.bytes_per_token
        self.requests: dict[int, Request] = {}  # in trace order
        for r in requests:
            if r.id in self.requests:
                raise ConfigError(f"duplicate request id {r.id} in trace")
            self.requests[r.id] = r.fresh_copy()
        self.unfinished = len(self.requests)
        self.pending: deque[Request] = deque()
        self.ready: deque[Request] = deque()
        self.in_flight: dict[int, MicroBatch] = {}
        self.demand = 0  # len(ready) + in-flight batched tokens + pending input tokens
        self.decisions: list[ControllerDecision] = []  # one per iteration
        self._next_mb_id = 0
        # Keyed by (clamped demand, decoding?): a Phase key would hash in Python.
        self._memo: dict[tuple[int, bool], ControllerDecision] = {}

    def _decide(self) -> ControllerDecision:
        ctrl = self.cfg.controller
        if self.decisions and len(self.decisions) % ctrl.decision_stride:
            return self.decisions[-1]
        key = (clamp_demand(ctrl, self.demand), bool(self.ready))
        decision = self._memo.get(key)
        if decision is None:
            decision = self._memo[key] = choose_n(
                ctrl,
                self.stage_profiles,
                self.link_profiles,
                key[0],
                Phase.DECODE if key[1] else Phase.PREFILL,
                bytes_per_token=self.bytes_per_token,
            )
        return decision

    def arrive(self, req: Request) -> None:
        """Queue an arrived request.  Dispatch only moves tokens between the
        three parts of ``demand``, so arrivals and feedback alone change it."""
        self.pending.append(req)
        self.demand += req.input_len

    def dispatch(self) -> list[MicroBatch]:
        """Start the next iteration's micro-batches, or return none."""
        if not self.ready and not self.pending:
            return []
        decision = self._decide()
        capacity = decision.n_microbatches - len(self.in_flight)
        if capacity <= 0:
            return []
        batches = admit_and_batch(
            self.ready,
            self.pending,
            decision,
            self.cfg.controller.max_batch_size,
            capacity,
            id_start=self._next_mb_id,
        )
        self.decisions.append(decision)
        self._next_mb_id += len(batches)
        for mb in batches:
            self.in_flight[mb.id] = mb
            for rid in mb.request_ids:
                req = self.requests[rid]
                if req.state is RequestState.QUEUED:
                    req.state = RequestState.PREFILL
        return batches

    def feedback(self, mb: MicroBatch, now_ns: int) -> None:
        """Emit one token for each request of ``mb``, which reached the head."""
        del self.in_flight[mb.id]
        self.demand -= mb.batched_tokens
        now_s = now_ns / NS_PER_S
        for rid in mb.request_ids:
            req = self.requests[rid]
            req.tokens_emitted += 1
            if req.state is RequestState.PREFILL:
                req.first_token_time = now_s
                req.state = RequestState.DECODING
            if req.tokens_emitted >= req.output_len:
                req.state = RequestState.FINISHED
                req.finish_time = now_s
                self.unfinished -= 1
            else:
                self.ready.append(req)
                self.demand += 1


class _StageRuntime:
    def __init__(self, idx: int, profile: StageProfile):
        self.idx = idx
        self.profile = profile
        self.queue: deque[MicroBatch] = deque()
        self.busy_intervals: list[tuple[int, int]] = []
        self.current_start = 0
        self.current: MicroBatch | None = None
        # (decode?, tokens) -> ns: a Phase key would hash in Python.
        self.compute_ns: dict[tuple[bool, int], int] = {}


# Module names: attribute access on an enum class is slow per event.
_DECODE = Phase.DECODE
_DELIVERED, _COMPUTE_DONE = EventKind.PAYLOAD_DELIVERED, EventKind.COMPUTE_DONE
_ARRIVAL, _BOUNDARY, _SENT = EventKind.ARRIVAL, EventKind.ITERATION_BOUNDARY, EventKind.CHUNK_SENT
# What a log row holds for a kind: its name.
_DELIVERED_ROW, _COMPUTE_DONE_ROW = _DELIVERED.name, _COMPUTE_DONE.name
_ARRIVAL_ROW, _BOUNDARY_ROW = _ARRIVAL.name, _BOUNDARY.name


class PipelineEngine:
    """Virtual-time pipeline over a partition plan, cluster links and profiles."""

    def __init__(
        self,
        cfg: EngineConfig,
        cluster: ClusterSpec,
        stage_profiles: list[StageProfile],
    ):
        num_stages = len(cfg.partition.stages)
        if len(stage_profiles) != num_stages:
            raise ConfigError(
                f"{num_stages} stages in plan but {len(stage_profiles)} profiles"
            )
        self.cfg = cfg
        self.stage_profiles = list(stage_profiles)
        self.link_profiles = ring_links(cfg.partition, cluster)

    # -- run state ---------------------------------------------------------

    def _reset(self, requests: list[Request], sink: LogSink) -> None:
        self._sched = HeadScheduler(
            self.cfg, self.stage_profiles, self.link_profiles, requests
        )
        self._stages = [_StageRuntime(i, p) for i, p in enumerate(self.stage_profiles)]
        self._link_events: list[LinkRow] = []
        self._links = [
            VirtualLink(lp, self.cfg.chunk_size, self.cfg.scheduling_policy,
                        self._link_events, sink.quote(lp.name))
            for lp in self.link_profiles
        ]
        self._payload_mb: dict[int, MicroBatch] = {}  # payload ids are unique per run
        # (time_ns, kind, subject, seq, data): seq keeps data out of comparisons.
        self._heap: list[tuple[int, EventKind, int, int, object]] = []
        self._seq = itertools.count()
        self._boundary_due = False  # an iteration boundary at the current time
        self._events: list[EngineRow] = []
        self._next_payload_id = 0

    def _hand_over(self) -> None:
        """Hand both logs' rows to the sink and start new blocks."""
        self._sink.events.take(self._events)
        self._sink.link_events.take(self._link_events)
        self._events.clear()
        self._link_events.clear()

    # -- stage mechanics ---------------------------------------------------

    def _start_compute(self, stage: _StageRuntime, now: int) -> None:
        """Start the next micro-batch of an idle stage whose queue is not empty."""
        mb = stage.queue.popleft()
        stage.current = mb
        stage.current_start = now
        key = (mb.phase is _DECODE, mb.batched_tokens)
        if (c_ns := stage.compute_ns.get(key)) is None:  # misses call engine.compute_time
            c_ns = stage.compute_ns[key] = max(
                1, s_to_ns(compute_time(stage.profile, mb.phase, mb.batched_tokens)))
        heapq.heappush(self._heap, (now + c_ns, _COMPUTE_DONE, mb.id, next(self._seq),
                                    stage.idx))

    def _on_compute_done(self, stage_idx: int, mb_id: int, now: int, stamp) -> None:
        stage = self._stages[stage_idx]
        mb = stage.current
        assert mb is not None and mb.id == mb_id
        stage.busy_intervals.append((stage.current_start, now))
        stage.current = None
        self._events.append((stamp, _COMPUTE_DONE_ROW, mb_id, stage_idx))

        if links := self._links:  # send the activations on, or the last stage's tokens back
            if stage_idx < len(links) - 1:
                phase = mb.phase
                size = activation_bytes(mb.batched_tokens, self._sched.bytes_per_token)
            else:
                phase, size = _DECODE, feedback_bytes(len(mb.request_ids))
            payload_id = self._next_payload_id
            self._next_payload_id = payload_id + 1
            self._payload_mb[payload_id] = mb
            started = links[stage_idx].offer(_new(Payload, (payload_id, phase, size)), now, stamp)
            if started is not None:  # the link was idle: schedule the chunk's end
                end, chunk = started
                heapq.heappush(self._heap, (end, _SENT, chunk.payload_id, next(self._seq),
                                            (stage_idx, chunk)))
        else:
            # Single-stage pipeline: tokens surface at compute completion.
            self._sched.feedback(mb, now)
            self._boundary_due = True

        if stage.queue:
            self._start_compute(stage, now)
        if stage_idx == 0:
            self._boundary_due = True

    # -- head scheduling ---------------------------------------------------

    def _on_boundary(self, now: int, stamp) -> None:
        head = self._stages[0]
        if head.current is not None or head.queue:
            return
        batches = self._sched.dispatch()
        if not batches:
            return
        self._events.append((stamp, _BOUNDARY_ROW, len(self._sched.decisions), 0))
        head.queue.extend(batches)
        self._start_compute(head, now)
        # Every row so far is at or before now, and every later one at or after.
        if len(self._events) + len(self._link_events) >= LOG_BLOCK_ROWS:
            self._hand_over()

    # -- event loop --------------------------------------------------------

    def run(self, trace: Trace, horizon_s: float | None = None,
            sink: LogSink | None = None) -> RunResult:
        """Process the trace to completion (or up to ``horizon_s``).

        Deterministic for a fixed config: identical inputs produce identical
        event logs, reports, and per-request timelines.  The ``sink``, a fresh
        :class:`LogSink` if none is given, takes the logs (see the module docstring).
        """
        self._sink = sink = sink or LogSink()
        self._reset(trace.requests, sink)
        heap, seq = self._heap, self._seq
        push, pop = heapq.heappush, heapq.heappop
        for req in self._sched.requests.values():
            arrival_ns = s_to_ns(req.arrival_time)
            req.arrival_time = arrival_ns / NS_PER_S  # snap to the virtual clock
            push(heap, (arrival_ns, _ARRIVAL, req.id, next(seq), None))
        horizon_ns = None if horizon_s is None else s_to_ns(horizon_s)

        now, tick, clock = 0, None, sink.stamp  # the current time, the last tick, its stamper
        sched, links, stages = self._sched, self._links, self._stages
        log = self._events.append
        arrival, compute_done, sent, delivered = _ARRIVAL, _COMPUTE_DONE, _SENT, _DELIVERED
        while True:
            # A due boundary runs once nothing left sorts before (now,
            # ITERATION_BOUNDARY).  It pushes only compute completions at least
            # 1 ns ahead, so nothing that sorts before it can appear after it.
            if self._boundary_due and (not heap or heap[0][0] > now or heap[0][1] is sent):
                self._boundary_due = False
                self._on_boundary(now, stamp)
            if not heap:
                break
            if horizon_ns is not None and heap[0][0] > horizon_ns:
                now = horizon_ns
                break
            now, kind, subject, _, data = pop(heap)  # the heap pops in time order
            if now != tick:
                tick, stamp = now, clock(now)
            if kind is sent:
                link_idx, chunk = data
                link = links[link_idx]
                started = link.sent(chunk, now, stamp)
                push(heap, (now + link.latency_ns, delivered, subject, next(seq), data))
                if started is not None:
                    end, chunk = started
                    push(heap, (end, sent, chunk.payload_id, next(seq), (link_idx, chunk)))
            elif kind is arrival:
                sched.arrive(sched.requests[subject])
                log((stamp, _ARRIVAL_ROW, subject, -1))
                self._boundary_due = True
            elif kind is compute_done:
                self._on_compute_done(data, subject, now, stamp)  # data = stage idx
            else:  # PAYLOAD_DELIVERED
                link_idx, chunk = data
                links[link_idx].deliver(chunk, stamp)
                if not chunk.is_last:
                    continue
                mb = self._payload_mb.pop(subject)
                dst_idx = (link_idx + 1) % len(stages)
                log((stamp, _DELIVERED_ROW, subject, dst_idx))
                if dst_idx == 0:
                    sched.feedback(mb, now)
                    self._boundary_due = True
                else:
                    dst = stages[dst_idx]
                    dst.queue.append(mb)
                    if dst.current is None:
                        self._start_compute(dst, now)

        # Close busy intervals cut off by the horizon.
        for stage in self._stages:
            if stage.current is not None:
                stage.busy_intervals.append((stage.current_start, now))

        self._hand_over()
        return RunResult(
            requests=[sched.requests[rid] for rid in sorted(sched.requests)],
            events=sink.events,
            # Every link event is logged at the current virtual time, so the
            # log is already in time order.
            link_events=sink.link_events,
            decisions=sched.decisions,
            stage_busy_ns=[s.busy_intervals for s in self._stages],
            end_ns=now,
            all_finished=sched.unfinished == 0,
        )
