"""Discrete-event pipeline execution core.

Single-threaded event loop over an integer-nanosecond virtual clock: requests
arrive, the head batches them into micro-batches under the controller's
per-iteration decision, stages compute via latency profiles, activations and
token feedback move over serial chunked links, and tokens are emitted when
feedback reaches the head.

Event ties at one timestamp resolve in a frozen order (payload deliveries,
then compute completions, then arrivals, then iteration boundaries, then
chunk completions), then by subject id, so runs are bit-reproducible.
"""

from __future__ import annotations

import csv
import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .controller import ControllerConfig, ControllerDecision, choose_n, clamp_demand
from .errors import ConfigError
from .placement import TOKEN_FEEDBACK_BYTES, ClusterSpec, ModelSpec, PartitionPlan
from .profiles import LinkProfile, Phase, StageProfile, compute_time
from .transport import (
    DEFAULT_CHUNK_SIZE,
    LinkEvent,
    LinkPolicy,
    LinkQueue,
    NS_PER_S,
    Payload,
    PayloadClass,
    s_to_ns,
    transmission_ns,
)
from .workload import Request, RequestState, Trace


class EventKind(enum.IntEnum):
    """Heap tie order at equal timestamps; values are frozen."""

    PAYLOAD_DELIVERED = 0
    COMPUTE_DONE = 1
    ARRIVAL = 2
    ITERATION_BOUNDARY = 3
    CHUNK_SENT = 4


class BatchPhase(enum.Enum):
    PREFILL = "prefill"
    DECODE = "decode"
    MIXED = "mixed"


@dataclass(frozen=True)
class MicroBatch:
    id: int
    request_ids: tuple[int, ...]
    phase: BatchPhase
    batched_tokens: int
    created_at: float  # seconds

    def __post_init__(self) -> None:
        if not self.request_ids:
            raise ConfigError(f"micro-batch {self.id} has no requests")

    @property
    def payload_class(self) -> PayloadClass:
        decode = self.phase is BatchPhase.DECODE
        return PayloadClass.DECODE if decode else PayloadClass.PREFILL


@dataclass(frozen=True)
class EngineConfig:
    partition: PartitionPlan
    model: ModelSpec
    controller: ControllerConfig
    chunk_size: int | None = DEFAULT_CHUNK_SIZE
    scheduling_policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY
    allow_mixed_phase: bool = False


class EngineEvent(NamedTuple):
    time_ns: int
    kind: EventKind
    subject: int
    stage: int  # -1 when not stage-scoped


EVENT_LOG_HEADER = ("time_s", "kind", "subject", "stage")


def write_event_log(events: list[EngineEvent], path: str | Path) -> None:
    names = {kind: kind.name for kind in EventKind}
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", names[kind], subject, stage)
            for time_ns, kind, subject, stage in events
        )


@dataclass
class RunResult:
    """Everything a run produced, at nanosecond precision for exact checks."""

    requests: list[Request]
    events: list[EngineEvent]
    link_events: list[LinkEvent]
    decisions: list[tuple[int, ControllerDecision]]
    stage_busy_ns: list[list[tuple[int, int]]]
    token_emissions: list[tuple[int, int]]  # (time_ns, request_id)
    first_compute_ns: dict[int, int]
    end_ns: int
    all_finished: bool

    def tokens_by_request(self) -> dict[int, int]:
        return {r.id: r.tokens_emitted for r in self.requests}

    def tokens_in_window(self, t0_s: float, t1_s: float) -> int:
        t0, t1 = s_to_ns(t0_s), s_to_ns(t1_s)
        return sum(1 for t, _ in self.token_emissions if t0 <= t < t1)


def measure_bubble(result: RunResult, stage_id: int, t0_s: float, t1_s: float) -> float:
    """Idle fraction of a stage within [t0, t1): 1 means fully idle."""
    t0, t1 = s_to_ns(t0_s), s_to_ns(t1_s)
    if t1 <= t0:
        raise ConfigError("empty measurement window")
    if t0 < 0 or t1 > result.end_ns:
        raise ConfigError(
            f"window [{t0_s}, {t1_s}] outside run span [0, {result.end_ns / NS_PER_S}]"
        )
    if not 0 <= stage_id < len(result.stage_busy_ns):
        raise ConfigError(f"unknown stage {stage_id}")
    busy = 0
    for s, e in result.stage_busy_ns[stage_id]:
        busy += max(0, min(e, t1) - max(s, t0))
    return 1.0 - busy / (t1 - t0)


@dataclass
class _Bin:
    index: int
    tokens: int = 0
    members: list[Request] = field(default_factory=list)
    phase: BatchPhase | None = None


def admit_and_batch(
    decoding: deque[Request],
    queued: deque[Request],
    decision: ControllerDecision,
    max_batch_size: int,
    capacity: int,
    now_s: float,
    allow_mixed: bool = False,
    id_start: int = 0,
) -> list[MicroBatch]:
    """Continuous batching step: fill up to ``capacity`` micro-batches.

    Ready decoding requests go first (one token each), then queued prefills
    strictly FCFS, each into the lightest-loaded compatible micro-batch under
    the token budget and batch-size caps.  Phases stay separate unless
    ``allow_mixed``.  A prefill whose input alone exceeds the budget is
    admitted solo into an empty micro-batch rather than blocking forever.
    Admitted requests are consumed from the input queues.
    """
    budget = decision.token_budget_per_microbatch
    if capacity < 1:
        return []
    bins: list[_Bin] = []

    def compatible(b: _Bin, phase: BatchPhase) -> bool:
        return b.phase is None or b.phase is phase or allow_mixed

    def lightest(phase: BatchPhase, extra_tokens: int) -> _Bin | None:
        fits = [
            b
            for b in bins
            if compatible(b, phase)
            and b.tokens + extra_tokens <= budget
            and len(b.members) < max_batch_size
        ]
        return min(fits, key=lambda b: (b.tokens, b.index)) if fits else None

    def place(b: _Bin, request: Request, tokens: int, phase: BatchPhase) -> None:
        b.members.append(request)
        b.tokens += tokens
        if b.phase is None:
            b.phase = phase
        elif b.phase is not phase:
            b.phase = BatchPhase.MIXED

    def open_bin() -> _Bin | None:
        if len(bins) >= capacity:
            return None
        b = _Bin(index=len(bins))
        bins.append(b)
        return b

    while decoding:
        b = lightest(BatchPhase.DECODE, 1) or open_bin()
        if b is None:
            break
        place(b, decoding.popleft(), 1, BatchPhase.DECODE)

    while queued:
        request = queued[0]
        b = lightest(BatchPhase.PREFILL, request.input_len)
        if b is None:
            # A fresh micro-batch takes any prefill, including one whose
            # input alone exceeds the budget (oversize-admit: solo rather
            # than stuck forever, since compute is never split).
            b = open_bin()
        if b is None:
            break  # strict FCFS: nothing behind this request is considered
        place(b, queued.popleft(), request.input_len, BatchPhase.PREFILL)

    batches = []
    for b in bins:
        if not b.members:
            continue
        batches.append(
            MicroBatch(
                id=id_start + len(batches),
                request_ids=tuple(r.id for r in b.members),
                phase=b.phase or BatchPhase.DECODE,
                batched_tokens=b.tokens,
                created_at=now_s,
            )
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
    memo.  The caller appends arrivals to ``pending`` and supplies the time.
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
        self.bytes_per_token = cfg.model.hidden_dim * cfg.model.dtype_bytes
        self.requests: dict[int, Request] = {}  # in trace order
        for r in requests:
            if r.id in self.requests:
                raise ConfigError(f"duplicate request id {r.id} in trace")
            self.requests[r.id] = r.fresh_copy()
        self.unfinished = len(self.requests)
        self.pending: deque[Request] = deque()
        self.ready: deque[Request] = deque()
        self.in_flight: dict[int, MicroBatch] = {}
        self.decisions: list[tuple[int, ControllerDecision]] = []
        self.token_emissions: list[tuple[int, int]] = []  # (time_ns, request_id)
        self.iteration = 0
        self._next_mb_id = 0
        self._last_decision: ControllerDecision | None = None
        self._memo: dict[tuple[int, Phase], ControllerDecision] = {}

    def _decide(self) -> ControllerDecision:
        ctrl = self.cfg.controller
        if self._last_decision is not None and self.iteration % ctrl.decision_stride:
            return self._last_decision
        demand = len(self.ready)
        demand += sum(mb.batched_tokens for mb in self.in_flight.values())
        demand += sum(r.input_len for r in self.pending)
        phase = Phase.DECODE if self.ready else Phase.PREFILL
        key = (clamp_demand(ctrl, demand), phase)
        decision = self._memo.get(key)
        if decision is None:
            decision = self._memo[key] = choose_n(
                ctrl,
                self.stage_profiles,
                self.link_profiles,
                key[0],
                phase,
                bytes_per_token=self.bytes_per_token,
            )
        return decision

    def dispatch(self, now_ns: int) -> list[MicroBatch]:
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
            now_ns / NS_PER_S,
            allow_mixed=self.cfg.allow_mixed_phase,
            id_start=self._next_mb_id,
        )
        self.iteration += 1
        self._last_decision = decision
        self.decisions.append((self.iteration, decision))
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
        now_s = now_ns / NS_PER_S
        for rid in mb.request_ids:
            req = self.requests[rid]
            req.tokens_emitted += 1
            self.token_emissions.append((now_ns, rid))
            if req.state is RequestState.PREFILL:
                req.first_token_time = now_s
                req.state = RequestState.DECODING
            if req.tokens_emitted >= req.output_len:
                req.state = RequestState.FINISHED
                req.finish_time = now_s
                self.unfinished -= 1
            else:
                self.ready.append(req)


class _StageRuntime:
    def __init__(self, idx: int, profile: StageProfile):
        self.idx = idx
        self.profile = profile
        self.busy = False
        self.queue: deque[MicroBatch] = deque()
        self.busy_intervals: list[tuple[int, int]] = []
        self.current_start = 0
        self.current: MicroBatch | None = None


class _LinkRuntime:
    def __init__(self, idx: int, profile: LinkProfile, chunk_size, policy: LinkPolicy,
                 dst_stage: int, is_return: bool):
        self.idx = idx
        self.profile = profile
        self.name = profile.name
        self.latency_ns = s_to_ns(profile.latency_s)
        self.queue = LinkQueue(chunk_size=chunk_size, policy=policy)
        self.busy = False
        self.dst_stage = dst_stage
        self.is_return = is_return
        self.payload_mb: dict[int, MicroBatch] = {}


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

    def _reset(self, requests: list[Request]) -> None:
        self._sched = HeadScheduler(
            self.cfg, self.stage_profiles, self.link_profiles, requests
        )
        self._stages = [_StageRuntime(i, p) for i, p in enumerate(self.stage_profiles)]
        self._links: list[_LinkRuntime] = []
        for i, lp in enumerate(self.link_profiles):
            is_return = i == len(self.link_profiles) - 1
            dst = 0 if is_return else i + 1
            self._links.append(_LinkRuntime(
                i, lp, self.cfg.chunk_size, self.cfg.scheduling_policy, dst, is_return
            ))
        self._heap: list[tuple[int, int, int, int, object]] = []
        self._seq = 0
        self._boundary_times: set[int] = set()
        self._events: list[EngineEvent] = []
        self._link_events: list[LinkEvent] = []
        self._first_compute_ns: dict[int, int] = {}
        self._next_payload_id = 0

    def _push(self, time_ns: int, kind: EventKind, subject: int, data: object = None) -> None:
        heapq.heappush(self._heap, (time_ns, kind, subject, self._seq, data))
        self._seq += 1

    def _log(self, time_ns: int, kind: EventKind, subject: int, stage: int = -1) -> None:
        self._events.append(EngineEvent(time_ns, kind, subject, stage))

    def _log_link(self, link: _LinkRuntime, time_ns: int, payload_id: int,
                  chunk_index: int, size: int, pclass: PayloadClass, event: str) -> None:
        self._link_events.append(
            LinkEvent(time_ns, link.name, payload_id, chunk_index, size, pclass, event)
        )

    # -- link mechanics ----------------------------------------------------

    def _link_emit_next(self, link: _LinkRuntime, now: int) -> None:
        chunk = link.queue.next_chunk()
        if chunk is None:
            link.busy = False
            return
        link.busy = True
        self._log_link(link, now, chunk.payload_id, chunk.index, chunk.size_bytes,
                       chunk.phase_class, "emit")
        end = now + transmission_ns(link.profile, chunk.size_bytes)
        self._push(end, EventKind.CHUNK_SENT, chunk.payload_id, (link.idx, chunk))

    def _send_payload(self, link: _LinkRuntime, mb: MicroBatch, size: int,
                      pclass: PayloadClass, now: int) -> None:
        payload = Payload(
            id=self._next_payload_id,
            phase_class=pclass,
            size_bytes=size,
            micro_batch_id=mb.id,
            enqueue_time=now,
        )
        self._next_payload_id += 1
        link.payload_mb[payload.id] = mb
        link.queue.enqueue(payload)
        self._log_link(link, now, payload.id, -1, size, pclass, "enqueue")
        if not link.busy:
            self._link_emit_next(link, now)

    # -- stage mechanics ---------------------------------------------------

    def _try_start_compute(self, stage: _StageRuntime, now: int) -> None:
        if stage.busy or not stage.queue:
            return
        mb = stage.queue.popleft()
        stage.busy = True
        stage.current = mb
        stage.current_start = now
        phase = Phase.DECODE if mb.phase is BatchPhase.DECODE else Phase.PREFILL
        c_ns = max(1, s_to_ns(compute_time(stage.profile, phase, mb.batched_tokens)))
        if stage.idx == 0:
            for rid in mb.request_ids:
                self._first_compute_ns.setdefault(rid, now)
        self._push(now + c_ns, EventKind.COMPUTE_DONE, mb.id, stage.idx)

    def _on_compute_done(self, stage_idx: int, mb_id: int, now: int) -> None:
        stage = self._stages[stage_idx]
        mb = stage.current
        assert mb is not None and mb.id == mb_id
        stage.busy_intervals.append((stage.current_start, now))
        stage.busy = False
        stage.current = None
        self._log(now, EventKind.COMPUTE_DONE, mb.id, stage_idx)

        last = stage_idx == len(self._stages) - 1
        if not last:
            size = max(1, mb.batched_tokens * self._sched.bytes_per_token)
            self._send_payload(self._links[stage_idx], mb, size, mb.payload_class, now)
        elif self._links:
            size = max(1, TOKEN_FEEDBACK_BYTES * len(mb.request_ids))
            self._send_payload(self._links[-1], mb, size, PayloadClass.DECODE, now)
        else:
            # Single-stage pipeline: tokens surface at compute completion.
            self._sched.feedback(mb, now)
            self._schedule_boundary(now)

        self._try_start_compute(stage, now)
        if stage_idx == 0:
            self._schedule_boundary(now)

    # -- head scheduling ---------------------------------------------------

    def _schedule_boundary(self, now: int) -> None:
        if now in self._boundary_times:
            return
        self._boundary_times.add(now)
        self._push(now, EventKind.ITERATION_BOUNDARY, self._sched.iteration + 1, None)

    def _on_boundary(self, now: int) -> None:
        self._boundary_times.discard(now)
        head = self._stages[0]
        if head.busy or head.queue:
            return
        batches = self._sched.dispatch(now)
        if not batches:
            return
        self._log(now, EventKind.ITERATION_BOUNDARY, self._sched.iteration, 0)
        head.queue.extend(batches)
        self._try_start_compute(head, now)

    # -- event loop --------------------------------------------------------

    def run(self, trace: Trace, horizon_s: float | None = None) -> RunResult:
        """Process the trace to completion (or up to ``horizon_s``).

        Deterministic for a fixed config: identical inputs produce identical
        event logs, reports, and per-request timelines.
        """
        self._reset(trace.requests)
        for req in self._sched.requests.values():
            arrival_ns = s_to_ns(req.arrival_time)
            req.arrival_time = arrival_ns / NS_PER_S  # snap to the virtual clock
            self._push(arrival_ns, EventKind.ARRIVAL, req.id, None)
        horizon_ns = None if horizon_s is None else s_to_ns(horizon_s)

        last_time = 0
        heap, sched = self._heap, self._sched
        # Local names: attribute access on an enum class is slow in the loop.
        arrival, boundary = EventKind.ARRIVAL, EventKind.ITERATION_BOUNDARY
        compute_done, sent = EventKind.COMPUTE_DONE, EventKind.CHUNK_SENT
        delivered = EventKind.PAYLOAD_DELIVERED
        while heap:
            if horizon_ns is not None and heap[0][0] > horizon_ns:
                last_time = horizon_ns
                break
            time_ns, kind, subject, _, data = heapq.heappop(heap)
            last_time = time_ns  # the heap pops in time order
            if kind is sent:
                link_idx, chunk = data
                link = self._links[link_idx]
                self._log_link(link, time_ns, chunk.payload_id, chunk.index,
                               chunk.size_bytes, chunk.phase_class, "sent")
                self._log(time_ns, sent, chunk.payload_id, -1)
                self._push(time_ns + link.latency_ns, delivered, chunk.payload_id, data)
                self._link_emit_next(link, time_ns)
            elif kind is arrival:
                sched.pending.append(sched.requests[subject])
                self._log(time_ns, arrival, subject)
                self._schedule_boundary(time_ns)
            elif kind is boundary:
                self._on_boundary(time_ns)
            elif kind is compute_done:
                self._on_compute_done(data, subject, time_ns)  # data = stage idx
            else:  # PAYLOAD_DELIVERED
                link_idx, chunk = data
                link = self._links[link_idx]
                self._log_link(link, time_ns, chunk.payload_id, chunk.index,
                               chunk.size_bytes, chunk.phase_class, "deliver")
                if not chunk.is_last:
                    continue
                mb = link.payload_mb.pop(chunk.payload_id)
                self._log(time_ns, delivered, chunk.payload_id, link.dst_stage)
                if link.is_return:
                    sched.feedback(mb, time_ns)
                    self._schedule_boundary(time_ns)
                else:
                    dst = self._stages[link.dst_stage]
                    dst.queue.append(mb)
                    self._try_start_compute(dst, time_ns)

        # Close busy intervals cut off by the horizon.
        for stage in self._stages:
            if stage.busy:
                stage.busy_intervals.append((stage.current_start, last_time))
                stage.busy = False

        return RunResult(
            requests=[sched.requests[rid] for rid in sorted(sched.requests)],
            events=self._events,
            # Every link event is logged at the current virtual time, so the
            # list is already in time order.
            link_events=self._link_events,
            decisions=sched.decisions,
            stage_busy_ns=[s.busy_intervals for s in self._stages],
            token_emissions=sched.token_emissions,
            first_compute_ns=self._first_compute_ns,
            end_ns=last_time,
            all_finished=sched.unfinished == 0,
        )
