"""Shared builders for engine-level tests, and helpers that only tests call."""

import csv
import os
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import pytest

import pipelink.engine
from pipelink.controller import ControllerConfig
from pipelink.decode import encode
from pipelink.engine import EngineConfig, EventKind, MicroBatch
from pipelink.placement import (
    ClusterSpec,
    ModelSpec,
    NodeDescriptor,
    PartitionPlan,
    Platform,
)
from pipelink.outputs import (
    EVENT_LOG_HEADER,
    LINK_LOG_HEADER,
    LogSink,
    write_event_log,
    write_link_log,
)
from pipelink.profiles import PROFILE_HEADER, LinkProfile, Phase, flat_profile
from pipelink.transport import (
    DEFAULT_CHUNK_SIZE,
    NS_PER_S,
    TOKEN_FEEDBACK_BYTES,
    LinkPolicy,
    VirtualLink,
    s_to_ns,
)
from pipelink.workload import Request, Trace


class EngineEvent(NamedTuple):
    """A named view of one engine log row, ``EngineEvent.of(row)``.

    The row holds the kind's name, as ``events.csv`` prints it; the view
    holds the member, so that ``e.kind is EventKind.ARRIVAL`` reads as it says.
    """

    time_ns: int
    kind: EventKind
    subject: int
    stage: int  # -1 when not stage-scoped

    @classmethod
    def of(cls, row):
        time_ns, kind, subject, stage = row
        return cls(time_ns, EventKind[kind], subject, stage)


class LinkEvent(NamedTuple):
    """A named view of one link log row, ``LinkEvent.of(row)``.

    The row holds the phase's value, as ``transport.csv`` prints it; the view
    holds the member.
    """

    time_ns: int
    link: str
    payload_id: int
    chunk_index: int
    size_bytes: int
    phase: Phase
    event: str  # enqueue | emit | sent | deliver

    @classmethod
    def of(cls, row):
        time_ns, link, payload_id, chunk_index, size_bytes, phase, event = row
        return cls(time_ns, link, payload_id, chunk_index, size_bytes, Phase(phase), event)


class Rows(list):
    """One log of a :class:`RowsSink`: the list of its rows, which ``take``
    extends by a block."""

    take = list.extend


class RowsSink(LogSink):
    """A :class:`LogSink` fake whose two logs are :class:`Rows`, the rows
    as the run logged them, for checks to read at ns precision.

    Its clock refuses a tick that goes back, as the real one does, and
    stamps a tick with its ns int; a link row holds the link's name as given.
    """

    def __init__(self):
        self.events, self.link_events = Rows(), Rows()
        self._tick = -float("inf")

    def stamp(self, t):
        LogSink.stamp(self, t)
        return t

    @staticmethod
    def quote(name):
        return name


def engine_events(result):
    """The engine log rows of a run as :class:`EngineEvent` views."""
    return [EngineEvent.of(row) for row in result.events]


def link_events(result):
    """The link log rows of a run as :class:`LinkEvent` views."""
    return [LinkEvent.of(row) for row in result.link_events]


def make_node(
    name,
    gpu_type="g",
    gpu_count=1,
    gpu_mem_bytes=1 << 34,
    capacity=1.0,
    cpu=1.0,
    net=1.0,
    platform=Platform.LINUX,
):
    return NodeDescriptor(
        name=name,
        platform=platform,
        gpu_type=gpu_type,
        gpu_count=gpu_count,
        gpu_mem_bytes=gpu_mem_bytes,
        capacity_score=capacity,
        cpu_score=cpu,
        network_score=net,
    )


def uniform_pipeline(num_stages, compute_s, hop_latency_s, bandwidth=1e18,
                     hidden_dim=1, dtype_bytes=1):
    """Cluster + plan + flat profiles for an S-stage ring of equal nodes."""
    names = [f"node{i}" for i in range(num_stages)]
    nodes = {n: make_node(n) for n in names}
    links = {}
    if num_stages >= 2:
        hops = list(zip(names, names[1:])) + [(names[-1], names[0])]
        for src, dst in hops:
            links[(src, dst)] = LinkProfile(src, dst, hop_latency_s, bandwidth)
    cluster = ClusterSpec(nodes=nodes, links=links)
    model = ModelSpec(
        name="test-model",
        num_layers=num_stages,
        hidden_dim=hidden_dim,
        dtype_bytes=dtype_bytes,
        bytes_per_layer=1,
    )
    plan = PartitionPlan(
        stages=tuple((names[i], (i, i + 1)) for i in range(num_stages)),
        head=names[0],
    )
    profiles = [flat_profile(compute_s, stage_id=i) for i in range(num_stages)]
    return cluster, model, plan, profiles


def stationary_decode_trace(num_requests, output_len=10**6):
    """Requests that arrive together and decode far past any horizon."""
    return Trace(
        requests=[
            Request(id=i, arrival_time=0.0, input_len=1, output_len=output_len)
            for i in range(num_requests)
        ]
    )


def engine_config(plan, model, max_batched_tokens, max_batch_size, n_max=None,
                  bubble_epsilon=0.02, chunk_size=None, **kwargs):
    controller = ControllerConfig(
        max_batched_tokens=max_batched_tokens,
        max_batch_size=max_batch_size,
        n_max=n_max,
        bubble_epsilon=bubble_epsilon,
    )
    return EngineConfig(
        partition=plan,
        model=model,
        controller=controller,
        chunk_size=chunk_size,
        **kwargs,
    )


def tokens_in_window(result, return_link, t0_s, t1_s):
    """Tokens that reached the head in [t0_s, t1_s) over ``return_link``.

    Each delivered feedback payload carries one token per request of its
    micro-batch, ``TOKEN_FEEDBACK_BYTES`` each, and lands as one chunk since
    decode payloads are never split, so the count is exact.
    """
    t0, t1 = s_to_ns(t0_s), s_to_ns(t1_s)
    return sum(
        e.size_bytes // TOKEN_FEEDBACK_BYTES
        for e in link_events(result)
        if e.link == return_link and e.event == "deliver" and t0 <= e.time_ns < t1
    )


def run_recording_first_compute(engine, trace, **run_kwargs):
    """``engine.run(trace)`` and, per request, the ns its first head compute began.

    The head computes micro-batches one at a time in id order (see
    ``test_causality_and_stage_fifo``), so the k-th micro-batch that
    ``admit_and_batch`` forms is the one behind the k-th busy interval of
    stage 0.
    """
    formed = []
    admit_and_batch = pipelink.engine.admit_and_batch

    def recording(*args, **kwargs):
        batches = admit_and_batch(*args, **kwargs)
        formed.extend(batches)
        return batches

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipelink.engine, "admit_and_batch", recording)
        result = engine.run(trace, **run_kwargs)
    first_compute_ns = {}
    for mb, (start, _) in zip(formed, result.stage_busy_ns[0]):
        for rid in mb.request_ids:
            first_compute_ns.setdefault(rid, start)
    return result, first_compute_ns


def first_emit_delay_ns(events, payload_id):
    """Transmission-start delay of a payload: first emit minus its enqueue."""
    events = [LinkEvent.of(row) for row in events]
    enq = next(e.time_ns for e in events if e.payload_id == payload_id and e.event == "enqueue")
    emit = next(e.time_ns for e in events if e.payload_id == payload_id and e.event == "emit")
    return emit - enq


def replay_link(profile, arrivals, chunk_size=DEFAULT_CHUNK_SIZE,
                policy=LinkPolicy.DECODE_PRIORITY):
    """Virtual-time schedule of one link fed by ``(time_ns, Payload)`` arrivals.

    The engine's ``VirtualLink`` logs into a list, the reference the link
    tests compare the engine against.  Returns every row (enqueue/emit/sent/
    deliver) sorted by time, equal times in logged order: a chunk's deliver
    row is logged when its send ends.  At equal times arrivals are queued
    before a transmission ends, so that a decode arriving at a chunk boundary
    preempts there.
    """
    events = []
    link = VirtualLink(profile, chunk_size, policy, events, profile.name)
    on_wire = None  # (end_ns, chunk) of the chunk in transmission

    def finish(end, chunk):
        following = link.sent(chunk, end, end)
        link.deliver(chunk, end + link.latency_ns)
        return following

    for t, payload in sorted(arrivals, key=lambda a: (a[0], a[1].id)):
        while on_wire is not None and on_wire[0] < t:
            on_wire = finish(*on_wire)
        on_wire = link.offer(payload, t, t) or on_wire
    while on_wire is not None:
        on_wire = finish(*on_wire)
    return sorted(events, key=itemgetter(0))


def stage_points(profile, phase):
    """The (batched tokens, seconds) points a profile looks ``phase`` up in."""
    xs, ys = profile._tables.get(phase, ((), ()))
    return list(zip(xs, ys))


def save_stage_profiles(profiles, path):
    """Write ``{stage_id: StageProfile}`` as the CSV ``load_stage_profiles`` reads."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for stage_id in sorted(profiles):
            for (phase, tokens), secs in profiles[stage_id].entries.items():
                writer.writerow([stage_id, phase.value, tokens, repr(secs)])


def reference_link_log(events, path):
    """The link log of ns rows, written by ``csv.writer``: the independent
    reference for ``transport.csv``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LINK_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", link, payload_id, chunk_index, size,
             cls, event)
            for time_ns, link, payload_id, chunk_index, size, cls, event in events
        )


def reference_event_log(events, path):
    """The engine log of ns rows, written by ``csv.writer``: the independent
    reference for ``events.csv``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", kind, subject, stage)
            for time_ns, kind, subject, stage in events
        )


def assert_sink_saves_the_rows(rows, held, directory):
    """``held``, a run with a :class:`LogSink`, writes each log as the
    reference writes ``rows``, the same run with a :class:`RowsSink`."""
    for log, write, reference in (("events", write_event_log, reference_event_log),
                                  ("link_events", write_link_log, reference_link_log)):
        assert len(getattr(held, log)) == len(getattr(rows, log))
        write(getattr(held, log), directory / "held.csv")
        reference(getattr(rows, log), directory / "rows.csv")
        assert (directory / "held.csv").read_bytes() == (directory / "rows.csv").read_bytes()


def reference_measure_bubble(intervals, t0, t1):
    """Idle fraction of [t0, t1) ns for a stage busy over ``intervals``, each
    clipped to the window in turn: the reference for ``measure_bubble``."""
    busy = 0
    for s, e in intervals:
        busy += max(0, min(e, t1) - max(s, t0))
    return 1.0 - busy / (t1 - t0)


def plan_num_layers(plan):
    """The number of layers a partition plan covers: the end of its last stage."""
    return plan.stages[-1][1][1]


def cluster_json_dict(cluster):
    """The JSON form of a cluster that ``ClusterSpec.from_json_dict`` reads."""
    return {
        "nodes": [encode(node) for _, node in sorted(cluster.nodes.items())],
        "links": [encode(link) for _, link in sorted(cluster.links.items())],
    }


@dataclass
class _Bin:
    index: int
    tokens: int = 0
    members: list = field(default_factory=list)
    phase: Phase | None = None


def reference_admit_and_batch(
    decoding: deque,
    queued: deque,
    decision,
    max_batch_size: int,
    capacity: int,
    id_start: int = 0,
) -> list[MicroBatch]:
    """``engine.admit_and_batch`` as a search for the lightest bin per request.

    The reference the closed-form engine version is checked against: every
    request, decode or prefill, goes into the lightest compatible bin under
    the caps, or into a fresh bin while there is capacity.
    """
    budget = decision.token_budget_per_microbatch
    if capacity < 1:
        return []
    bins: list[_Bin] = []

    def lightest(phase, extra_tokens):
        fits = [
            b
            for b in bins
            if b.phase is phase
            and b.tokens + extra_tokens <= budget
            and len(b.members) < max_batch_size
        ]
        return min(fits, key=lambda b: (b.tokens, b.index)) if fits else None

    def place(b, request, tokens, phase):
        b.members.append(request)
        b.tokens += tokens
        b.phase = phase

    def open_bin():
        if len(bins) >= capacity:
            return None
        b = _Bin(index=len(bins))
        bins.append(b)
        return b

    while decoding:
        b = lightest(Phase.DECODE, 1) or open_bin()
        if b is None:
            break
        place(b, decoding.popleft(), 1, Phase.DECODE)

    while queued:
        request = queued[0]
        b = lightest(Phase.PREFILL, request.input_len)
        if b is None:
            b = open_bin()
        if b is None:
            break
        place(b, queued.popleft(), request.input_len, Phase.PREFILL)

    batches = []
    for b in bins:
        if not b.members:
            continue
        batches.append(
            MicroBatch(
                id=id_start + len(batches),
                request_ids=tuple(r.id for r in b.members),
                phase=b.phase,
                batched_tokens=b.tokens,
            )
        )
    return batches


def open_files():
    """The targets of this process's open file descriptors."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    targets = []
    for fd in os.listdir(fds):
        try:
            targets.append(os.readlink(fds / fd))
        except FileNotFoundError:  # the descriptor that listed the directory
            pass
    return sorted(targets)
