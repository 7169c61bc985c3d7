import dataclasses
import gc
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipelink.engine
from pipelink.controller import ControllerDecision, clamp_demand
from pipelink.engine import (
    EventKind,
    HeadScheduler,
    PipelineEngine,
    admit_and_batch,
    measure_bubble,
    ring_links,
)
from pipelink.errors import ConfigError
from pipelink.metrics import summarize
from pipelink.outputs import LogSink
from pipelink.placement import ClusterSpec, ModelSpec, PartitionPlan
from pipelink.profiles import LinkProfile, Phase, StageProfile, flat_profile
from pipelink.transport import LinkPolicy, Payload, s_to_ns
from pipelink.workload import (
    LengthHistogram,
    Request,
    RequestState,
    Trace,
    generate_trace,
)

from simsetup import (
    LinkEvent,
    assert_sink_saves_the_rows,
    engine_config,
    engine_events,
    link_events,
    make_node,
    reference_admit_and_batch,
    replay_link,
    run_recording_first_compute,
    stationary_decode_trace,
    tokens_in_window,
    uniform_pipeline,
)
from test_transport import check_link_invariants


def desk_pipeline():
    # two stages, 10 ms compute, 5 ms per hop including the return
    return uniform_pipeline(2, compute_s=0.010, hop_latency_s=0.005)


# -- admit_and_batch ----------------------------------------------------------


def dec(i):
    r = Request(id=i, arrival_time=0.0, input_len=1, output_len=100)
    r.state = RequestState.DECODING
    r.tokens_emitted = 1
    r.first_token_time = 0.0
    return r


def pre(i, input_len):
    return Request(id=i, arrival_time=0.0, input_len=input_len, output_len=10)


def decision(n, budget):
    return ControllerDecision(
        n_microbatches=n, token_budget_per_microbatch=budget,
        predicted_bubble_fraction=0.0,
    )


def test_admit_all_decoders_into_one_batch():
    decoding = deque(dec(i) for i in range(3))
    batches = admit_and_batch(
        decoding, deque(), decision(1, 100), max_batch_size=64, capacity=1
    )
    assert len(batches) == 1
    assert batches[0].phase is Phase.DECODE
    assert batches[0].batched_tokens == 3
    assert not decoding


def test_admit_empty_queues():
    assert admit_and_batch(deque(), deque(), decision(2, 100), 64, 2) == []


def test_admit_oversize_prefill_solo():
    decoding = deque(dec(i) for i in range(2))
    queued = deque([pre(10, 90)])
    batches = admit_and_batch(decoding, queued, decision(2, 50), 64, 2)
    assert [b.phase for b in batches] == [Phase.DECODE, Phase.PREFILL]
    assert batches[0].request_ids == (0, 1)
    assert batches[1].request_ids == (10,)
    assert batches[1].batched_tokens == 90  # exceeds the 50-token budget, solo


def test_admit_strict_fcfs_for_prefills():
    queued = deque([pre(0, 40), pre(1, 40), pre(2, 5)])
    batches = admit_and_batch(deque(), queued, decision(1, 50), 64, 1)
    # 40 fits, second 40 does not; the 5 behind it must NOT jump the line
    assert len(batches) == 1
    assert batches[0].request_ids == (0,)
    assert [r.id for r in queued] == [1, 2]


def test_admit_respects_batch_size_cap():
    decoding = deque(dec(i) for i in range(10))
    batches = admit_and_batch(decoding, deque(), decision(2, 100), 4, 2)
    assert [len(b.request_ids) for b in batches] == [4, 4]
    assert len(decoding) == 2  # the rest wait for the next boundary


def test_no_request_in_two_microbatches_per_iteration():
    decoding = deque(dec(i) for i in range(6))
    batches = admit_and_batch(decoding, deque(), decision(3, 2), 64, 3)
    ids = [rid for b in batches for rid in b.request_ids]
    assert len(ids) == len(set(ids))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n_decoding=st.integers(0, 40),
    prefill_lens=st.lists(st.integers(1, 3000), max_size=20),
    budget=st.integers(0, 2048) | st.integers(0, 8),
    max_batch_size=st.integers(1, 12),
    capacity=st.integers(-1, 9),
    id_start=st.integers(0, 100),
)
def test_admit_matches_the_lightest_bin_search(
    n_decoding, prefill_lens, budget, max_batch_size, capacity, id_start
):
    # Prefills range past the budget, so oversize admission is drawn too.
    def queues():
        return (deque(dec(i) for i in range(n_decoding)),
                deque(pre(100 + i, n) for i, n in enumerate(prefill_lens)))

    args = (decision(max(capacity, 1), budget), max_batch_size, capacity, id_start)
    decoding, queued = queues()
    ref_decoding, ref_queued = queues()
    batches = admit_and_batch(decoding, queued, *args)
    assert batches == reference_admit_and_batch(ref_decoding, ref_queued, *args)
    assert [r.id for r in decoding] == [r.id for r in ref_decoding]
    assert [r.id for r in queued] == [r.id for r in ref_queued]


# -- simple runs --------------------------------------------------------------


def test_single_request_single_stage():
    cluster, model, plan, profiles = uniform_pipeline(1, 0.010, 0.0)
    cfg = engine_config(plan, model, max_batched_tokens=100, max_batch_size=10)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=8, output_len=1)])
    result = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert result.all_finished
    report = summarize(result.requests)
    assert report.ttft_mean_s == pytest.approx(0.010)
    assert report.throughput_tok_s == pytest.approx(1 / 0.010)


def test_run_is_deterministic():
    cluster, model, plan, profiles = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e8, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=256, max_batch_size=8, chunk_size=4096
    )
    trace = generate_trace(rate=20.0, duration=1.0, seed=5)
    a = PipelineEngine(cfg, cluster, profiles).run(trace)
    b = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert a.events == b.events
    assert a.link_events == b.link_events
    assert a.tokens_by_request() == b.tokens_by_request()
    assert [r.finish_time for r in a.requests] == [r.finish_time for r in b.requests]


def test_token_conservation_and_drain():
    cluster, model, plan, profiles = uniform_pipeline(
        2, 0.001, 0.002, bandwidth=1e8, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=128, max_batch_size=16, chunk_size=8192
    )
    trace = generate_trace(rate=30.0, duration=1.0, seed=8)
    result = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert result.all_finished  # no lost requests
    assert sum(r.tokens_emitted for r in result.requests) == sum(
        r.output_len for r in result.requests
    )
    delivered = tokens_in_window(result, "node1->node0", 0.0, result.end_ns / 1e9 + 1.0)
    assert delivered == sum(r.output_len for r in result.requests)


def test_causality_and_stage_fifo():
    cluster, model, plan, profiles = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e8, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=256, max_batch_size=8, chunk_size=4096
    )
    trace = generate_trace(rate=20.0, duration=1.0, seed=6)
    result = PipelineEngine(cfg, cluster, profiles).run(trace)
    for stage_id in (1, 2):
        deliveries = sorted(
            e.time_ns
            for e in engine_events(result)
            if e.kind is EventKind.PAYLOAD_DELIVERED and e.stage == stage_id
        )
        starts = sorted(s for s, _ in result.stage_busy_ns[stage_id])
        assert len(starts) == len(deliveries)
        for arrive, start in zip(deliveries, starts):
            assert start >= arrive  # compute cannot precede its input
    for intervals in result.stage_busy_ns:
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1  # one micro-batch at a time, in order


def test_head_ttft_not_before_first_compute():
    cluster, model, plan, profiles = uniform_pipeline(2, 0.005, 0.001)
    cfg = engine_config(plan, model, max_batched_tokens=64, max_batch_size=8)
    trace = generate_trace(rate=10.0, duration=1.0, seed=4)
    result, first_compute_ns = run_recording_first_compute(
        PipelineEngine(cfg, cluster, profiles), trace
    )
    for r in result.requests:
        first_compute_s = first_compute_ns[r.id] / 1e9
        assert r.first_token_time >= first_compute_s >= r.arrival_time


# -- bubbles ------------------------------------------------------------------


def test_measure_bubble_trivial_cases():
    cluster, model, plan, profiles = desk_pipeline()
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4)
    result = PipelineEngine(cfg, cluster, profiles).run(
        stationary_decode_trace(12), horizon_s=0.4
    )
    assert measure_bubble(result, 0, s_to_ns(0.0), s_to_ns(0.03)) == 0.0  # continuously busy
    with pytest.raises(ConfigError):
        measure_bubble(result, 0, s_to_ns(0.2), s_to_ns(0.2))  # empty window


def test_measure_bubble_idle_window_is_one():
    cluster, model, plan, profiles = uniform_pipeline(1, 0.010, 0.0)
    cfg = engine_config(plan, model, max_batched_tokens=10, max_batch_size=4)
    trace = Trace(
        requests=[Request(id=0, arrival_time=1.0, input_len=1, output_len=1)]
    )
    result = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert measure_bubble(result, 0, s_to_ns(0.0), s_to_ns(0.5)) == 1.0  # nothing ran yet


def test_fixed_two_microbatches_show_one_third_bubble():
    cluster, model, plan, profiles = desk_pipeline()
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4, n_max=2)
    result = PipelineEngine(cfg, cluster, profiles).run(
        stationary_decode_trace(12), horizon_s=0.4
    )
    measured = measure_bubble(result, 0, s_to_ns(0.09), s_to_ns(0.39))
    assert measured == pytest.approx(1 / 3, abs=0.02)


def test_dynamic_n_strictly_reduces_idle():
    cluster, model, plan, profiles = desk_pipeline()
    idle = {}
    for label, n_max in (("fixed", 2), ("dynamic", None)):
        cfg = engine_config(
            plan, model, max_batched_tokens=12, max_batch_size=4, n_max=n_max
        )
        result = PipelineEngine(cfg, cluster, profiles).run(
            stationary_decode_trace(12), horizon_s=0.4
        )
        idle[label] = measure_bubble(result, 0, s_to_ns(0.09), s_to_ns(0.39))
    assert idle["dynamic"] < idle["fixed"]


def test_zero_transfer_full_utilization():
    for S in (1, 2, 3, 4):
        cluster, model, plan, profiles = uniform_pipeline(S, 0.010, 0.0)
        cfg = engine_config(
            plan, model, max_batched_tokens=4 * S, max_batch_size=4,
            bubble_epsilon=0.0, n_max=16,
        )
        result = PipelineEngine(cfg, cluster, profiles).run(
            stationary_decode_trace(4 * S), horizon_s=0.5
        )
        w0 = 2 * S * 0.010
        w1 = w0 + 10 * S * 0.010
        assert measure_bubble(result, 0, s_to_ns(w0), s_to_ns(w1)) <= 1e-9
        assert result.decisions[0].n_microbatches == S


# -- config validation --------------------------------------------------------


def test_missing_link_rejected():
    cluster, model, plan, profiles = desk_pipeline()
    broken = ClusterSpec(
        nodes=dict(cluster.nodes),
        links={k: v for k, v in cluster.links.items() if k != ("node1", "node0")},
    )
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4)
    with pytest.raises(ConfigError, match="missing required link"):
        PipelineEngine(cfg, broken, profiles)


def test_profile_count_must_match_stages():
    cluster, model, plan, profiles = desk_pipeline()
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4)
    with pytest.raises(ConfigError):
        PipelineEngine(cfg, cluster, profiles[:1])


def test_duplicate_request_ids_rejected():
    cluster, model, plan, profiles = uniform_pipeline(1, 0.01, 0.0)
    cfg = engine_config(plan, model, max_batched_tokens=10, max_batch_size=4)
    reqs = [
        Request(id=0, arrival_time=0.0, input_len=1, output_len=1),
        Request(id=0, arrival_time=0.0, input_len=1, output_len=1),
    ]
    with pytest.raises(ConfigError):
        PipelineEngine(cfg, cluster, profiles).run(Trace(requests=reqs))


def test_fcfs_policy_accepted():
    cluster, model, plan, profiles = desk_pipeline()
    cfg = engine_config(
        plan, model, max_batched_tokens=12, max_batch_size=4,
        scheduling_policy=LinkPolicy.FCFS,
    )
    result = PipelineEngine(cfg, cluster, profiles).run(
        stationary_decode_trace(4), horizon_s=0.1
    )
    assert sum(r.tokens_emitted for r in result.requests)


class _NeverHits(dict):
    def get(self, key, default=None):
        return default


class UnmemoisedScheduler(HeadScheduler):
    """Reference: asks the controller at every decision point."""

    def __init__(self, *args):
        super().__init__(*args)
        self._memo = _NeverHits()


def test_run_decides_once_per_distinct_clamped_demand(monkeypatch):
    cluster, model, plan, _ = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e7, hidden_dim=64, dtype_bytes=2
    )
    # Prefill costs twice decode, so a decision depends on the phase too.
    profiles = [
        StageProfile(stage_id=i, entries={
            (phase, tokens): (1 + (phase is Phase.PREFILL)) * (0.001 + 2e-5 * tokens)
            for phase in Phase for tokens in (1, 256)
        })
        for i in range(3)
    ]
    cfg = engine_config(
        plan, model, max_batched_tokens=256, max_batch_size=8, chunk_size=4096
    )
    trace = generate_trace(rate=30.0, duration=1.0, seed=8,
                           output_lengths=LengthHistogram(((4, 40, 1.0),)))
    decided = []
    choose_n = pipelink.engine.choose_n

    def counting_choose_n(cfg, stage_profiles, links, queued_tokens, phase, **kw):
        decided.append((clamp_demand(cfg, queued_tokens), phase))
        return choose_n(cfg, stage_profiles, links, queued_tokens, phase, **kw)

    monkeypatch.setattr(pipelink.engine, "choose_n", counting_choose_n)
    with monkeypatch.context() as patch:
        patch.setattr(pipelink.engine, "HeadScheduler", UnmemoisedScheduler)
        reference = PipelineEngine(cfg, cluster, profiles).run(trace)
    every_point, decided[:] = list(decided), []
    engine = PipelineEngine(cfg, cluster, profiles)
    result = engine.run(trace)
    assert result.all_finished
    # The memoised run asks once per distinct (clamped demand, phase), at the
    # point where that key first occurs, and runs exactly as the reference.
    assert decided == list(dict.fromkeys(every_point))
    assert {phase for _, phase in decided} == set(Phase)
    assert len(every_point) > 2 * len(decided)
    for field in ("events", "link_events", "decisions"):
        assert getattr(result, field) == getattr(reference, field), field
    assert result.tokens_by_request() == reference.tokens_by_request()
    # A second run starts from an empty memo and decides the same keys again.
    first, decided[:] = list(decided), []
    assert engine.run(trace).events == result.events
    assert decided == first


def chunked_three_stage_engine(policy=LinkPolicy.DECODE_PRIORITY):
    cluster, model, plan, profiles = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e7, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=256, max_batch_size=8, chunk_size=4096,
        scheduling_policy=policy,
    )
    return PipelineEngine(cfg, cluster, profiles)


@pytest.mark.parametrize("horizon_s", [None, 0.3])
def test_link_events_are_logged_in_time_order(horizon_s):
    # Writers and replay rely on this: the run hands the log over unsorted.
    trace = generate_trace(rate=30.0, duration=1.0, seed=8)
    result = chunked_three_stage_engine().run(trace, horizon_s=horizon_s)
    times = [e.time_ns for e in link_events(result)]
    assert any(e.chunk_index > 0 for e in link_events(result))
    assert times == sorted(times)
    if horizon_s is not None:
        assert not result.all_finished
        assert times[-1] <= s_to_ns(horizon_s)


@pytest.mark.parametrize("policy", list(LinkPolicy))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_links_hold_transport_invariants(policy, seed):
    engine = chunked_three_stage_engine(policy)
    trace = generate_trace(rate=30.0, duration=1.0, seed=seed,
                           output_lengths=LengthHistogram(((1, 12, 1.0),)))
    result = engine.run(trace)
    assert result.all_finished
    preempted = 0
    for profile in engine.link_profiles:
        rows = [row for row in result.link_events if row[1] == profile.name]
        check_link_invariants(rows, policy)
        # replay_link, which criteria 3 and 9 run, gives the same schedule.
        views = [LinkEvent.of(row) for row in rows]
        arrivals = [(e.time_ns, Payload(e.payload_id, e.phase, e.size_bytes))
                    for e in views if e.event == "enqueue"]
        assert replay_link(profile, arrivals, engine.cfg.chunk_size, policy) == rows
        emitted = [e.payload_id for e in views if e.event == "emit"]
        runs = [pid for i, pid in enumerate(emitted) if i == 0 or emitted[i - 1] != pid]
        preempted += len(runs) - len(set(runs))
    # Decode payloads do cut into chunked prefills, so the priority clause bites.
    assert (preempted > 0) == (policy is LinkPolicy.DECODE_PRIORITY)


def test_full_length_chunked_run_holds_transport_invariants():
    # Default output lengths: about 72k link rows, which the checker takes
    # in one pass per clause.
    engine = chunked_three_stage_engine()
    result = engine.run(generate_trace(rate=30.0, duration=1.0, seed=8))
    assert result.all_finished
    assert len(result.link_events) > 70_000
    for profile in engine.link_profiles:
        check_link_invariants([row for row in result.link_events if row[1] == profile.name])


class BlockCountingSink(LogSink):
    """A sink that records how many rows each block its link log takes holds."""

    def __init__(self):
        super().__init__()
        self.link_blocks = []
        take = self.link_events.take

        def counted(rows):
            self.link_blocks.append(len(rows))
            take(rows)

        self.link_events.take = counted


@pytest.mark.parametrize("horizon_s", [None, 0.8])
def test_a_sink_takes_the_logs_in_blocks_that_save_as_the_rows_would(horizon_s, tmp_path):
    trace = generate_trace(rate=30.0, duration=1.0, seed=8)
    rows = chunked_three_stage_engine().run(trace, horizon_s=horizon_s)
    sink = BlockCountingSink()
    held = chunked_three_stage_engine().run(trace, horizon_s=horizon_s, sink=sink)
    assert len(sink.link_blocks) > 1  # a block handed over before the end
    assert sum(sink.link_blocks) == len(rows.link_events)
    assert_sink_saves_the_rows(rows, held, tmp_path)
    assert (held.decisions, held.stage_busy_ns, held.end_ns) == (
        rows.decisions, rows.stage_busy_ns, rows.end_ns)


def test_logged_event_kinds_are_member_names():
    trace = generate_trace(rate=30.0, duration=1.0, seed=8)
    result = chunked_three_stage_engine().run(trace)
    # CHUNK_SENT orders the heap only; its rows are the link log's "sent" rows.
    assert {kind for _, kind, _, _ in result.events} == {
        kind.name for kind in EventKind if kind is not EventKind.CHUNK_SENT
    }
    assert {row[5] for row in result.link_events} == {phase.value for phase in Phase}


def test_log_rows_are_plain_tuples():
    # A NamedTuple row costs a Python-level __new__ per row, and a row that
    # holds an enum member stays tracked by the garbage collector, which then
    # rescans every row as the logs grow to hundreds of thousands of rows.
    result = chunked_three_stage_engine().run(generate_trace(rate=30.0, duration=0.5, seed=8))
    assert result.events and result.link_events
    gc.collect()
    for row in itertools.chain(result.events, result.link_events):
        assert type(row) is tuple and not gc.is_tracked(row)
        assert {type(field) for field in row} <= {int, str}


# -- the head scheduler, driven without a clock --------------------------------


def scheduler_setup(decision_stride=1, scheduler=HeadScheduler):
    cluster, model, plan, _ = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e7, hidden_dim=64, dtype_bytes=2
    )
    # Prefill costs twice decode, so the micro-batch count moves with the phase.
    profiles = [
        StageProfile(stage_id=i, entries={
            (phase, tokens): (1 + (phase is Phase.PREFILL)) * (0.001 + 2e-5 * tokens)
            for phase in Phase for tokens in (1, 256)
        })
        for i in range(3)
    ]
    cfg = engine_config(plan, model, max_batched_tokens=256, max_batch_size=8)
    cfg = dataclasses.replace(cfg, controller=dataclasses.replace(
        cfg.controller, decision_stride=decision_stride
    ))
    trace = generate_trace(rate=30.0, duration=1.0, seed=8,
                           output_lengths=LengthHistogram(((1, 12, 1.0),)))
    sched = scheduler(cfg, profiles, ring_links(plan, cluster), trace.requests)
    for req in sched.requests.values():
        sched.arrive(req)
    return sched, trace


def drive(sched, rng):
    """Run to completion, returning in-flight micro-batches in random order."""
    now = 0
    while sched.unfinished:
        batches = sched.dispatch()
        if batches:
            cap = sched.decisions[-1].n_microbatches
            assert 0 < len(sched.in_flight) <= cap
            continue
        assert sched.in_flight, "stalled with nothing in flight"
        mb = rng.choice(sorted(sched.in_flight.items()))[1]
        sched.feedback(mb, now)
        now += 1000


@pytest.mark.parametrize("decision_stride", [1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_head_scheduler_finishes_every_request_within_the_in_flight_cap(
    decision_stride, seed
):
    sched, trace = scheduler_setup(decision_stride)
    drive(sched, random.Random(seed))
    assert not (sched.pending or sched.ready or sched.in_flight)
    assert len(sched.decisions) > 10
    assert len({d.n_microbatches for d in sched.decisions}) > 1
    for seed_req in trace.requests:
        req = sched.requests[seed_req.id]
        assert req.state is RequestState.FINISHED
        assert req.tokens_emitted == req.output_len == seed_req.output_len
        assert req.first_token_time is not None and req.finish_time is not None
        assert seed_req.state is RequestState.QUEUED and seed_req.tokens_emitted == 0
    assert sum(r.tokens_emitted for r in sched.requests.values()) == sum(
        r.output_len for r in trace.requests
    )


def test_head_scheduler_reuses_the_decision_between_strides():
    stride = 3
    sched, _ = scheduler_setup(stride, scheduler=UnmemoisedScheduler)
    drive(sched, random.Random(2))
    decisions = sched.decisions
    assert len(decisions) > 3 * stride
    # Without a memo every fresh decision is a new object, so identity shows
    # exactly where the last decision was reused.
    for i in range(1, len(decisions)):
        assert (decisions[i] is decisions[i - 1]) == (i % stride != 0), i
