import dataclasses
import random
from collections import deque

import pytest

import pipelink.engine
from pipelink.controller import ControllerDecision, clamp_demand
from pipelink.engine import (
    BatchPhase,
    EventKind,
    HeadScheduler,
    PipelineEngine,
    admit_and_batch,
    measure_bubble,
    ring_links,
)
from pipelink.errors import ConfigError
from pipelink.metrics import summarize
from pipelink.placement import ClusterSpec, ModelSpec, PartitionPlan
from pipelink.profiles import LinkProfile, Phase, StageProfile, flat_profile
from pipelink.transport import LinkPolicy, s_to_ns
from pipelink.workload import (
    LengthHistogram,
    Request,
    RequestState,
    Trace,
    generate_trace,
)

from simsetup import (
    engine_config,
    make_node,
    stationary_decode_trace,
    uniform_pipeline,
)


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
        decoding, deque(), decision(1, 100), max_batch_size=64, capacity=1, now_s=0.0
    )
    assert len(batches) == 1
    assert batches[0].phase is BatchPhase.DECODE
    assert batches[0].batched_tokens == 3
    assert not decoding


def test_admit_empty_queues():
    assert admit_and_batch(deque(), deque(), decision(2, 100), 64, 2, 0.0) == []


def test_admit_oversize_prefill_solo():
    decoding = deque(dec(i) for i in range(2))
    queued = deque([pre(10, 90)])
    batches = admit_and_batch(decoding, queued, decision(2, 50), 64, 2, 0.0)
    assert [b.phase for b in batches] == [BatchPhase.DECODE, BatchPhase.PREFILL]
    assert batches[0].request_ids == (0, 1)
    assert batches[1].request_ids == (10,)
    assert batches[1].batched_tokens == 90  # exceeds the 50-token budget, solo


def test_admit_strict_fcfs_for_prefills():
    queued = deque([pre(0, 40), pre(1, 40), pre(2, 5)])
    batches = admit_and_batch(deque(), queued, decision(1, 50), 64, 1, 0.0)
    # 40 fits, second 40 does not; the 5 behind it must NOT jump the line
    assert len(batches) == 1
    assert batches[0].request_ids == (0,)
    assert [r.id for r in queued] == [1, 2]


def test_admit_respects_batch_size_cap():
    decoding = deque(dec(i) for i in range(10))
    batches = admit_and_batch(decoding, deque(), decision(2, 100), 4, 2, 0.0)
    assert [len(b.request_ids) for b in batches] == [4, 4]
    assert len(decoding) == 2  # the rest wait for the next boundary


def test_admit_mixed_phase_flag():
    decoding = deque([dec(0)])
    queued = deque([pre(1, 5)])
    batches = admit_and_batch(
        decoding, queued, decision(1, 50), 64, 1, 0.0, allow_mixed=True
    )
    assert len(batches) == 1
    assert batches[0].phase is BatchPhase.MIXED
    assert batches[0].batched_tokens == 6


def test_no_request_in_two_microbatches_per_iteration():
    decoding = deque(dec(i) for i in range(6))
    batches = admit_and_batch(decoding, deque(), decision(3, 2), 64, 3, 0.0)
    ids = [rid for b in batches for rid in b.request_ids]
    assert len(ids) == len(set(ids))


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
    assert a.token_emissions == b.token_emissions
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
    assert len(result.token_emissions) == sum(r.output_len for r in result.requests)


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
            for e in result.events
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
    result = PipelineEngine(cfg, cluster, profiles).run(trace)
    for r in result.requests:
        first_compute_s = result.first_compute_ns[r.id] / 1e9
        assert r.first_token_time >= first_compute_s >= r.arrival_time


# -- bubbles ------------------------------------------------------------------


def test_measure_bubble_trivial_cases():
    cluster, model, plan, profiles = desk_pipeline()
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4)
    result = PipelineEngine(cfg, cluster, profiles).run(
        stationary_decode_trace(12), horizon_s=0.4
    )
    assert measure_bubble(result, 0, 0.0, 0.03) == 0.0  # continuously busy
    with pytest.raises(ConfigError):
        measure_bubble(result, 0, 0.2, 0.2)  # empty window


def test_measure_bubble_idle_window_is_one():
    cluster, model, plan, profiles = uniform_pipeline(1, 0.010, 0.0)
    cfg = engine_config(plan, model, max_batched_tokens=10, max_batch_size=4)
    trace = Trace(
        requests=[Request(id=0, arrival_time=1.0, input_len=1, output_len=1)]
    )
    result = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert measure_bubble(result, 0, 0.0, 0.5) == 1.0  # nothing ran yet


def test_fixed_two_microbatches_show_one_third_bubble():
    cluster, model, plan, profiles = desk_pipeline()
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4, n_max=2)
    result = PipelineEngine(cfg, cluster, profiles).run(
        stationary_decode_trace(12), horizon_s=0.4
    )
    measured = measure_bubble(result, 0, 0.09, 0.39)
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
        idle[label] = measure_bubble(result, 0, 0.09, 0.39)
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
        assert measure_bubble(result, 0, w0, w1) <= 1e-9
        assert result.decisions[0][1].n_microbatches == S


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
    assert result.token_emissions


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
        StageProfile(stage_id=i, layers=1, entries={
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
    for field in ("events", "link_events", "decisions", "token_emissions"):
        assert getattr(result, field) == getattr(reference, field), field
    # A second run starts from an empty memo and decides the same keys again.
    first, decided[:] = list(decided), []
    assert engine.run(trace).events == result.events
    assert decided == first


def chunked_three_stage_engine():
    cluster, model, plan, profiles = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e7, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=256, max_batch_size=8, chunk_size=4096
    )
    return PipelineEngine(cfg, cluster, profiles)


@pytest.mark.parametrize("horizon_s", [None, 0.3])
def test_link_events_are_logged_in_time_order(horizon_s):
    # Writers and replay rely on this: the run hands the log over unsorted.
    trace = generate_trace(rate=30.0, duration=1.0, seed=8)
    result = chunked_three_stage_engine().run(trace, horizon_s=horizon_s)
    times = [e.time_ns for e in result.link_events]
    assert any(e.chunk_index > 0 for e in result.link_events)
    assert times == sorted(times)
    if horizon_s is not None:
        assert not result.all_finished
        assert times[-1] <= s_to_ns(horizon_s)


def test_logged_event_kinds_are_members():
    trace = generate_trace(rate=30.0, duration=1.0, seed=8)
    result = chunked_three_stage_engine().run(trace)
    assert {type(e.kind) for e in result.events} == {EventKind}
    assert {e.kind for e in result.events} == set(EventKind)


# -- the head scheduler, driven without a clock --------------------------------


def scheduler_setup(decision_stride=1, scheduler=HeadScheduler):
    cluster, model, plan, _ = uniform_pipeline(
        3, 0.002, 0.001, bandwidth=1e7, hidden_dim=64, dtype_bytes=2
    )
    # Prefill costs twice decode, so the micro-batch count moves with the phase.
    profiles = [
        StageProfile(stage_id=i, layers=1, entries={
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
    sched.pending.extend(sched.requests.values())
    return sched, trace


def drive(sched, rng):
    """Run to completion, returning in-flight micro-batches in random order."""
    now = 0
    while sched.unfinished:
        batches = sched.dispatch(now)
        if batches:
            cap = sched.decisions[-1][1].n_microbatches
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
    assert len({d.n_microbatches for _, d in sched.decisions}) > 1
    for seed_req in trace.requests:
        req = sched.requests[seed_req.id]
        assert req.state is RequestState.FINISHED
        assert req.tokens_emitted == req.output_len == seed_req.output_len
        assert req.first_token_time is not None and req.finish_time is not None
        assert seed_req.state is RequestState.QUEUED and seed_req.tokens_emitted == 0
    assert len(sched.token_emissions) == sum(r.output_len for r in trace.requests)


def test_head_scheduler_reuses_the_decision_between_strides():
    stride = 3
    sched, _ = scheduler_setup(stride, scheduler=UnmemoisedScheduler)
    drive(sched, random.Random(2))
    decisions = [d for _, d in sched.decisions]
    assert len(decisions) > 3 * stride
    # Without a memo every fresh decision is a new object, so identity shows
    # exactly where the last decision was reused.
    for i in range(1, len(decisions)):
        assert (decisions[i] is decisions[i - 1]) == (i % stride != 0), i
