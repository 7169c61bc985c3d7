"""Whole-engine invariants on random rings, configs and traces.

One strategy draws a whole scenario: 1-6 heterogeneous stages, links from
link-bound to effectively infinite bandwidth, chunking from none down to one
byte, both link policies, small controller caps, equal-ns arrivals, 1-token
requests and an optional horizon.  Every example checks causality (arrival,
first head compute and first token in order; no compute before its input
lands), stage FIFO order, disjoint busy intervals, the decision's cap on
micro-batches in flight, token conservation, bubbles in [0, 1], chunk
timings, the link invariants and ``replay_link`` parity on every link, and
that a second run logs the same.  Two metamorphic relations compare runs on
drawn rings that must agree: chunks no smaller than any payload against no
chunking, and every duration doubled against the original.  On rings whose
node names need CSV quoting, a run with a log sink saves the same files as
the writers make of the same run's rows, taken by a ``RowsSink``.  A stage's measured bubble equals
the one its busy intervals give when each is clipped to the window in turn.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.controller import BudgetMode, ControllerConfig
from pipelink.engine import (
    EngineConfig,
    EventKind,
    HeadScheduler,
    PipelineEngine,
    RunResult,
    measure_bubble,
)
from pipelink.outputs import LogSink
from pipelink.placement import ClusterSpec, ModelSpec, PartitionPlan
from pipelink.profiles import LinkProfile, Phase, StageProfile, synth_profile
from pipelink.transport import (
    TOKEN_FEEDBACK_BYTES,
    LinkPolicy,
    Payload,
    s_to_ns,
    transmission_ns,
)
from pipelink.workload import Request, Trace

from simsetup import (
    EngineEvent,
    LinkEvent,
    RowsSink,
    assert_sink_saves_the_rows,
    make_node,
    reference_measure_bubble,
    replay_link,
    run_recording_first_compute,
)
from test_transport import check_link_invariants


@st.composite
def stage_profiles(draw, stage_id):
    """A tabulated profile whose prefill may cost more than decode, or a synthetic one."""
    overhead_us = draw(st.integers(1, 5_000))
    per_token_us = draw(st.integers(0, 200))
    if draw(st.booleans()):
        return synth_profile(draw(st.integers(1, 8)), (per_token_us + 1) / 1e7,
                             overhead_us / 1e6, stage_id)
    prefill_factor = draw(st.integers(1, 4))
    return StageProfile(stage_id, {
        (phase, tokens): (overhead_us + per_token_us * tokens
                          * (prefill_factor if phase is Phase.PREFILL else 1)) / 1e6
        for phase in Phase for tokens in (1, 16, 64)
    })


exact_bandwidths = st.integers(1, 1000).map(lambda k: 1e9 / k) | st.just(1e18)


@st.composite
def scenarios(draw, exact=False, quoted=False):
    """(config, cluster, profiles, trace, horizon_s) for a random ring.

    Latencies are whole microseconds, arrivals and the horizon whole
    milliseconds, and compute times linear in batched tokens with whole-ns
    coefficients.  With ``exact``, a bandwidth is 1e9/k bytes/s for a whole
    k, or so high that every transmission takes 0 ns, so that every
    transmission time is a whole number of ns too.  With ``quoted``, node
    names may hold ``,`` and ``"``, so link names need CSV quoting.
    """
    num_stages = draw(st.integers(1, 6))
    prefix = draw(st.sampled_from(["s", "n,", 'q"', '"a, b" '])) if quoted else "s"
    names = [f"{prefix}{i}" for i in range(num_stages)]
    hops = list(zip(names, names[1:])) + [(names[-1], names[0])] if num_stages > 1 else []
    links = {
        (src, dst): LinkProfile(src, dst, draw(st.integers(0, 50_000)) / 1e6,
                                draw(exact_bandwidths if exact else st.floats(1e3, 1e18)))
        for src, dst in hops
    }
    cluster = ClusterSpec(nodes={n: make_node(n) for n in names}, links=links)
    model = ModelSpec("m", num_stages, draw(st.integers(1, 8)), draw(st.integers(1, 2)), 1)
    plan = PartitionPlan(stages=tuple((n, (i, i + 1)) for i, n in enumerate(names)),
                         head=names[0])
    controller = ControllerConfig(
        max_batched_tokens=draw(st.integers(1, 32)),
        max_batch_size=draw(st.integers(1, 8)),
        n_max=draw(st.none() | st.integers(1, 4)),
        mode=draw(st.sampled_from(BudgetMode)),
        decision_stride=draw(st.integers(1, 4)),
    )
    cfg = EngineConfig(plan, model, controller,
                       chunk_size=draw(st.none() | st.integers(1, 4096)),
                       scheduling_policy=draw(st.sampled_from(LinkPolicy)))
    profiles = [draw(stage_profiles(i)) for i in range(num_stages)]
    # Whole milliseconds, so that arrivals often share a nanosecond.
    arrivals = sorted(draw(st.lists(st.integers(0, 20), min_size=1, max_size=8)))
    trace = Trace(requests=[
        Request(i, ms / 1000, draw(st.integers(1, 24)), draw(st.integers(1, 6)))
        for i, ms in enumerate(arrivals)
    ])
    horizon_s = draw(st.none() | st.integers(0, 2_000).map(lambda ms: ms / 1000))
    return cfg, cluster, profiles, trace, horizon_s


def check_requests(result, first_compute_ns, horizon_s):
    for r in result.requests:
        assert 0 <= r.tokens_emitted <= r.output_len
        assert (r.finish_time is not None) == (r.tokens_emitted == r.output_len)
        if r.id in first_compute_ns:
            assert s_to_ns(r.arrival_time) <= first_compute_ns[r.id]
        if r.tokens_emitted:
            assert first_compute_ns[r.id] <= s_to_ns(r.first_token_time)
            assert r.first_token_time <= (r.finish_time or r.first_token_time)
    assert result.all_finished == all(r.finish_time is not None for r in result.requests)
    assert result.all_finished or horizon_s is not None


def check_stages(result, done, horizon_ns):
    """Each stage computes one micro-batch at a time, once each; ``done`` is
    per stage the compute-done rows in log order."""
    for busy, rows in zip(result.stage_busy_ns, done):
        assert all(s <= e for s, e in busy)
        assert all(e0 <= s1 for (_, e0), (s1, _) in zip(busy, busy[1:]))
        assert [e for _, e in busy[:len(rows)]] == [row.time_ns for row in rows]
        # One more interval only when the horizon cut a compute short.
        assert len(busy) - len(rows) in ((0, 1) if horizon_ns is not None else (0,))
        assert len({row.subject for row in rows}) == len(rows)


def check_links(engine, result, events, done, horizon_ns):
    """Per hop: link invariants, ``replay_link`` parity, causality across the
    hop and FIFO order at the stage it feeds; and token conservation at the head."""
    cfg, num_stages = engine.cfg, len(engine.stage_profiles)
    for hop, profile in enumerate(engine.link_profiles):
        rows = [row for row in result.link_events if row[1] == profile.name]
        views = [LinkEvent.of(row) for row in rows]
        enqueued = [e for e in views if e.event == "enqueue"]
        replayed = replay_link(
            profile, [(e.time_ns, Payload(e.payload_id, e.phase, e.size_bytes)) for e in enqueued],
            cfg.chunk_size, cfg.scheduling_policy,
        )
        check_link_invariants(replayed, cfg.scheduling_policy)
        if horizon_ns is None:
            assert replayed == rows
        else:
            assert [row for row in replayed if row[0] <= horizon_ns] == rows

        # A chunk is on the wire for its transmission time, then in flight
        # for the link's latency.
        at = {(e.event, e.payload_id, e.chunk_index): e.time_ns for e in views}
        for e in views:
            if e.event == "sent":
                took = e.time_ns - at["emit", e.payload_id, e.chunk_index]
                assert took == transmission_ns(profile, e.size_bytes)
            elif e.event == "deliver":
                took = e.time_ns - at["sent", e.payload_id, e.chunk_index]
                assert took == s_to_ns(profile.latency_s)

        # Stage ``hop`` sends each micro-batch it finishes at that moment.
        assert [e.time_ns for e in enqueued] == [row.time_ns for row in done[hop]]
        mb_of = {e.payload_id: row.subject for e, row in zip(enqueued, done[hop])}
        dst = (hop + 1) % num_stages
        delivered = [e for e in events
                     if e.kind is EventKind.PAYLOAD_DELIVERED and e.stage == dst]
        landed = {e.payload_id: e.time_ns for e in views if e.event == "deliver"}
        assert all(landed[e.subject] == e.time_ns for e in delivered)
        if dst == 0:
            fed_back = sum(e.size_bytes // TOKEN_FEEDBACK_BYTES for e in views
                           if e.event == "deliver")
            assert fed_back == sum(r.tokens_emitted for r in result.requests)
            continue
        # FIFO at the destination stage, and no compute before its input lands.
        order = [mb_of[e.subject] for e in delivered]
        assert [row.subject for row in done[dst]] == order[:len(done[dst])]
        starts = [s for s, _ in result.stage_busy_ns[dst]]
        assert all(start >= e.time_ns for start, e in zip(starts, delivered))
        if horizon_ns is None:
            assert len(order) == len(done[dst])


def dispatch_within_decision(dispatch):
    """``HeadScheduler.dispatch``, checking that it never puts more micro-batches
    in flight than the decision it dispatched under allows."""

    def checked(self):
        batches = dispatch(self)
        if batches:
            assert len(self.in_flight) <= self.decisions[-1].n_microbatches
        return batches

    return checked


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_engine_invariants_hold_on_random_rings(scenario):
    cfg, cluster, profiles, trace, horizon_s = scenario
    engine = PipelineEngine(cfg, cluster, profiles)
    horizon_ns = None if horizon_s is None else s_to_ns(horizon_s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HeadScheduler, "dispatch", dispatch_within_decision(HeadScheduler.dispatch))
        result, first_compute_ns = run_recording_first_compute(
            engine, trace, horizon_s=horizon_s, sink=RowsSink())

    events = [EngineEvent.of(row) for row in result.events]
    times = [e.time_ns for e in events] + [row[0] for row in result.link_events]
    assert all(t <= result.end_ns for t in times)
    assert horizon_ns is None or result.end_ns <= horizon_ns
    check_requests(result, first_compute_ns, horizon_s)
    if result.end_ns > 0:
        for stage_id in range(len(profiles)):
            assert 0.0 <= measure_bubble(result, stage_id, 0, result.end_ns) <= 1.0
    done = [[e for e in events if e.kind is EventKind.COMPUTE_DONE and e.stage == s]
            for s in range(len(engine.stage_profiles))]
    check_stages(result, done, horizon_ns)
    check_links(engine, result, events, done, horizon_ns)

    again = PipelineEngine(cfg, cluster, profiles).run(trace, horizon_s=horizon_s,
                                                       sink=RowsSink())
    assert again.events == result.events
    assert again.link_events == result.link_events
    assert again.decisions == result.decisions
    assert again.stage_busy_ns == result.stage_busy_ns
    assert again.tokens_by_request() == result.tokens_by_request()
    assert again.end_ns == result.end_ns


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=scenarios(quoted=True))
def test_a_sink_saves_the_logs_the_writers_make_of_the_rows(scenario, tmp_path_factory):
    # The drawn horizon is none or a cut, which may stop the run mid-flight.
    cfg, cluster, profiles, trace, horizon_s = scenario
    rows = PipelineEngine(cfg, cluster, profiles).run(trace, horizon_s=horizon_s,
                                                      sink=RowsSink())
    held = PipelineEngine(cfg, cluster, profiles).run(trace, horizon_s=horizon_s,
                                                      sink=LogSink())
    assert_sink_saves_the_rows(rows, held, tmp_path_factory.mktemp("sink", numbered=True))
    assert (held.decisions, held.stage_busy_ns, held.end_ns) == (
        rows.decisions, rows.stage_busy_ns, rows.end_ns)


# Metamorphic relations: two runs that must agree, with no oracle for either.


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=scenarios(), slack=st.integers(0, 4096))
def test_a_chunk_as_large_as_every_payload_is_no_chunking(scenario, slack):
    cfg, cluster, profiles, trace, horizon_s = scenario
    unchunked = PipelineEngine(replace(cfg, chunk_size=None), cluster, profiles).run(
        trace, horizon_s=horizon_s, sink=RowsSink())
    largest = max((row[4] for row in unchunked.link_events), default=1)
    chunked = PipelineEngine(replace(cfg, chunk_size=largest + slack), cluster, profiles).run(
        trace, horizon_s=horizon_s, sink=RowsSink())
    assert chunked.events == unchunked.events
    assert chunked.link_events == unchunked.link_events
    assert chunked.decisions == unchunked.decisions


def doubled(profile):
    return StageProfile(profile.stage_id, {k: 2 * s for k, s in profile.entries.items()})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=scenarios(exact=True))
def test_doubling_every_duration_doubles_every_time(scenario):
    # Every duration is a whole number of ns (see ``scenarios``), so doubling
    # it, and halving every bandwidth, rounds to exactly twice the ns.
    cfg, cluster, profiles, trace, horizon_s = scenario
    slow_cluster = ClusterSpec(cluster.nodes, {
        key: LinkProfile(link.src, link.dst, 2 * link.latency_s, link.bandwidth_bps / 2)
        for key, link in cluster.links.items()
    })
    slow_trace = Trace(requests=[replace(r, arrival_time=2 * r.arrival_time)
                                 for r in trace.requests])
    base = PipelineEngine(cfg, cluster, profiles).run(trace, horizon_s=horizon_s,
                                                      sink=RowsSink())
    slow = PipelineEngine(cfg, slow_cluster, [doubled(p) for p in profiles]).run(
        slow_trace, horizon_s=None if horizon_s is None else 2 * horizon_s, sink=RowsSink())
    assert slow.events == [(2 * t, *rest) for t, *rest in base.events]
    assert slow.link_events == [(2 * t, *rest) for t, *rest in base.link_events]
    assert slow.stage_busy_ns == [[(2 * s, 2 * e) for s, e in busy]
                                  for busy in base.stage_busy_ns]
    assert slow.end_ns == 2 * base.end_ns
    assert slow.tokens_by_request() == base.tokens_by_request()
    assert slow.decisions == base.decisions  # so decisions.csv is byte-equal


@st.composite
def busy_windows(draw):
    """A stage's sorted, disjoint busy intervals, some empty and some
    touching, the run's end, and a window in the run whose ends are drawn
    at, beside, inside or away from the interval edges."""
    intervals, t = [], draw(st.integers(0, 50))
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                                     max_size=12)):
        intervals.append((t + gap, t + gap + length))
        t += gap + length
    end_ns = t + draw(st.integers(1, 50))
    edges = [edge + d for interval in intervals for edge in interval for d in (-1, 0, 1)]
    points = (st.sampled_from([0, end_ns, *edges]) | st.integers(0, end_ns)).map(
        lambda p: min(max(p, 0), end_ns))
    t0, t1 = sorted(draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    return intervals, end_ns, t0, t1


@settings(max_examples=500, deadline=None)
@given(drawn=busy_windows())
def test_measure_bubble_matches_the_clipped_loop(drawn):
    intervals, end_ns, t0, t1 = drawn
    result = RunResult([], [], [], [], [intervals], end_ns, True)
    assert measure_bubble(result, 0, t0, t1) == reference_measure_bubble(intervals, t0, t1)
