import contextlib
import dataclasses
import os
import queue
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipelink.demo
import pipelink.engine
from pipelink.demo import run_socket_demo
from pipelink.engine import HeadScheduler, PipelineEngine, ring_links
from pipelink.errors import ConfigError, ProtocolError
from pipelink.profiles import Phase
from pipelink.transport import LinkPolicy, Payload, activation_bytes, feedback_bytes
from pipelink.wire import (
    FLAG_DECODE,
    FLAG_LAST,
    PayloadReader,
    SocketLinkSender,
    encode_frame,
    loopback_pair,
    receive_payloads,
)
from pipelink.workload import Request, Trace

from simsetup import engine_config, uniform_pipeline


def two_stage(policy, chunk_size, decision_stride, stages=2, hidden_dim=64):
    cluster, model, plan, profiles = uniform_pipeline(
        stages, 0.001, 0.001, bandwidth=1e9, hidden_dim=hidden_dim, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=64, max_batch_size=4,
        chunk_size=chunk_size, scheduling_policy=policy,
    )
    cfg = dataclasses.replace(cfg, controller=dataclasses.replace(
        cfg.controller, decision_stride=decision_stride
    ))
    return cfg, cluster, profiles


requests = st.lists(
    st.tuples(st.integers(1, 80), st.integers(1, 6)), min_size=1, max_size=12
).map(lambda lens: Trace(requests=[
    Request(id=i, arrival_time=0.001 * i, input_len=n_in, output_len=n_out)
    for i, (n_in, n_out) in enumerate(lens)
]))


@settings(max_examples=30, deadline=None)
@given(
    trace=requests,
    policy=st.sampled_from(LinkPolicy),
    chunk_size=st.sampled_from([None, 256]),
    decision_stride=st.sampled_from([1, 3]),
    stages=st.sampled_from([2, 3, 4]),
)
def test_socket_demo_matches_virtual_run(
    trace, policy, chunk_size, decision_stride, stages
):
    cfg, cluster, profiles = two_stage(policy, chunk_size, decision_stride, stages)
    virtual = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert virtual.all_finished
    live = run_socket_demo(cfg, cluster, profiles, trace, timeout_s=10.0)
    assert live == virtual.tokens_by_request()
    assert live == {r.id: r.output_len for r in trace.requests}


@pytest.mark.parametrize("interval", [1e-6, 0.05], ids=["switch-1us", "switch-50ms"])
@pytest.mark.parametrize("chunk_size, stages", [(256, 3), (None, 2)], ids=["chunked", "unchunked"])
def test_socket_demo_matches_virtual_run_however_its_threads_interleave(
    interval, chunk_size, stages
):
    # A thread holds the GIL for about ``interval``: at 1 us the head's and
    # the stages' reads and writes meet between almost any two bytecodes, at
    # 50 ms each thread runs long before it is made to yield.
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, chunk_size, 1, stages)
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=1 + 7 * i % 40, output_len=1 + i % 5)
        for i in range(96)
    ])
    virtual = PipelineEngine(cfg, cluster, profiles).run(trace)
    before = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        live = run_socket_demo(cfg, cluster, profiles, trace, timeout_s=30.0)
    finally:
        sys.setswitchinterval(before)
    assert live == virtual.tokens_by_request()
    assert live == {r.id: r.output_len for r in trace.requests}


class CountingSocket(socket.socket):
    """A socket that counts the writes that found too little room in its
    buffer for all their bytes."""

    cut_writes = 0

    def send(self, data, flags=0):
        try:
            sent = super().send(data, flags)
        except BlockingIOError:
            CountingSocket.cut_writes += 1
            raise
        if sent < len(data):
            CountingSocket.cut_writes += 1
        return sent

    def sendall(self, data, flags=0):
        # A write that waits for room is counted as cut when the kernel
        # cannot take all of it at once.
        try:
            sent = self.send(data, flags | socket.MSG_DONTWAIT)
        except BlockingIOError:
            sent = 0
        super().sendall(memoryview(data)[sent:], flags)


def small_buffered_pair():
    """A loopback pair of CountingSockets whose buffers are 32 KiB: with
    2 KiB tokens a micro-batch's activation outgrows them, so writes find
    too little room and their rest waits for it."""
    pair = []
    for sock in loopback_pair():
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32 << 10)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 << 10)
        pair.append(CountingSocket(fileno=sock.detach()))
    return tuple(pair)


@pytest.mark.parametrize("chunk_size", [None, 8192], ids=["unchunked", "chunked"])
@pytest.mark.parametrize("stages", [2, 3, 4])
def test_socket_demo_matches_virtual_run_when_writes_fill_the_socket_buffers(
    monkeypatch, stages, chunk_size
):
    # Smaller buffers than 32 KiB make TCP zero-window stalls: a run then
    # crawls, however it writes.
    monkeypatch.setattr(pipelink.demo, "loopback_pair", small_buffered_pair)
    monkeypatch.setattr(CountingSocket, "cut_writes", 0)
    cfg, cluster, profiles = two_stage(
        LinkPolicy.DECODE_PRIORITY, chunk_size, 1, stages, hidden_dim=1024
    )
    assert cfg.model.bytes_per_token == 2048
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=1 + 13 * i % 64, output_len=1 + i % 4)
        for i in range(32)
    ])
    virtual = PipelineEngine(cfg, cluster, profiles).run(trace)
    live = run_socket_demo(cfg, cluster, profiles, trace, timeout_s=30.0)
    assert live == virtual.tokens_by_request()
    assert live == {r.id: r.output_len for r in trace.requests}
    assert CountingSocket.cut_writes > 0


def test_live_payloads_have_the_simulator_sizes(monkeypatch):
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, 256, 1, stages=3)
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=1 + 7 * i % 40, output_len=1 + i % 5)
        for i in range(24)
    ])
    batches, sent = {}, []
    admit_and_batch, send = pipelink.engine.admit_and_batch, SocketLinkSender.send

    def recording_admit(*args, **kwargs):
        formed = admit_and_batch(*args, **kwargs)
        batches.update((mb.id, mb) for mb in formed)
        return formed

    def recording_send(self, items):
        sent.extend((self.name, payload, len(body)) for payload, body in items)
        return send(self, items)

    monkeypatch.setattr(pipelink.engine, "admit_and_batch", recording_admit)
    monkeypatch.setattr(SocketLinkSender, "send", recording_send)
    live = run_socket_demo(cfg, cluster, profiles, trace, timeout_s=10.0)
    assert live == {r.id: r.output_len for r in trace.requests}
    bpt = cfg.model.bytes_per_token
    expected = {
        name: {mb_id: size(mb) for mb_id, mb in batches.items()}
        for name, size in [
            ("hop0-sender", lambda mb: activation_bytes(mb.batched_tokens, bpt)),
            ("hop1-sender", lambda mb: activation_bytes(mb.batched_tokens, bpt)),
            ("hop2-sender", lambda mb: feedback_bytes(len(mb.request_ids))),
        ]
    }
    assert {(name, p.id) for name, p, _ in sent} == {
        (name, mb_id) for name in expected for mb_id in batches
    }
    for name, payload, body_len in sent:
        assert payload.size_bytes == body_len == expected[name][payload.id]


def _silent_tail(forward_sock, return_sender):
    forward_sock.close()  # takes the activation stream down without replying
    return_sender.close()


def test_silent_tail_raises_protocol_error(monkeypatch):
    monkeypatch.setattr(pipelink.demo, "_tail_worker", _silent_tail)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=4, output_len=3)])
    start = time.monotonic()
    with pytest.raises(ProtocolError):
        run_socket_demo(cfg, cluster, profiles, trace, timeout_s=0.5)
    assert time.monotonic() - start < 5.0


def test_dead_tail_raises_protocol_error_at_once(monkeypatch):
    # The return stream ends, so no feedback can come: waiting out
    # timeout_s would only delay the error.
    monkeypatch.setattr(pipelink.demo, "_tail_worker", _silent_tail)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=4, output_len=3)])
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="closed the return stream"):
        run_socket_demo(cfg, cluster, profiles, trace, timeout_s=60.0)
    assert time.monotonic() - start < 5.0


def test_mute_tail_raises_protocol_error_after_timeout(monkeypatch):
    release = threading.Event()

    def mute_tail(forward_sock, return_sender):
        release.wait(5.0)  # both streams stay open, but nothing comes back
        return_sender.close()

    monkeypatch.setattr(pipelink.demo, "_tail_worker", mute_tail)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=4, output_len=3)])
    start = time.monotonic()
    try:
        with pytest.raises(ProtocolError, match="no feedback"):
            run_socket_demo(cfg, cluster, profiles, trace, timeout_s=1.0)
        # One wait of timeout_s, not more waits to join the held-up stages.
        assert time.monotonic() - start < 1.5
    finally:
        release.set()



def test_socket_demo_refuses_fewer_than_two_stages():
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1, stages=1)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=4, output_len=3)])
    with pytest.raises(ConfigError, match="at least two stages"):
        run_socket_demo(cfg, cluster, profiles, trace)


def test_relay_that_closes_its_input_mid_run_fails_the_head_at_once(monkeypatch):
    class Stop(Exception):
        pass

    def closing_relay(in_sock, out_sender):
        # Pass the first burst on, then take the input stream down.
        def on_payloads(items):
            out_sender.send(items)
            raise Stop

        try:
            receive_payloads(in_sock, on_payloads, out_sender)
        except Stop:
            in_sock.shutdown(socket.SHUT_RDWR)
            in_sock.close()
        finally:
            out_sender.close()

    monkeypatch.setattr(pipelink.demo, "_relay", closing_relay)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1, stages=3)
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=4, output_len=5) for i in range(4)
    ])
    start = time.monotonic()
    with pytest.raises(ProtocolError):
        run_socket_demo(cfg, cluster, profiles, trace, timeout_s=60.0)
    assert time.monotonic() - start < 5.0


def relay_failing_after_one(in_sock, out_sender):
    # Pass the first burst on, then fail as a refused frame would.
    def on_payloads(items):
        out_sender.send(items)
        raise ProtocolError("payload 7: unknown flag bits 0x4")

    receive_payloads(in_sock, on_payloads, out_sender)


def crashing_tail(forward_sock, return_sender):
    def on_payloads(items):
        raise RuntimeError("tail crashed")

    receive_payloads(forward_sock, on_payloads, return_sender)


@pytest.mark.parametrize("stage, work, match", [
    ("_relay", relay_failing_after_one,
     "relay 1 failed: ProtocolError: payload 7: unknown flag bits 0x4"),
    ("_tail_worker", crashing_tail, "tail failed: RuntimeError: tail crashed"),
], ids=["relay-protocol-error", "tail-runtime-error"])
def test_a_failing_stage_reaches_the_head_by_name(monkeypatch, stage, work, match):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", lambda args: hooked.append(args))
    monkeypatch.setattr(pipelink.demo, stage, work)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1, stages=3)
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=4, output_len=5) for i in range(4)
    ])
    before = set(threading.enumerate())
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=match):
        run_socket_demo(cfg, cluster, profiles, trace, timeout_s=60.0)
    assert time.monotonic() - start < 5.0
    # Every stage ends once the head has shut the sockets, and none of them
    # leaves an exception to the hook.
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=5.0)
        assert not thread.is_alive(), thread.name
    assert hooked == []


class ResetHop:
    """A hop's socket whose peer has reset it: every write fails."""

    def __init__(self, sock):
        self.sock = sock

    def send(self, data, flags):
        raise ConnectionResetError("peer reset")

    def fileno(self):
        return self.sock.fileno()

    def shutdown(self, how):
        self.sock.shutdown(how)


def test_a_stage_whose_sender_failed_reaches_the_head_by_name_at_once(monkeypatch):
    # A failed sender leaves its stream open, but the relay, having put its
    # report, cuts its out hop: EOF comes down the ring, and the head raises
    # the relay's report without waiting out timeout_s.
    def sender(sock, chunk_size, policy, name):
        hop = ResetHop(sock) if name == "hop1-sender" else sock
        return SocketLinkSender(hop, chunk_size, policy, name)

    def relay_sending_twice(in_sock, out_sender):
        def on_payloads(items):
            out_sender.send(items)  # its write fails, and the sender records why
            out_sender.send(items)  # refused

        receive_payloads(in_sock, on_payloads, out_sender)

    monkeypatch.setattr(pipelink.demo, "SocketLinkSender", sender)
    monkeypatch.setattr(pipelink.demo, "_relay", relay_sending_twice)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1, stages=3)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=4, output_len=3)])
    start = time.monotonic()
    match = "relay 1 failed: ProtocolError: hop1-sender: peer gone"
    with pytest.raises(ProtocolError, match=match):
        run_socket_demo(cfg, cluster, profiles, trace, timeout_s=60.0)
    assert time.monotonic() - start < 5.0


def in_flight_scheduler():
    """A head scheduler with at least two micro-batches in flight."""
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1)
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=30, output_len=3)
        for i in range(12)
    ])
    sched = HeadScheduler(
        cfg, profiles, ring_links(cfg.partition, cluster), trace.requests
    )
    for req in sched.requests.values():
        sched.arrive(req)
    while sched.dispatch():
        pass
    assert len(sched.in_flight) >= 2
    return sched


def feedback_for(mb_id):
    return Payload(mb_id, Phase.DECODE, 1)


def frame_of(feedback):
    """The frame the tail sends ``feedback`` in."""
    return encode_frame(feedback.id, 0, FLAG_LAST | FLAG_DECODE, bytes(feedback.size_bytes))


@contextlib.contextmanager
def return_hop(sched):
    """A loopback return hop: yields its two ends and the head's reader of
    its head end, which applies feedback to ``sched`` and has an out sender
    with nothing to send."""
    tail_end, head_end = loopback_pair()
    idle = SocketLinkSender(tail_end, None, LinkPolicy.DECODE_PRIORITY, "idle")
    try:
        yield tail_end, head_end, PayloadReader(head_end, pipelink.demo._feedback_to(sched), idle)
    finally:
        tail_end.close()
        head_end.close()


def test_apply_feedback_applies_every_queued_feedback_at_once():
    sched = in_flight_scheduler()
    with return_hop(sched) as (tail_end, head_end, returns):
        frames = [frame_of(feedback_for(mb_id)) for mb_id in sched.in_flight]
        for frame in frames:
            tail_end.sendall(frame)
        # Returns once every frame is in the head end's socket buffer.
        head_end.recv(sum(map(len, frames)), socket.MSG_PEEK | socket.MSG_WAITALL)
        pipelink.demo._apply_feedback(returns, queue.Queue(), timeout_s=1.0)
        assert sched.in_flight == {}
        assert returns.read(timeout_s=0.0) is False  # nothing was left unread


class ClosingSender:
    """An out sender, and its socket, that note how many end reports were
    queued when the sender closed and when the socket was cut."""

    def __init__(self, reports):
        self.reports = reports
        self.queued_at_close = self.queued_at_cut = None

    def close(self):
        self.queued_at_close = self.reports.qsize()

    def shutdown(self, how):
        assert how == socket.SHUT_RDWR
        self.queued_at_cut = self.reports.qsize()


def end_report(name, error=None):
    """The end report ``_stage`` puts for stage ``name``, whose input ended or
    whose work raised ``error``."""

    def work(in_sock, out_sender):
        if error is not None:
            raise error

    reports = queue.Queue()
    out = ClosingSender(reports)
    pipelink.demo._stage(name, work, None, out, out, reports)
    assert out.queued_at_close == 1  # queued before EOF goes downstream
    # A stage that failed cuts its out hop, once its report is queued.
    assert out.queued_at_cut == (None if error is None else 1)
    return reports.get_nowait()


@pytest.mark.parametrize("bad, match", [
    (end_report("tail"), "closed the return stream"),
    (end_report("tail", ProtocolError("reset")), "tail failed: ProtocolError: reset"),
    (feedback_for(10**9), "unknown micro-batch"),
])
def test_apply_feedback_raises_on_a_bad_item_amid_good_ones(bad, match):
    # An end report stands for the ring closing the return stream after it
    # was queued; a feedback is sent in its frame.
    sched = in_flight_scheduler()
    first, second = list(sched.in_flight)[:2]
    reports = queue.Queue()
    with return_hop(sched) as (tail_end, _, returns):
        for item in (feedback_for(first), bad, feedback_for(second)):
            if isinstance(item, ProtocolError):
                reports.put(item)
                tail_end.shutdown(socket.SHUT_WR)
                break
            tail_end.sendall(frame_of(item))
        with pytest.raises(ProtocolError, match=match):
            for _ in range(3):  # the frames may come in more than one read
                pipelink.demo._apply_feedback(returns, reports, timeout_s=1.0)
        assert first not in sched.in_flight


def test_apply_feedback_without_an_end_report_names_the_ended_stream():
    sched = in_flight_scheduler()
    with return_hop(sched) as (tail_end, _, returns):
        tail_end.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="return stream ended, and no stage reported"):
            pipelink.demo._apply_feedback(returns, queue.Queue(), timeout_s=0.1)


@pytest.mark.parametrize("stages", [2, 3, 4])
def test_the_head_starts_no_thread_of_its_own(monkeypatch, stages):
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, 256, 1, stages)
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=20, output_len=3) for i in range(6)
    ])
    assert run_socket_demo(cfg, cluster, profiles, trace, timeout_s=10.0) == {
        r.id: r.output_len for r in trace.requests
    }
    # Only the n - 1 stages run threads: the head and every sender run in
    # the thread that owns them.
    assert sorted(started) == sorted([*(f"relay {i}" for i in range(1, stages - 1)), "tail"])
    assert len(started) == stages - 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_demo_runs_leave_no_descriptor_open():
    trace = Trace(requests=[
        Request(id=i, arrival_time=0.0, input_len=20, output_len=3) for i in range(3)
    ])
    configs = [
        two_stage(LinkPolicy.DECODE_PRIORITY, 256, 1, stages) for stages in (2, 3, 4)
    ]
    run_socket_demo(*configs[0], trace)  # lazily opened descriptors, once
    before = len(os.listdir("/proc/self/fd"))
    for run in range(20):
        run_socket_demo(*configs[run % 3], trace, timeout_s=10.0)
    assert len(os.listdir("/proc/self/fd")) == before
