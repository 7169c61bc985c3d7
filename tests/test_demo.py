import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipelink.demo
from pipelink.demo import run_socket_demo
from pipelink.engine import PipelineEngine
from pipelink.errors import ProtocolError
from pipelink.transport import LinkPolicy
from pipelink.workload import Request, Trace

from simsetup import engine_config, uniform_pipeline


def two_stage(policy, chunk_size, decision_stride, allow_mixed):
    cluster, model, plan, profiles = uniform_pipeline(
        2, 0.001, 0.001, bandwidth=1e9, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(
        plan, model, max_batched_tokens=64, max_batch_size=4,
        chunk_size=chunk_size, scheduling_policy=policy,
        allow_mixed_phase=allow_mixed,
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
    allow_mixed=st.booleans(),
)
def test_socket_demo_matches_virtual_run(
    trace, policy, chunk_size, decision_stride, allow_mixed
):
    cfg, cluster, profiles = two_stage(policy, chunk_size, decision_stride, allow_mixed)
    virtual = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert virtual.all_finished
    live = run_socket_demo(cfg, cluster, profiles, trace, timeout_s=10.0)
    assert live == virtual.tokens_by_request()
    assert live == {r.id: r.output_len for r in trace.requests}


def _silent_tail(forward_sock, return_sender):
    forward_sock.close()  # takes the activation stream down without replying
    return_sender.close()


def test_silent_tail_raises_protocol_error(monkeypatch):
    monkeypatch.setattr(pipelink.demo, "_tail_worker", _silent_tail)
    cfg, cluster, profiles = two_stage(LinkPolicy.DECODE_PRIORITY, None, 1, False)
    trace = Trace(requests=[Request(id=0, arrival_time=0.0, input_len=4, output_len=3)])
    start = time.monotonic()
    with pytest.raises(ProtocolError):
        run_socket_demo(cfg, cluster, profiles, trace, timeout_s=0.5)
    assert time.monotonic() - start < 5.0
