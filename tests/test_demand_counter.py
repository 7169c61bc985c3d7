"""The head scheduler's running demand counter, recounted at every step.

``HeadScheduler.demand`` is kept as a running sum; a scheduler that recounts
it from its queues after every arrival, dispatch and feedback is patched in
where the engine and the socket demo create theirs.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipelink.demo
import pipelink.engine
import test_demo
import test_golden
from pipelink.demo import run_socket_demo
from pipelink.engine import HeadScheduler, PipelineEngine
from pipelink.transport import LinkPolicy


class RecountingScheduler(HeadScheduler):
    """Asserts that ``demand`` equals ready requests + in-flight batched
    tokens + pending input tokens after every step."""

    checks = 0

    def _check(self):
        recount = len(self.ready)
        recount += sum(mb.batched_tokens for mb in self.in_flight.values())
        recount += sum(r.input_len for r in self.pending)
        assert self.demand == recount
        RecountingScheduler.checks += 1

    def arrive(self, req):
        super().arrive(req)
        self._check()

    def dispatch(self):
        batches = super().dispatch()
        self._check()
        return batches

    def feedback(self, mb, now_ns):
        super().feedback(mb, now_ns)
        self._check()


@contextlib.contextmanager
def recounting():
    before = RecountingScheduler.checks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipelink.engine, "HeadScheduler", RecountingScheduler)
        mp.setattr(pipelink.demo, "HeadScheduler", RecountingScheduler)
        yield
    assert RecountingScheduler.checks > before


@pytest.mark.parametrize("case", sorted(test_golden.CASES))
def test_demand_counter_on_golden_configs(case, tmp_path, capsys):
    with recounting():
        assert test_golden._simulate(case, tmp_path) == test_golden.GOLDEN[case]


@settings(max_examples=15, deadline=None)
@given(
    trace=test_demo.requests,
    policy=st.sampled_from(LinkPolicy),
    chunk_size=st.sampled_from([None, 256]),
    decision_stride=st.sampled_from([1, 3]),
    stages=st.sampled_from([2, 3, 4]),
)
def test_demand_counter_on_socket_and_virtual_runs(
    trace, policy, chunk_size, decision_stride, stages
):
    cfg, cluster, profiles = test_demo.two_stage(policy, chunk_size, decision_stride, stages)
    with recounting():
        virtual = PipelineEngine(cfg, cluster, profiles).run(trace)
        live = run_socket_demo(cfg, cluster, profiles, trace, timeout_s=10.0)
    assert live == virtual.tokens_by_request()
