"""Shared builders for engine-level tests."""

from pipelink.controller import ControllerConfig
from pipelink.engine import EngineConfig
from pipelink.placement import (
    ClusterSpec,
    ModelSpec,
    NodeDescriptor,
    PartitionPlan,
    Platform,
)
from pipelink.profiles import LinkProfile, flat_profile
from pipelink.transport import TOKEN_FEEDBACK_BYTES, s_to_ns
from pipelink.workload import Request, Trace


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
        for e in result.link_events
        if e.link == return_link and e.event == "deliver" and t0 <= e.time_ns < t1
    )
