"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import hashlib
import heapq
import json
import math
import random
import time
from collections import deque

import pytest

from pipelink.cli import main
from pipelink.controller import ControllerConfig, choose_n
from pipelink.engine import PipelineEngine, measure_bubble
from pipelink.errors import RegistryError
from pipelink.metrics import CostMode, CostModel, cost_profit_margin, summarize
from pipelink.placement import partition_layers, ModelSpec
from pipelink.profiles import LinkProfile, Phase, flat_profile
from pipelink.control_api import ClusterRegistry
from pipelink.demo import run_socket_demo
from pipelink.transport import Payload, s_to_ns
from pipelink.workload import Request, Trace, generate_trace

from simsetup import (
    RowsSink,
    engine_config,
    first_emit_delay_ns,
    make_node,
    plan_num_layers,
    replay_link,
    run_recording_first_compute,
    stationary_decode_trace,
    tokens_in_window,
    uniform_pipeline,
)
from test_transport import check_link_invariants, random_payload_schedule
from test_cli import write_cluster, write_run_config


def announce(criterion: str) -> None:
    print(f"[PASS] {criterion}")


# -- criterion 1: micro-batch search matches a brute-force enumerator ---------


def enumerator_bubble(num_stages: int, c_ns: int, hop_ns: int, n: int,
                      rounds: int = 50) -> float:
    """Independent schedule simulation: n micro-batches cycling for `rounds`
    laps over FIFO stages with flat compute and per-hop delay."""
    stage_free = [0] * num_stages
    heap = [(0, m, 0, 0) for m in range(n)]  # (ready_time, mb, stage, lap)
    heapq.heapify(heap)
    head_busy = []
    while heap:
        ready, mb, stage, lap = heapq.heappop(heap)
        start = max(ready, stage_free[stage])
        end = start + c_ns
        stage_free[stage] = end
        if stage == 0:
            head_busy.append((start, end))
        if stage == num_stages - 1:
            if lap + 1 < rounds:
                heapq.heappush(heap, (end + hop_ns, mb, 0, lap + 1))
        else:
            heapq.heappush(heap, (end + hop_ns, mb, stage + 1, lap))
    span0, span1 = head_busy[0][0], head_busy[-1][1]
    w0 = span0 + (span1 - span0) * 2 // 10
    w1 = span0 + (span1 - span0) * 8 // 10
    busy = sum(max(0, min(e, w1) - max(s, w0)) for s, e in head_busy)
    return 1.0 - busy / (w1 - w0)


def test_criterion_1_microbatch_search_matches_brute_force():
    started = time.monotonic()
    epsilon = 0.02
    c_s = 0.010
    c_ns = s_to_ns(c_s)
    for S in (2, 3, 4):
        for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
            hop_ns = s_to_ns(c_s * ratio)
            expected = next(
                (
                    n
                    for n in range(1, 2 * S + 1)
                    if enumerator_bubble(S, c_ns, hop_ns, n) <= epsilon
                ),
                2 * S,  # nothing in range clears the bubble: capped at n_max
            )
            profiles = [flat_profile(c_s, stage_id=i) for i in range(S)]
            names = [f"s{i}" for i in range(S)]
            hops = list(zip(names, names[1:])) + [(names[-1], names[0])]
            links = [LinkProfile(a, b, c_s * ratio, 1e18) for a, b in hops]
            cfg = ControllerConfig(
                max_batched_tokens=64, max_batch_size=64, n_max=2 * S,
                bubble_epsilon=epsilon,
            )
            got = choose_n(cfg, profiles, links, 64, Phase.DECODE).n_microbatches
            assert got == expected, f"S={S} t/c={ratio}: {got} != {expected}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce(f"criterion 1: search matches enumerator on 15 grid points "
             f"({elapsed:.2f}s)")


# -- criterion 2: dynamic micro-batch count beats the fixed pipeline degree ---


def _desk_run(n_max):
    cluster, model, plan, profiles = uniform_pipeline(2, 0.010, 0.005)
    cfg = engine_config(plan, model, max_batched_tokens=12, max_batch_size=4,
                        n_max=n_max)
    return PipelineEngine(cfg, cluster, profiles).run(
        stationary_decode_trace(12), horizon_s=0.4, sink=RowsSink()
    )


def test_criterion_2_dynamic_count_beats_fixed_degree():
    fixed = _desk_run(n_max=2)
    dynamic = _desk_run(n_max=None)
    assert dynamic.decisions[0].n_microbatches == 3
    w0, w1 = 0.09, 0.39
    tokens_fixed = tokens_in_window(fixed, "node1->node0", w0, w1)
    tokens_dynamic = tokens_in_window(dynamic, "node1->node0", w0, w1)
    gain = tokens_dynamic / tokens_fixed - 1.0
    assert abs(gain - 0.50) <= 0.02
    util_dynamic = 1.0 - measure_bubble(dynamic, 0, s_to_ns(w0), s_to_ns(w1))
    util_fixed = 1.0 - measure_bubble(fixed, 0, s_to_ns(w0), s_to_ns(w1))
    assert abs(util_dynamic - 1.0) <= 1e-9
    assert abs(util_fixed - 2 / 3) <= 1e-9
    announce(f"criterion 2: +{gain * 100:.1f}% throughput, utilization "
             f"{util_dynamic:.3f} vs {util_fixed:.3f}")


# -- criterion 3: chunking removes decode head-of-line blocking ----------------


def test_criterion_3_chunking_effect():
    started = time.monotonic()
    link = LinkProfile("a", "b", latency_s=0.010, bandwidth_bps=12_500_000)
    prompt_bytes = 1000 * 4096 * 2       # 1000-token prompt, fp16, hidden 4096
    decode_bytes = 4 * 4096 * 2          # 4-request decode step
    arrivals = [
        (0, Payload(0, Phase.PREFILL, prompt_bytes)),
        (0, Payload(1, Phase.DECODE, decode_bytes)),
    ]
    unchunked = replay_link(link, arrivals, chunk_size=None)
    chunked = replay_link(link, arrivals, chunk_size=262_144)
    delay_unchunked = first_emit_delay_ns(unchunked, 1) / 1e9
    delay_chunked = first_emit_delay_ns(chunked, 1) / 1e9
    residual = 262_144 / 12_500_000
    assert delay_unchunked >= 0.655
    assert delay_chunked <= 0.021 + residual
    assert delay_unchunked / delay_chunked >= 30.0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    announce(
        f"criterion 3: decode wait {delay_unchunked * 1e3:.1f}ms -> "
        f"{delay_chunked * 1e3:.2f}ms ({delay_unchunked / delay_chunked:.1f}x)"
    )


# -- criterion 4: zero-transfer identity ---------------------------------------


def test_criterion_4_zero_transfer_identity():
    for S in (1, 2, 3, 4):
        cluster, model, plan, profiles = uniform_pipeline(S, 0.010, 0.0)
        ctrl = ControllerConfig(
            max_batched_tokens=4 * S, max_batch_size=4, n_max=16,
            bubble_epsilon=0.0,
        )
        names = plan.node_names()
        hops = list(zip(names, names[1:])) + [(names[-1], names[0])]
        link_profiles = [cluster.link(a, b) for a, b in hops] if S >= 2 else []
        decision = choose_n(ctrl, profiles, link_profiles, 4 * S, Phase.DECODE)
        assert decision.n_microbatches == S
        cfg = engine_config(plan, model, max_batched_tokens=4 * S,
                            max_batch_size=4, n_max=16, bubble_epsilon=0.0)
        result = PipelineEngine(cfg, cluster, profiles).run(
            stationary_decode_trace(4 * S), horizon_s=0.6
        )
        w0 = 2 * S * 0.010
        w1 = w0 + 10 * S * 0.010
        utilization = 1.0 - measure_bubble(result, 0, s_to_ns(w0), s_to_ns(w1))
        assert abs(utilization - 1.0) <= 1e-9, f"S={S}"
    announce("criterion 4: transfers=0 gives n=S and utilization 1.0 for S in 1..4")


# -- criterion 5: byte-identical reruns ----------------------------------------


def test_criterion_5_determinism(tmp_path):
    write_cluster(tmp_path / "cluster.json")
    write_run_config(tmp_path / "run.json")
    digests = []
    for out in ("r1", "r2"):
        assert main(["simulate", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / out)]) == 0
        blob = b"".join(
            (tmp_path / out / name).read_bytes()
            for name in ("report.json", "events.csv", "transport.csv",
                         "decisions.csv")
        )
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]
    announce(f"criterion 5: identical run digest {digests[0][:12]}")


# -- criterion 6: metric identities --------------------------------------------


def test_criterion_6_metric_identities():
    cluster, model, plan, profiles = uniform_pipeline(
        2, 0.002, 0.001, bandwidth=1e8, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(plan, model, max_batched_tokens=128, max_batch_size=16,
                        chunk_size=8192)
    trace = generate_trace(rate=25.0, duration=1.5, seed=11)
    # make sure single-token outputs are present
    trace.requests[0].output_len = 1
    result, first_compute_ns = run_recording_first_compute(
        PipelineEngine(cfg, cluster, profiles), trace
    )
    report = summarize(result.requests)
    assert report.throughput_tok_s == report.total_tokens / report.span_s
    for r in result.requests:
        first_compute_s = first_compute_ns[r.id] / 1e9
        assert r.first_token_time - r.arrival_time >= first_compute_s - r.arrival_time >= 0
    manual_tpot = [
        (r.finish_time - r.first_token_time) / (r.output_len - 1)
        for r in result.requests
        if r.output_len >= 2
    ]
    assert len(manual_tpot) < len(result.requests)  # out=1 requests excluded
    assert report.tpot_mean_s == pytest.approx(sum(manual_tpot) / len(manual_tpot))
    announce("criterion 6: throughput identity exact, TTFT bound and TPOT "
             "exclusion hold")


# -- criterion 7: partitioning against the largest-remainder oracle ------------


def lr_oracle(weights, total_layers):
    quotas = [total_layers * w / sum(weights) for w in weights]
    counts = [math.floor(q) for q in quotas]
    extra = total_layers - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:extra]:
        counts[i] += 1
    while min(counts) < 1:
        zero = counts.index(0)
        donor = max(range(len(counts)), key=lambda j: (counts[j], -j))
        counts[donor] -= 1
        counts[zero] += 1
    return counts


def test_criterion_7_partitioning_10k_instances():
    rng = random.Random(2024)
    for trial in range(10_000):
        node_count = rng.randint(1, 8)
        layers = rng.randint(node_count, 120)
        nodes = [
            make_node(f"n{i}", capacity=rng.uniform(0.05, 8.0),
                      gpu_count=rng.randint(1, 8))
            for i in range(node_count)
        ]
        model = ModelSpec(name="m", num_layers=layers, hidden_dim=8,
                          dtype_bytes=2, bytes_per_layer=1)
        counts = partition_layers(nodes, model).layer_counts()
        assert sum(counts) == layers, f"trial {trial}"
        assert min(counts) >= 1, f"trial {trial}"
        weights = [n.capacity_score * n.gpu_count for n in nodes]
        assert counts == lr_oracle(weights, layers), f"trial {trial}"
    fixed_model = ModelSpec(name="m32", num_layers=32, hidden_dim=8,
                            dtype_bytes=2, bytes_per_layer=1)
    assert partition_layers(
        [make_node("a"), make_node("b")], fixed_model
    ).layer_counts() == [16, 16]
    fixed_model30 = ModelSpec(name="m30", num_layers=30, hidden_dim=8,
                              dtype_bytes=2, bytes_per_layer=1)
    assert partition_layers(
        [make_node("a", capacity=2.0), make_node("b", capacity=1.0)], fixed_model30
    ).layer_counts() == [20, 10]
    announce("criterion 7: 10,000 random partitions match the oracle; "
             "[16,16] and [20,10] hold")


# -- criterion 8: cost model ----------------------------------------------------


def test_criterion_8_cost_model():
    rental = CostModel(mode=CostMode.CLOUD_RENTAL, device_count=4,
                       token_price=2.75, rental_price_per_hour=0.26)
    margin = cost_profit_margin(500.0, rental)
    assert margin == pytest.approx(3.7596, abs=1e-4)

    local = CostModel(mode=CostMode.LOCAL_OWNERSHIP, device_count=2,
                      token_price=1.8, device_price=12_999.0, power_kw=0.450,
                      power_price=0.538)
    local_margin = cost_profit_margin(106.238, local)
    assert local_margin == pytest.approx(-0.3612, abs=2e-4)
    # guard: the formula output must NOT be tuned toward the published -10.6%
    assert abs(local_margin - (-0.106)) > 0.1
    announce(f"criterion 8: margins {margin * 100:.2f}% and "
             f"{local_margin * 100:.2f}% (documented discrepancy preserved)")


# -- criterion 9: transport properties over 1,000 random schedules --------------


def test_criterion_9_transport_properties():
    rng = random.Random(99)
    link = LinkProfile("a", "b", latency_s=0.002, bandwidth_bps=50_000_000)
    for _ in range(1000):
        arrivals = random_payload_schedule(rng, rng.randrange(1, 12))
        chunk = rng.choice([None, 4096, 65_536, 262_144])
        events = replay_link(link, arrivals, chunk_size=chunk)
        check_link_invariants(events)
    announce("criterion 9: 1,000 random schedules keep all transport invariants")


# -- criterion 10: control API lifecycle ----------------------------------------


def test_criterion_10_control_api_lifecycle():
    GB = 1 << 30
    reg = ClusterRegistry(key_seed=42)
    names = [f"w{i}" for i in range(4)]
    for i, name in enumerate(names):
        links = []
        for other in names[:i]:
            links.append(LinkProfile(name, other, 0.01, 1e9))
            links.append(LinkProfile(other, name, 0.01, 1e9))
        reg.node_access(make_node(name, gpu_type="rtx4090", gpu_mem_bytes=2 * GB),
                        links=links)
        reg.check_invariants()
    record = reg.deploy_llm_service(
        "svc", "tiny-4l", {"gpu_type": "rtx4090", "gpu_count": 1}
    )
    reg.check_invariants()
    assert plan_num_layers(record.plan) == 4
    status = reg.check_service_status("svc")
    assert status["state"] == "running"
    assert set(status) == {"service_name", "model", "state", "uptime_s", "plan"}
    reg.check_invariants()

    # book every remaining node, then show a fifth deployment cannot steal one
    booked = set(record.plan.node_names())
    for i in range(2, 5):
        extra = reg.deploy_llm_service(
            f"svc{i}", "tiny-4l", {"gpu_type": "rtx4090"}
        )
        reg.check_invariants()
        overlap = booked & set(extra.plan.node_names())
        assert not overlap, f"node double-booked: {overlap}"
        booked |= set(extra.plan.node_names())
    assert booked == set(names)
    with pytest.raises(RegistryError) as err:
        reg.deploy_llm_service("svc5", "tiny-4l", {"gpu_type": "rtx4090"})
    assert err.value.code == "placement_failed"

    reg.delete_llm_service("svc")
    reg.check_invariants()
    hosting = record.plan.node_names()[0]
    reg.node_exit(hosting)  # freed by the delete above
    reg.check_invariants()
    announce("criterion 10: lifecycle holds registry invariants; "
             "double-booking rejected")


# -- criterion 11: live socket pipeline matches the virtual run ------------------


def test_criterion_11_socket_demo_parity():
    cluster, model, plan, profiles = uniform_pipeline(
        2, 0.001, 0.001, bandwidth=1e9, hidden_dim=64, dtype_bytes=2
    )
    cfg = engine_config(plan, model, max_batched_tokens=256, max_batch_size=8,
                        chunk_size=4096)
    trace = generate_trace(rate=100.0, duration=1.5, seed=17)
    trace = Trace(requests=trace.requests[:100])
    assert len(trace.requests) == 100
    virtual = PipelineEngine(cfg, cluster, profiles).run(trace)
    assert virtual.all_finished
    live = run_socket_demo(cfg, cluster, profiles, trace)
    assert live == virtual.tokens_by_request()
    announce("criterion 11: 100-request socket run matches virtual token "
             "accounting")
