"""Where the traced run wraps ``pipelink``, and the per-layer metrics it derives.

Span names are ``<layer>.<function>``, where the layer is the package module
the function belongs to.  The cli layer also owns the writers it calls, since
output writing and the sweep loop are its work.  A function imported by name
into another module is wrapped at each place it is looked up, under one span
name, so engine and demo calls to ``choose_n`` land in the same span.

Every figure is per operation (one sweep, one simulate run, one socket demo
run or one round of control-plane requests) unless its name says otherwise,
so the counts repeat exactly for a deterministic workload and seed.
"""

from __future__ import annotations

import math
import queue
import types

import pipelink.cli
import pipelink.control_api
import pipelink.controller
import pipelink.demo
import pipelink.engine
import pipelink.transport
import pipelink.wire
import pipelink.workload

from tracer import Tracer

ROUTES = (
    "post_nodes",
    "post_services",
    "get_service",
    "get_node",
    "get_key",
    "delete_service",
    "delete_node",
)

REGISTRY_METHODS = (
    "node_access",
    "check_node_status",
    "node_exit",
    "deploy_llm_service",
    "check_service_status",
    "get_api_key",
    "delete_llm_service",
)


class FeedbackQueue(queue.Queue):
    """The demo's feedback queue, with ``get`` of its own so it can be traced."""

    def get(self, block=True, timeout=None):
        return super().get(block, timeout)


def _rows(counter: str):
    def after(counts, args, kwargs, result):
        counts[counter] += len(args[0])

    return after


def _microbatches(counts, args, kwargs, result):
    counts["engine.microbatches"] += len(result)


def _log_records(counts, args, kwargs, result):
    counts["engine.log_records"] += len(result.events) + len(result.link_events)


def _chunks(counts, args, kwargs, result):
    if result is not None:
        counts["transport.chunks"] += 1


def _frame_bytes(counts, args, kwargs, result):
    counts["wire.bytes"] += len(result)


def _distinct_choices():
    """Count distinct controller inputs: (min(demand, cap), phase) per pipeline.

    The pipeline is told apart by the identity of its profile and link lists,
    which are kept alive here so that an id cannot be reused within the run.
    """
    keys: set = set()
    keep_alive: list = []

    def after(counts, args, kwargs, result):
        cfg, profiles, links, demand, phase = args[:5]
        key = (min(demand, cfg.max_batched_tokens), phase, id(profiles), id(links))
        if key not in keys:
            keys.add(key)
            keep_alive.append((profiles, links))
            counts["controller.choose_n.distinct"] += 1

    return after


def make_tracer() -> Tracer:
    """A tracer planned over every layer."""
    tracer = Tracer()
    choice_hook = _distinct_choices()
    cli, engine, demo = pipelink.cli, pipelink.engine, pipelink.demo

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_simulation", "cli.run_simulation")
    tracer.wrap(cli, "write_event_log", "cli.write_event_log",
                _rows("cli.write_event_log.rows"))
    tracer.wrap(cli, "write_link_log", "cli.write_link_log",
                _rows("cli.write_link_log.rows"))
    tracer.wrap(cli, "write_decision_log", "controller.write_decision_log",
                _rows("controller.write_decision_log.rows"))
    tracer.wrap(cli, "summarize", "metrics.summarize")
    tracer.wrap(cli, "write_report_json", "metrics.write_report_json")
    tracer.wrap(cli, "load_trace", "workload.load_trace")
    tracer.wrap(pipelink.workload, "generate_trace", "workload.generate_trace")
    tracer.wrap(cli, "plan_deployment", "placement.plan_deployment")
    tracer.wrap(pipelink.control_api, "plan_deployment", "placement.plan_deployment")

    tracer.wrap(engine.PipelineEngine, "run", "engine.run", _log_records)
    for module in (engine, demo):
        tracer.wrap(module, "choose_n", "controller.choose_n", choice_hook)
        tracer.wrap(module, "admit_and_batch", "engine.admit_and_batch", _microbatches)
    for module in (engine, pipelink.controller):
        tracer.wrap(module, "compute_time", "profiles.compute_time")

    tracer.wrap(pipelink.transport.LinkQueue, "enqueue", "transport.enqueue")
    tracer.wrap(pipelink.transport.LinkQueue, "next_chunk", "transport.next_chunk", _chunks)

    tracer.wrap(pipelink.wire, "encode_frame", "wire.encode_frame", _frame_bytes)
    tracer.wrap(pipelink.wire, "read_frame", "wire.read_frame")
    tracer.wrap(pipelink.wire.SocketLinkSender, "send", "wire.send")
    tracer.wrap(demo, "run_socket_demo", "demo.run_socket_demo")
    tracer.replace(demo, "queue", types.SimpleNamespace(Queue=FeedbackQueue))
    tracer.wrap(FeedbackQueue, "get", "demo.feedback_wait")

    for method in REGISTRY_METHODS:
        tracer.wrap(pipelink.control_api.ClusterRegistry, method,
                    f"control_api.registry.{method}")
    return tracer


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample (layer not exercised)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def layer_metrics(
    tracer: Tracer,
    setup_tracer: Tracer,
    ops: list,
    extras: dict,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced operations ``ops``, as name -> (value, unit).

    ``setup_tracer`` traced the run's set-up, whose figures are per set-up.
    ``extras`` holds ``journal_bytes_per_op`` and ``overhead_ratio`` (traced
    over untraced wall time, minus one).
    """
    spans = tracer.by_name()
    counts = tracer.counts()
    per_op = 1.0 / max(1, len(ops))
    none = (0, 0.0, 0.0)

    def calls(name):
        return spans.get(name, none)[0] * per_op

    def count(name):
        return counts.get(name, 0.0) * per_op

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}

    def timed(name, self_time=False):
        n_calls, span_total, span_self = spans.get(name, none)
        m[f"{name}.calls"] = (n_calls * per_op, "count")
        if self_time:
            m[f"{name}.self_s"] = (span_self * per_op, "s")
        else:
            m[f"{name}.s"] = (span_total * per_op, "s")

    n_calls, span_total, _ = setup_tracer.by_name().get("workload.generate_trace", none)
    m["workload.generate_trace.calls"] = (float(n_calls), "count")
    m["workload.generate_trace.s"] = (span_total, "s")
    timed("workload.load_trace")
    timed("placement.plan_deployment")
    timed("profiles.compute_time")
    timed("controller.choose_n", self_time=True)
    m["controller.choose_n.distinct_ratio"] = (
        ratio(count("controller.choose_n.distinct"), calls("controller.choose_n")), "ratio")
    timed("controller.write_decision_log")
    m["controller.write_decision_log.rows"] = (
        count("controller.write_decision_log.rows"), "count")
    timed("engine.run", self_time=True)
    timed("engine.admit_and_batch")
    m["engine.microbatches"] = (count("engine.microbatches"), "count")
    m["engine.tokens_per_microbatch"] = (
        ratio(sum(op.tokens for op in ops) * per_op, count("engine.microbatches")),
        "ratio")
    m["engine.log_records"] = (count("engine.log_records"), "count")
    timed("transport.enqueue")
    timed("transport.next_chunk")
    m["transport.chunks_per_payload"] = (
        ratio(count("transport.chunks"), calls("transport.enqueue")), "ratio")
    timed("metrics.summarize")
    timed("metrics.write_report_json")
    timed("cli.main", self_time=True)
    m["cli.run_simulation.calls"] = (calls("cli.run_simulation"), "count")
    for writer in ("cli.write_event_log", "cli.write_link_log"):
        timed(writer)
        m[f"{writer}.rows"] = (count(f"{writer}.rows"), "count")
    timed("wire.encode_frame")
    timed("wire.read_frame")
    m["wire.send.calls"] = (calls("wire.send"), "count")
    m["wire.bytes"] = (count("wire.bytes"), "B")
    m["wire.frames_per_payload"] = (
        ratio(calls("wire.encode_frame"), calls("wire.send")), "ratio")
    m["demo.head_self_s"] = (spans.get("demo.run_socket_demo", none)[2] * per_op, "s")
    timed("demo.feedback_wait")

    route_ms: dict[str, list[float]] = {}
    for op in ops:
        for route, samples in op.route_ms.items():
            route_ms.setdefault(route, []).extend(samples)
    http_ops = [op for op in ops if op.route_ms]
    m["control_api.request_p90_ms"] = (
        percentile([ms for samples in route_ms.values() for ms in samples], 90), "ms")
    for route in ROUTES:
        m[f"control_api.{route}.p50_ms"] = (percentile(route_ms.get(route, []), 50), "ms")
        m[f"control_api.{route}.p99_ms"] = (percentile(route_ms.get(route, []), 99), "ms")
    for method in REGISTRY_METHODS:
        timed(f"control_api.registry.{method}")
    # Registry time a client waited on: registry spans not nested in another.
    registry_s = sum(
        span_total
        for (name, parent), (_, span_total, _) in tracer.spans().items()
        if name.startswith("control_api.registry.")
        and not (parent or "").startswith("control_api.registry.")
    )
    client_ms = sum(sum(op.latencies_ms) for op in http_ops)
    m["control_api.http_overhead_ms"] = (
        ratio(client_ms - registry_s * 1000.0, sum(op.attempted for op in http_ops)), "ms")
    m["control_api.journal_bytes"] = (extras["journal_bytes_per_op"], "B")
    m["trace.overhead_ratio"] = (extras["overhead_ratio"], "ratio")
    return m
