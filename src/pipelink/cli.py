"""Command-line front end: simulate, sweep, plan, serve.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
configuration error.  Every command except ``serve`` is deterministic given
its input files and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .control_api import ClusterRegistry, make_server
from .controller import BudgetMode, ControllerConfig, write_decision_log
from .engine import (
    EngineConfig,
    PipelineEngine,
    RunResult,
    measure_bubble,
    write_event_log,
)
from .errors import ConfigError, PipelinkError, ProfileError, TraceError
from .metrics import MetricsReport, summarize, write_report_json
from .placement import (
    ClusterSpec,
    ModelSpec,
    load_cluster,
    plan_deployment,
    resolve_model,
)
from .profiles import StageProfile, load_stage_profiles, synth_profile
from .transport import NS_PER_S, LinkPolicy, write_link_log
from .workload import (
    HISTOGRAM_PRESETS,
    LengthHistogram,
    Trace,
    filter_trace,
    generate_trace,
    load_trace,
)

SWEEP_AXES = ("bandwidth", "latency", "rate", "chunk_size", "n_max")


@dataclasses.dataclass
class RunConfig:
    """Parsed run configuration (paths resolved relative to the config file)."""

    cluster_path: Path
    model: ModelSpec
    gpu_type: str
    gpu_count: int
    trace_spec: dict
    profile_spec: dict
    engine_params: dict
    controller_params: dict
    filter_spec: dict | None
    base_dir: Path


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        data = json.load(fh)
    base = path.parent
    for key in ("cluster", "model", "placement", "trace", "profiles"):
        if key not in data:
            raise ConfigError(f"{path}: missing required key '{key}'")
    placement = data["placement"]
    if "gpu_type" not in placement:
        raise ConfigError(f"{path}: placement.gpu_type is required")
    cluster_path = base / data["cluster"]
    if not cluster_path.exists():
        raise ConfigError(f"cluster file not found: {cluster_path}")
    trace_spec = data["trace"]
    if "path" in trace_spec:
        trace_path = base / trace_spec["path"]
        if not trace_path.exists():
            raise ConfigError(f"trace not found: {trace_path}")
    elif "generate" not in trace_spec:
        raise ConfigError(f"{path}: trace needs 'path' or 'generate'")
    profile_spec = data["profiles"]
    if "path" in profile_spec:
        profile_path = base / profile_spec["path"]
        if not profile_path.exists():
            raise ConfigError(f"profile file not found: {profile_path}")
    elif "synthetic" not in profile_spec:
        raise ConfigError(f"{path}: profiles needs 'path' or 'synthetic'")
    return RunConfig(
        cluster_path=cluster_path,
        model=resolve_model(data["model"]),
        gpu_type=placement["gpu_type"],
        gpu_count=int(placement.get("gpu_count", 1)),
        trace_spec=trace_spec,
        profile_spec=profile_spec,
        engine_params=dict(data.get("engine", {})),
        controller_params=dict(data.get("controller", {})),
        filter_spec=data.get("filter"),
        base_dir=base,
    )


def _build_trace(cfg: RunConfig, seed_override: int | None) -> Trace:
    spec = cfg.trace_spec
    if "path" in spec:
        trace = load_trace(cfg.base_dir / spec["path"])
    else:
        gen = spec["generate"]
        preset_name = gen.get("preset", "synthetic-conversation")
        if preset_name not in HISTOGRAM_PRESETS:
            raise ConfigError(f"unknown histogram preset '{preset_name}'")
        in_hist, out_hist = HISTOGRAM_PRESETS[preset_name]
        if "input_buckets" in gen:
            in_hist = LengthHistogram(tuple(tuple(b) for b in gen["input_buckets"]))
        if "output_buckets" in gen:
            out_hist = LengthHistogram(tuple(tuple(b) for b in gen["output_buckets"]))
        seed = seed_override if seed_override is not None else int(gen.get("seed", 0))
        trace = generate_trace(
            rate=float(gen["rate"]),
            duration=float(gen["duration"]),
            input_lengths=in_hist,
            output_lengths=out_hist,
            seed=seed,
        )
    if cfg.filter_spec is not None:
        trace = filter_trace(
            trace,
            max_input=int(cfg.filter_spec.get("max_input", 256)),
            max_output=int(cfg.filter_spec.get("max_output", 512)),
        )
    return trace


def _build_controller(params: dict) -> ControllerConfig:
    return ControllerConfig(
        max_batched_tokens=int(params.get("max_batched_tokens", 2048)),
        max_batch_size=int(params.get("max_batch_size", 64)),
        n_max=None if params.get("n_max") is None else int(params["n_max"]),
        bubble_epsilon=float(params.get("bubble_epsilon", 0.02)),
        gain_delta=float(params.get("gain_delta", 0.01)),
        mode=BudgetMode(params.get("mode", "token_scaled")),
        decision_stride=int(params.get("decision_stride", 1)),
    )


def _build_profiles(
    cfg: RunConfig, plan, cluster: ClusterSpec
) -> list[StageProfile]:
    spec = cfg.profile_spec
    if "path" in spec:
        table = load_stage_profiles(cfg.base_dir / spec["path"])
        profiles = []
        for idx in range(len(plan.stages)):
            if idx not in table:
                raise ProfileError(f"profile file has no rows for stage {idx}")
            profiles.append(table[idx])
        return profiles
    synth = spec["synthetic"]
    base_cost = float(synth.get("per_layer_token_cost", 1e-6))
    overhead = float(synth.get("overhead_s", 0.002))
    profiles = []
    for idx, (node_name, (lo, hi)) in enumerate(plan.stages):
        node = cluster.nodes[node_name]
        profiles.append(
            synth_profile(
                layers=hi - lo,
                per_layer_token_cost=base_cost / node.capacity_score,
                overhead=overhead,
                stage_id=idx,
            )
        )
    return profiles


def _build_engine_config(cfg: RunConfig, plan) -> EngineConfig:
    params = cfg.engine_params
    chunk = params.get("chunk_size", 262144)
    if isinstance(chunk, str):
        chunk = None if chunk.lower() in ("inf", "none", "unchunked") else int(chunk)
    elif chunk is not None:
        chunk = None if math.isinf(float(chunk)) else int(chunk)
    return EngineConfig(
        partition=plan,
        model=cfg.model,
        controller=_build_controller(cfg.controller_params),
        chunk_size=chunk,
        scheduling_policy=LinkPolicy(
            params.get("scheduling_policy", "decode_priority")
        ),
    )


def _report_from_result(result: RunResult) -> MetricsReport:
    bubbles = []
    if result.requests and result.end_ns > 0:
        start_s = min(r.arrival_time for r in result.requests)
        end_s = result.end_ns / NS_PER_S
        if end_s > start_s:
            for stage_id in range(len(result.stage_busy_ns)):
                bubbles.append(measure_bubble(result, stage_id, start_s, end_s))
    return summarize(result.requests, tuple(bubbles))


def run_simulation(cfg: RunConfig, seed_override: int | None = None):
    """Assemble and run one simulation; returns (result, report, plan)."""
    cluster = load_cluster(cfg.cluster_path)
    plan = plan_deployment(cluster, cfg.model, cfg.gpu_type, cfg.gpu_count)
    trace = _build_trace(cfg, seed_override)
    if not trace.requests:
        raise ConfigError("trace is empty; nothing to simulate")
    profiles = _build_profiles(cfg, plan, cluster)
    engine_cfg = _build_engine_config(cfg, plan)
    engine = PipelineEngine(engine_cfg, cluster, profiles)
    result = engine.run(trace)
    if not result.all_finished:
        raise PipelinkError("run ended with unfinished requests")
    return result, _report_from_result(result), plan


def _write_outputs(out_dir: Path, result: RunResult, report: MetricsReport) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out_dir / "report.json")
    write_event_log(result.events, out_dir / "events.csv")
    write_link_log(result.link_events, out_dir / "transport.csv")
    write_decision_log(result.decisions, out_dir / "decisions.csv")


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    result, report, _ = run_simulation(cfg, args.seed)
    out_dir = Path(args.out)
    _write_outputs(out_dir, result, report)
    print(report.format_table())
    print(f"outputs written to {out_dir}")
    return 0


_SWEEP_COLUMNS = (
    "axis",
    "value",
    "throughput_tok_s",
    "ttft_mean_s",
    "ttft_p50_s",
    "ttft_p99_s",
    "tpot_mean_s",
    "span_s",
    "total_tokens",
)


def _apply_axis(cfg: RunConfig, cluster_data: dict, axis: str, value: str) -> RunConfig:
    cfg = dataclasses.replace(cfg)
    if axis == "bandwidth":
        for link in cluster_data["links"]:
            link["bandwidth_bps"] = float(value)
    elif axis == "latency":
        for link in cluster_data["links"]:
            link["latency_s"] = float(value)
    elif axis == "rate":
        if "generate" not in cfg.trace_spec:
            raise ConfigError("rate sweep needs a generated trace")
        cfg.trace_spec = {
            "generate": {**cfg.trace_spec["generate"], "rate": float(value)}
        }
    elif axis == "chunk_size":
        cfg.engine_params = {**cfg.engine_params, "chunk_size": value}
    elif axis == "n_max":
        cfg.controller_params = {**cfg.controller_params, "n_max": int(float(value))}
    else:
        raise ConfigError(f"unknown sweep axis '{axis}' (have: {', '.join(SWEEP_AXES)})")
    return cfg


def cmd_sweep(args) -> int:
    base_cfg = load_run_config(args.config)
    values = [v.strip() for v in args.sweep_values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    if args.sweep_axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis '{args.sweep_axis}' (have: {', '.join(SWEEP_AXES)})"
        )
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    with base_cfg.cluster_path.open(encoding="utf-8") as fh:
        base_cluster_data = json.load(fh)
    for value in values:
        cluster_data = json.loads(json.dumps(base_cluster_data))
        cfg = _apply_axis(base_cfg, cluster_data, args.sweep_axis, value)
        point_dir = out_root / f"{args.sweep_axis}={value}"
        point_dir.mkdir(parents=True, exist_ok=True)
        cluster_path = point_dir / "cluster.json"
        with cluster_path.open("w", encoding="utf-8") as fh:
            json.dump(cluster_data, fh, indent=2, sort_keys=True)
        cfg.cluster_path = cluster_path
        result, report, _ = run_simulation(cfg, args.seed)
        _write_outputs(point_dir, result, report)
        rows.append(
            [
                args.sweep_axis,
                value,
                f"{report.throughput_tok_s:.6f}",
                f"{report.ttft_mean_s:.6f}",
                f"{report.ttft_p50_s:.6f}",
                f"{report.ttft_p99_s:.6f}",
                "" if report.tpot_mean_s is None else f"{report.tpot_mean_s:.6f}",
                f"{report.span_s:.6f}",
                report.total_tokens,
            ]
        )
        print(f"{args.sweep_axis}={value}: {report.throughput_tok_s:.3f} tok/s")
    combined = out_root / "combined.csv"
    with combined.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        writer.writerows(rows)
    print(f"combined sweep results in {combined}")
    return 0


def cmd_plan(args) -> int:
    cluster = load_cluster(args.cluster)
    model_arg = args.model
    if model_arg.endswith(".json") and Path(model_arg).exists():
        with open(model_arg, encoding="utf-8") as fh:
            model = resolve_model(json.load(fh))
    else:
        model = resolve_model(model_arg)
    plan = plan_deployment(cluster, model, args.gpu_type, args.gpu_count)
    print(f"layer counts: {plan.layer_counts()}")
    print(plan.format_table())
    if args.json:
        print(json.dumps(plan.to_json_dict(), sort_keys=True))
    return 0


def _open_registry(args) -> ClusterRegistry:
    """Replay a non-empty journal, or start a registry and journal ``--cluster``."""
    journal = Path(args.journal) if args.journal else None
    if journal is not None and journal.exists() and journal.stat().st_size > 0:
        if args.cluster:
            raise ConfigError(
                f"--cluster given, but journal {journal} is not empty: "
                "its nodes come from the journal"
            )
        return ClusterRegistry.replay(journal)
    registry = ClusterRegistry(key_seed=args.key_seed, journal_path=journal)
    if args.cluster:
        cluster = load_cluster(args.cluster)
        added: set[str] = set()
        for name in sorted(cluster.nodes):
            added.add(name)
            links = [
                link
                for (src, dst), link in cluster.links.items()
                if name in (src, dst) and src in added and dst in added
            ]
            registry.node_access(cluster.nodes[name], links=links)
    return registry


def cmd_serve(args) -> int:
    host, _, port = args.listen.rpartition(":")
    host = host or "127.0.0.1"
    registry = _open_registry(args)
    server = make_server(registry, host, int(port))
    print(f"control API listening on {host}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


CLUSTER_HELP = "cluster JSON file; each link's bandwidth_bps is in bytes per second"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipelink",
        description="Pipeline-parallel serving simulator and control plane",
    )
    parser.add_argument(
        "--version", action="version", version=f"pipelink {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=_env_int("PIPELINK_SEED"))
    p_sim.add_argument("--out", default=os.environ.get("PIPELINK_OUT", "out"))
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run one simulation per axis value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep-axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--sweep-values",
        required=True,
        help="comma-separated axis values; bandwidth is in bytes per second "
        "(1.25e7 is 100 Mbit/s)",
    )
    p_sweep.add_argument("--seed", type=int, default=_env_int("PIPELINK_SEED"))
    p_sweep.add_argument("--out", default=os.environ.get("PIPELINK_OUT", "sweep"))
    p_sweep.set_defaults(func=cmd_sweep)

    p_plan = sub.add_parser("plan", help="print the partition plan for a cluster")
    p_plan.add_argument("--cluster", required=True, help=CLUSTER_HELP)
    p_plan.add_argument("--model", required=True)
    p_plan.add_argument("--gpu-type", required=True)
    p_plan.add_argument("--gpu-count", type=int, default=1)
    p_plan.add_argument("--json", action="store_true")
    p_plan.set_defaults(func=cmd_plan)

    p_serve = sub.add_parser("serve", help="host the control API")
    p_serve.add_argument(
        "--listen", default=os.environ.get("PIPELINK_LISTEN", "127.0.0.1:8080")
    )
    p_serve.add_argument("--cluster", help=CLUSTER_HELP)
    p_serve.add_argument(
        "--journal", help="JSON-lines journal; a non-empty one is replayed on start"
    )
    p_serve.add_argument(
        "--key-seed", type=int, default=None,
        help="seed for the API keys of a registry that does not replay a journal",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    return int(raw) if raw else None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceError, ProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return 2
    except PipelinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
