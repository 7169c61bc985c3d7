"""Command-line front end: simulate, sweep, plan, serve.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
configuration error.  Every malformed input (a run config, cluster, model,
trace or profile file, a journal, an option or a sweep value) exits 2 with an
``error:`` line; JSON inputs are decoded by :mod:`pipelink.decode`, so the
line names the file and the JSON path of the value at fault.  Every command
except ``serve`` is deterministic given its input files and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from . import __version__
from .control_api import ClusterRegistry, make_server
from .controller import ControllerConfig
from .decode import decode, read_json
from .engine import (
    EngineConfig,
    PipelineEngine,
    RunResult,
    measure_bubble,
)
from .errors import ConfigError, PipelinkError, ProfileError, TraceError
from .metrics import MetricsReport, summarize
from .outputs import (
    LogSink,
    write_decision_log,
    write_event_log,
    write_link_log,
    write_report_json,
    write_sweep_table,
)
from .placement import (
    ClusterSpec,
    ModelSpec,
    ResourceSpec,
    load_cluster,
    plan_deployment,
    resolve_model,
)
from .profiles import LinkProfile, StageProfile, load_stage_profiles, synth_profile
from .transport import DEFAULT_CHUNK_SIZE, LinkPolicy, s_to_ns
from .workload import (
    DEFAULT_MAX_INPUT_TOKENS,
    DEFAULT_MAX_OUTPUT_TOKENS,
    HISTOGRAM_PRESETS,
    LengthHistogram,
    Trace,
    filter_trace,
    generate_trace,
    load_trace,
)


@dataclasses.dataclass(frozen=True)
class GenerateSpec:
    """``trace.generate``: a Poisson trace with lengths from a preset or buckets."""

    rate: float
    duration: float
    preset: str = "synthetic-conversation"
    input_buckets: tuple[tuple[int, int, float], ...] | None = None
    output_buckets: tuple[tuple[int, int, float], ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.histograms()  # an unknown preset or a bad bucket is refused here

    def histograms(self) -> tuple[LengthHistogram, LengthHistogram]:
        if self.preset not in HISTOGRAM_PRESETS:
            raise ConfigError(f"unknown histogram preset '{self.preset}'")
        in_hist, out_hist = HISTOGRAM_PRESETS[self.preset]
        return (
            in_hist if self.input_buckets is None else LengthHistogram(self.input_buckets),
            out_hist if self.output_buckets is None else LengthHistogram(self.output_buckets),
        )


@dataclasses.dataclass(frozen=True)
class TraceSpec:
    """``trace``: a trace CSV ``path`` or a ``generate`` block, exactly one."""

    path: str | None = None
    generate: GenerateSpec | None = None

    def __post_init__(self) -> None:
        if (self.path is None) == (self.generate is None):
            raise ConfigError("needs exactly one of 'path' or 'generate'")


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """``profiles.synthetic``: linear stage profiles scaled by node capacity."""

    per_layer_token_cost: float = 1e-6
    overhead_s: float = 0.002


@dataclasses.dataclass(frozen=True)
class ProfilesSpec:
    """``profiles``: a profile CSV ``path`` or a ``synthetic`` block, exactly one."""

    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError("needs exactly one of 'path' or 'synthetic'")


@dataclasses.dataclass(frozen=True)
class FilterSpec:
    """``filter``: the largest input and output lengths a trace keeps."""

    max_input: int = DEFAULT_MAX_INPUT_TOKENS
    max_output: int = DEFAULT_MAX_OUTPUT_TOKENS


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """``engine``: link chunking (``null`` for unchunked) and link policy."""

    chunk_size: int | None = DEFAULT_CHUNK_SIZE
    scheduling_policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A run configuration file, decoded; ``model`` is resolved to a ModelSpec.

    :func:`load_run_config` resolves the file paths in it against the
    directory of the config file.
    """

    cluster: str
    model: str | ModelSpec
    placement: ResourceSpec
    trace: TraceSpec
    profiles: ProfilesSpec
    filter: FilterSpec | None = None
    engine: EngineSpec = EngineSpec()
    controller: ControllerConfig = ControllerConfig()

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", resolve_model(self.model))


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    cfg = decode(RunConfig, read_json(path), f"{path}: $")

    def resolve(name: str, what: str) -> str:
        full = path.parent / name
        if not full.exists():
            raise ConfigError(f"{what} not found: {full}")
        return str(full)

    cfg = dataclasses.replace(cfg, cluster=resolve(cfg.cluster, "cluster file"))
    if cfg.trace.path is not None:
        trace = dataclasses.replace(cfg.trace, path=resolve(cfg.trace.path, "trace"))
        cfg = dataclasses.replace(cfg, trace=trace)
    if cfg.profiles.path is not None:
        profiles = dataclasses.replace(
            cfg.profiles, path=resolve(cfg.profiles.path, "profile file")
        )
        cfg = dataclasses.replace(cfg, profiles=profiles)
    return cfg


def _build_trace(cfg: RunConfig, seed_override: int | None) -> Trace:
    if cfg.trace.path is not None:
        trace = load_trace(cfg.trace.path)
    else:
        gen = cfg.trace.generate
        in_hist, out_hist = gen.histograms()
        trace = generate_trace(
            rate=gen.rate,
            duration=gen.duration,
            input_lengths=in_hist,
            output_lengths=out_hist,
            seed=gen.seed if seed_override is None else seed_override,
        )
    if cfg.filter is not None:
        trace = filter_trace(trace, cfg.filter.max_input, cfg.filter.max_output)
    return trace


def _build_profiles(
    cfg: RunConfig, plan, cluster: ClusterSpec
) -> list[StageProfile]:
    if cfg.profiles.path is not None:
        table = load_stage_profiles(cfg.profiles.path)
        profiles = []
        for idx in range(len(plan.stages)):
            if idx not in table:
                raise ProfileError(f"profile file has no rows for stage {idx}")
            profiles.append(table[idx])
        return profiles
    synth = cfg.profiles.synthetic
    profiles = []
    for idx, (node_name, (lo, hi)) in enumerate(plan.stages):
        node = cluster.nodes[node_name]
        profiles.append(
            synth_profile(
                layers=hi - lo,
                per_layer_token_cost=synth.per_layer_token_cost / node.capacity_score,
                overhead=synth.overhead_s,
                stage_id=idx,
            )
        )
    return profiles


def _report_from_result(result: RunResult) -> MetricsReport:
    bubbles = []
    start_ns = s_to_ns(min(r.arrival_time for r in result.requests))
    if result.end_ns > start_ns:
        for stage_id in range(len(result.stage_busy_ns)):
            bubbles.append(measure_bubble(result, stage_id, start_ns, result.end_ns))
    return summarize(result.requests, tuple(bubbles))


def run_simulation(cfg: RunConfig, seed_override: int | None = None):
    """Assemble and run one simulation; returns (result, report)."""
    cluster = load_cluster(cfg.cluster)
    plan = plan_deployment(
        cluster, cfg.model, cfg.placement.gpu_type, cfg.placement.gpu_count
    )
    trace = _build_trace(cfg, seed_override)
    if not trace.requests:
        raise ConfigError("trace is empty; nothing to simulate")
    profiles = _build_profiles(cfg, plan, cluster)
    engine_cfg = EngineConfig(
        partition=plan,
        model=cfg.model,
        controller=cfg.controller,
        chunk_size=cfg.engine.chunk_size,
        scheduling_policy=cfg.engine.scheduling_policy,
    )
    engine = PipelineEngine(engine_cfg, cluster, profiles)
    sink = LogSink()
    try:
        result = engine.run(trace, sink=sink)
        if not result.all_finished:
            raise PipelinkError("run ended with unfinished requests")
        return result, _report_from_result(result)
    except BaseException:
        sink.close()  # the traceback may keep the sink alive
        raise


def _simulate_into(out_dir: Path, cfg: RunConfig, seed: int | None) -> MetricsReport:
    """Run one simulation and write its files; the run's logs go when it returns."""
    result, report = run_simulation(cfg, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out_dir / "report.json")
    write_event_log(result.events, out_dir / "events.csv")
    write_link_log(result.link_events, out_dir / "transport.csv")
    write_decision_log(result.decisions, out_dir / "decisions.csv")
    return report


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = Path(args.out)
    report = _simulate_into(out_dir, cfg, args.seed)
    print(report.format_table())
    print(f"outputs written to {out_dir}")
    return 0


# Each sweep axis and the field whose JSON decoder reads its values.
SWEEP_FIELDS = {
    "bandwidth": (LinkProfile, "bandwidth_bps"),
    "latency": (LinkProfile, "latency_s"),
    "rate": (GenerateSpec, "rate"),
    "chunk_size": (EngineSpec, "chunk_size"),
    "n_max": (ControllerConfig, "n_max"),
}
SWEEP_AXES = tuple(SWEEP_FIELDS)


def _sweep_value(axis: str, text: str):
    """One ``--sweep-values`` item, decoded as the JSON value of its field."""
    if axis == "chunk_size" and text == "inf":
        return None  # unchunked
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        value = text  # refused below as a string
    cls, name = SWEEP_FIELDS[axis]
    tp = typing.get_type_hints(cls)[name]
    return decode(tp, value, f"--sweep-values {axis}={text}")


def _apply_axis(cfg: RunConfig, cluster_data: dict, axis: str, value) -> RunConfig:
    """The point's config; link axes are written into ``cluster_data`` instead."""
    if axis in ("bandwidth", "latency"):
        for link in cluster_data.get("links", []):
            link[SWEEP_FIELDS[axis][1]] = value
        return cfg
    if axis == "rate":
        generate = dataclasses.replace(cfg.trace.generate, rate=value)
        return dataclasses.replace(cfg, trace=TraceSpec(generate=generate))
    if axis == "chunk_size":
        return dataclasses.replace(
            cfg, engine=dataclasses.replace(cfg.engine, chunk_size=value)
        )
    return dataclasses.replace(
        cfg, controller=dataclasses.replace(cfg.controller, n_max=value)
    )


def cmd_sweep(args) -> int:
    base_cfg = load_run_config(args.config)
    axis = args.sweep_axis
    texts = [v.strip() for v in args.sweep_values.split(",") if v.strip()]
    if not texts:
        raise ConfigError("sweep needs at least one value")
    if axis == "rate" and base_cfg.trace.generate is None:
        raise ConfigError("rate sweep needs a generated trace")
    base_cluster_data = read_json(base_cfg.cluster)
    ClusterSpec.from_json_dict(base_cluster_data, f"{base_cfg.cluster}: $")
    points = []  # every point is checked before the first one runs
    seen = {}  # decoded value -> the item that gave it
    for text in texts:
        value = _sweep_value(axis, text)
        if value in seen:
            raise ConfigError(f"--sweep-values {axis}={text}: repeats {axis}={seen[value]}")
        seen[value] = text
        cluster_data = json.loads(json.dumps(base_cluster_data))
        cfg = _apply_axis(base_cfg, cluster_data, axis, value)
        ClusterSpec.from_json_dict(cluster_data, f"{base_cfg.cluster} at {axis}={text}: $")
        points.append((text, cfg, cluster_data))
    out_root = Path(args.out)
    reports = []
    for text, cfg, cluster_data in points:
        point_dir = out_root / f"{axis}={text}"
        point_dir.mkdir(parents=True, exist_ok=True)
        cluster_path = point_dir / "cluster.json"
        with cluster_path.open("w", encoding="utf-8") as fh:
            json.dump(cluster_data, fh, indent=2, sort_keys=True)
        cfg = dataclasses.replace(cfg, cluster=str(cluster_path))
        report = _simulate_into(point_dir, cfg, args.seed)
        reports.append((text, report))
        print(f"{axis}={text}: {report.throughput_tok_s:.3f} tok/s")
    combined = out_root / "combined.csv"
    write_sweep_table(axis, reports, combined)
    print(f"combined sweep results in {combined}")
    return 0


def cmd_plan(args) -> int:
    spec = ResourceSpec(args.gpu_type, args.gpu_count)
    cluster = load_cluster(args.cluster)
    if args.model.endswith(".json") and Path(args.model).exists():
        model = decode(ModelSpec, read_json(args.model), f"{args.model}: $")
    else:
        model = resolve_model(args.model)
    plan = plan_deployment(cluster, model, spec.gpu_type, spec.gpu_count)
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


def _listen_address(text: str) -> tuple[str, int]:
    """``serve --listen``: ``[host:]port``, the host 127.0.0.1 when left out."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"expected [host:]port, got {text!r}")
    return host or "127.0.0.1", int(port)


def cmd_serve(args) -> int:
    host, port = args.listen
    registry = _open_registry(args)
    server = make_server(registry, host, port)
    print(f"control API listening on {host}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        registry.close()
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
    p_sim.add_argument("--seed", type=int, default=os.environ.get("PIPELINK_SEED") or None)
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
    p_sweep.add_argument("--seed", type=int, default=os.environ.get("PIPELINK_SEED") or None)
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
        "--listen",
        type=_listen_address,
        default=os.environ.get("PIPELINK_LISTEN", "127.0.0.1:8080"),
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
    except (PipelinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
