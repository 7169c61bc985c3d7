"""Node selection, head choice, and capacity-proportional layer partitioning."""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, PlacementError
from .profiles import LinkProfile

# Size of the per-request token id fed back from the last stage to the head.
TOKEN_FEEDBACK_BYTES = 8

# Beyond this many candidate nodes the chain search falls back to greedy
# nearest-neighbor; below it the minimum-cost chain is found exactly.
EXACT_CHAIN_SEARCH_LIMIT = 8


class Platform(enum.Enum):
    LINUX = "linux"
    WINDOWS = "windows"
    CONTAINERIZED_VM = "containerized_vm"


@dataclass(frozen=True)
class NodeDescriptor:
    """A worker node: hardware inventory plus relative performance scores."""

    name: str
    platform: Platform
    gpu_type: str
    gpu_count: int
    gpu_mem_bytes: int
    capacity_score: float
    cpu_score: float
    network_score: float

    def __post_init__(self) -> None:
        if self.gpu_count < 1:
            raise ConfigError(f"node {self.name}: gpu_count must be >= 1")
        for field_name in ("capacity_score", "cpu_score", "network_score"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"node {self.name}: {field_name} must be > 0")

    @property
    def total_mem_bytes(self) -> int:
        return self.gpu_count * self.gpu_mem_bytes


@dataclass
class ClusterSpec:
    """Registered nodes plus directed link estimates between them."""

    nodes: dict[str, NodeDescriptor]
    links: dict[tuple[str, str], LinkProfile]

    def __post_init__(self) -> None:
        for (src, dst), link in self.links.items():
            if src not in self.nodes or dst not in self.nodes:
                raise ConfigError(f"link {src}->{dst} references unknown node")
            if (link.src, link.dst) != (src, dst):
                raise ConfigError(f"link key {src}->{dst} mismatches profile")

    def link(self, src: str, dst: str) -> LinkProfile | None:
        return self.links.get((src, dst))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClusterSpec":
        nodes = {}
        for entry in data.get("nodes", []):
            node = node_from_json(entry)
            if node.name in nodes:
                raise ConfigError(f"duplicate node name {node.name}")
            nodes[node.name] = node
        links = {}
        for entry in data.get("links", []):
            link = link_from_json(entry)
            key = (link.src, link.dst)
            if key in links:
                raise ConfigError(f"duplicate link {link.src}->{link.dst}")
            links[key] = link
        return cls(nodes=nodes, links=links)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [node_to_json(n) for _, n in sorted(self.nodes.items())],
            "links": [link_to_json(l) for _, l in sorted(self.links.items())],
        }


# The one JSON form of a node and of a link: cluster files, control API, journal.


def node_to_json(node: NodeDescriptor) -> dict:
    return {
        "name": node.name,
        "platform": node.platform.value,
        "gpu_type": node.gpu_type,
        "gpu_count": node.gpu_count,
        "gpu_mem_bytes": node.gpu_mem_bytes,
        "capacity_score": node.capacity_score,
        "cpu_score": node.cpu_score,
        "network_score": node.network_score,
    }


def node_from_json(data: dict) -> NodeDescriptor:
    return NodeDescriptor(
        name=data["name"],
        platform=Platform(data.get("platform", "linux")),
        gpu_type=data["gpu_type"],
        gpu_count=int(data["gpu_count"]),
        gpu_mem_bytes=int(data["gpu_mem_bytes"]),
        capacity_score=float(data.get("capacity_score", 1.0)),
        cpu_score=float(data.get("cpu_score", 1.0)),
        network_score=float(data.get("network_score", 1.0)),
    )


def link_to_json(link: LinkProfile) -> dict:
    return {
        "from": link.src,
        "to": link.dst,
        "latency_s": link.latency_s,
        "bandwidth_bps": link.bandwidth_bps,
    }


def link_from_json(data: dict) -> LinkProfile:
    return LinkProfile(
        src=data["from"],
        dst=data["to"],
        latency_s=float(data["latency_s"]),
        bandwidth_bps=float(data["bandwidth_bps"]),
    )


def load_cluster(path: str | Path) -> ClusterSpec:
    with Path(path).open(encoding="utf-8") as fh:
        return ClusterSpec.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class ModelSpec:
    """Model shape used for partitioning and activation payload sizing."""

    name: str
    num_layers: int
    hidden_dim: int
    dtype_bytes: int
    bytes_per_layer: int

    def __post_init__(self) -> None:
        for field_name in ("num_layers", "hidden_dim", "dtype_bytes", "bytes_per_layer"):
            if getattr(self, field_name) < 1:
                raise ConfigError(f"model {self.name}: {field_name} must be >= 1")


MODEL_PRESETS: dict[str, ModelSpec] = {
    # Activations are fp16 in both presets; the 4-bit variant only shrinks
    # the per-layer weight footprint.
    "llama-7b": ModelSpec(
        name="llama-7b",
        num_layers=32,
        hidden_dim=4096,
        dtype_bytes=2,
        bytes_per_layer=437_500_000,
    ),
    "llama-70b-4bit": ModelSpec(
        name="llama-70b-4bit",
        num_layers=80,
        hidden_dim=8192,
        dtype_bytes=2,
        bytes_per_layer=437_500_000,
    ),
    "tiny-4l": ModelSpec(
        name="tiny-4l",
        num_layers=4,
        hidden_dim=64,
        dtype_bytes=2,
        bytes_per_layer=1 << 20,
    ),
}


def resolve_model(spec: str | dict | ModelSpec) -> ModelSpec:
    if isinstance(spec, ModelSpec):
        return spec
    if isinstance(spec, str):
        try:
            return MODEL_PRESETS[spec]
        except KeyError:
            raise ConfigError(
                f"unknown model preset '{spec}' (have: {', '.join(sorted(MODEL_PRESETS))})"
            ) from None
    return ModelSpec(
        name=spec["name"],
        num_layers=int(spec["num_layers"]),
        hidden_dim=int(spec["hidden_dim"]),
        dtype_bytes=int(spec["dtype_bytes"]),
        bytes_per_layer=int(spec["bytes_per_layer"]),
    )


@dataclass(frozen=True)
class PartitionPlan:
    """Ordered stage assignment: (node name, [lo, hi) layer range) per stage."""

    stages: tuple[tuple[str, tuple[int, int]], ...]
    head: str

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigError("plan needs at least one stage")
        if self.head != self.stages[0][0]:
            raise ConfigError("head must be the first stage's node")
        expect = 0
        for node, (lo, hi) in self.stages:
            if lo != expect or hi <= lo:
                raise ConfigError(f"stage on {node}: bad layer range [{lo}, {hi})")
            expect = hi

    @property
    def num_layers(self) -> int:
        return self.stages[-1][1][1]

    def layer_counts(self) -> list[int]:
        return [hi - lo for _, (lo, hi) in self.stages]

    def node_names(self) -> list[str]:
        return [name for name, _ in self.stages]

    def to_json_dict(self) -> dict:
        return {
            "head": self.head,
            "stages": [
                {"node": node, "layers": [lo, hi]} for node, (lo, hi) in self.stages
            ],
        }

    def format_table(self) -> str:
        lines = [f"{'stage':>5}  {'node':<20} {'layers':<12} {'count':>5}"]
        for i, (node, (lo, hi)) in enumerate(self.stages):
            mark = " (head)" if node == self.head else ""
            lines.append(f"{i:>5}  {node:<20} [{lo}, {hi}){'':<3} {hi - lo:>5}{mark}")
        return "\n".join(lines)


def choose_head(nodes: list[NodeDescriptor]) -> str:
    """Pick the pipeline head: best cpu_score * network_score, name breaks ties."""
    if not nodes:
        raise ConfigError("choose_head needs a non-empty node list")
    return min(nodes, key=lambda n: (-(n.cpu_score * n.network_score), n.name)).name


def reference_payload_bytes(model: ModelSpec) -> int:
    # 1024-token activation, the yardstick for ranking candidate links.
    return 1024 * model.hidden_dim * model.dtype_bytes


def _chain_cost(
    cluster: ClusterSpec, order: tuple[NodeDescriptor, ...], ref_bytes: int
) -> float:
    cost = 0.0
    for a, b in zip(order, order[1:]):
        link = cluster.link(a.name, b.name)
        if link is None:
            return math.inf
        cost += link.latency_s + ref_bytes / link.bandwidth_bps
    return cost


def select_nodes(
    cluster: ClusterSpec,
    model: ModelSpec,
    required_gpu_type: str,
    required_gpu_count: int,
) -> list[NodeDescriptor]:
    """Pick the nodes that will host the pipeline, head first.

    A single node with a matching GPU type, enough GPUs, and enough total
    memory wins outright (tensor parallelism stays on one box).  Otherwise a
    chain of matching nodes is grown from the best head candidate, minimizing
    summed link cost (latency + reference payload / bandwidth); small
    candidate sets are searched exactly, larger ones greedily.
    """
    if not cluster.nodes:
        raise PlacementError("cluster is empty")
    need_bytes = model.num_layers * model.bytes_per_layer
    matching = sorted(
        (n for n in cluster.nodes.values() if n.gpu_type == required_gpu_type),
        key=lambda n: n.name,
    )
    if not matching:
        raise PlacementError(
            f"no nodes with gpu_type '{required_gpu_type}' "
            f"(need {need_bytes} bytes for {model.name})"
        )

    singles = [
        n
        for n in matching
        if n.gpu_count >= required_gpu_count and n.total_mem_bytes >= need_bytes
    ]
    if singles:
        return [singles[0]]  # already name-sorted

    def feasible(nodes: tuple[NodeDescriptor, ...]) -> bool:
        return (
            sum(n.total_mem_bytes for n in nodes) >= need_bytes
            and sum(n.gpu_count for n in nodes) >= required_gpu_count
        )

    total_avail = sum(n.total_mem_bytes for n in matching)
    if not feasible(tuple(matching)):
        raise PlacementError(
            f"insufficient capacity for {model.name}: need {need_bytes} bytes "
            f"and {required_gpu_count} x {required_gpu_type}, matching nodes "
            f"offer {total_avail} bytes, short {max(0, need_bytes - total_avail)}"
        )

    ref_bytes = reference_payload_bytes(model)
    head = next(n for n in matching if n.name == choose_head(matching))
    rest = [n for n in matching if n.name != head.name]

    best: tuple[float, tuple[str, ...], tuple[NodeDescriptor, ...]] | None = None
    if len(matching) <= EXACT_CHAIN_SEARCH_LIMIT:
        # Exact: try every ordered extension of the head; among the shortest
        # feasible chains keep the cheapest, names breaking ties.
        for size in range(1, len(rest) + 1):
            for perm in itertools.permutations(rest, size):
                chain = (head, *perm)
                if not feasible(chain) or feasible(chain[:-1]):
                    continue
                cost = _chain_cost(cluster, chain, ref_bytes)
                if cost == math.inf:
                    continue
                key = (cost, tuple(n.name for n in chain), chain)
                if best is None or key[:2] < best[:2]:
                    best = key
            if best is not None:
                break
        if best is None:
            raise PlacementError(
                f"no connected chain of '{required_gpu_type}' nodes reaches "
                f"{need_bytes} bytes for {model.name}"
            )
        return list(best[2])

    # Greedy nearest-neighbor for larger clusters.
    chain = [head]
    remaining = list(rest)
    while not feasible(tuple(chain)):
        tail = chain[-1]
        scored = []
        for cand in remaining:
            link = cluster.link(tail.name, cand.name)
            if link is None:
                continue
            scored.append(
                (link.latency_s + ref_bytes / link.bandwidth_bps, cand.name, cand)
            )
        if not scored:
            have = sum(n.total_mem_bytes for n in chain)
            raise PlacementError(
                f"chain stalled at {tail.name}: need {need_bytes - have} more bytes "
                f"but no outgoing links to unused '{required_gpu_type}' nodes"
            )
        scored.sort(key=lambda t: (t[0], t[1]))
        nxt = scored[0][2]
        chain.append(nxt)
        remaining.remove(nxt)
    return chain


def partition_layers(nodes: list[NodeDescriptor], model: ModelSpec) -> PartitionPlan:
    """Split layers proportionally to capacity_score * gpu_count.

    Largest-remainder rounding with a one-layer floor per node; equal scores
    give the uniform split.  The first node is the head.
    """
    if not nodes:
        raise PlacementError("partition needs at least one node")
    L = model.num_layers
    if L < len(nodes):
        raise PlacementError(f"more nodes ({len(nodes)}) than layers ({L})")

    weights = [n.capacity_score * n.gpu_count for n in nodes]
    total_w = sum(weights)
    quotas = [L * w / total_w for w in weights]
    counts = [math.floor(q) for q in quotas]
    leftover = L - sum(counts)
    by_frac = sorted(range(len(nodes)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_frac[:leftover]:
        counts[i] += 1

    # One-layer floor: raise starved nodes, taking from the fullest.
    for i in range(len(counts)):
        while counts[i] < 1:
            donor = min(
                (j for j in range(len(counts)) if counts[j] >= 2),
                key=lambda j: (-counts[j], j),
            )
            counts[donor] -= 1
            counts[i] += 1

    stages = []
    lo = 0
    for node, count in zip(nodes, counts):
        stages.append((node.name, (lo, lo + count)))
        lo += count
    return PartitionPlan(stages=tuple(stages), head=nodes[0].name)


def plan_deployment(
    cluster: ClusterSpec,
    model: ModelSpec,
    required_gpu_type: str,
    required_gpu_count: int,
) -> PartitionPlan:
    """select_nodes + partition_layers in one step (head already first)."""
    nodes = select_nodes(cluster, model, required_gpu_type, required_gpu_count)
    return partition_layers(nodes, model)
