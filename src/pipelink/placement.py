"""Node selection, head choice, and capacity-proportional layer partitioning."""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from .decode import decode, json_field, read_json
from .errors import ConfigError, PlacementError
from .profiles import LinkProfile
from .transport import activation_bytes, transfer_ns

# Beyond this many candidate nodes the chain search falls back to greedy
# nearest-neighbor; below it the minimum-cost chain is found exactly.
EXACT_CHAIN_SEARCH_LIMIT = 8


class Platform(enum.Enum):
    LINUX = "linux"
    WINDOWS = "windows"
    CONTAINERIZED_VM = "containerized_vm"


@dataclass(frozen=True)
class NodeDescriptor:
    """A worker node: hardware inventory plus relative performance scores.

    ``platform`` is a label: it is decoded, journaled and returned; no model reads it yet.
    """

    name: str
    platform: Platform = json_field(default=Platform.LINUX)
    gpu_type: str
    gpu_count: int
    gpu_mem_bytes: int
    capacity_score: float = json_field(default=1.0)
    cpu_score: float = json_field(default=1.0)
    network_score: float = json_field(default=1.0)

    def __post_init__(self) -> None:
        if not self.name:  # a path segment can name no empty node
            raise ConfigError("node name must not be empty")
        if self.gpu_count < 1:
            raise ConfigError(f"node {self.name}: gpu_count must be >= 1")
        if self.gpu_mem_bytes < 1:
            raise ConfigError(f"node {self.name}: gpu_mem_bytes must be >= 1")
        for field_name in ("capacity_score", "cpu_score", "network_score"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"node {self.name}: {field_name} must be finite and > 0")

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

    def subcluster(self, names: set[str]) -> "ClusterSpec":
        """The named nodes, in this cluster's order, and the links between them."""
        return ClusterSpec(
            nodes={name: node for name, node in self.nodes.items() if name in names},
            links={key: link for key, link in self.links.items() if names.issuperset(key)},
        )

    @classmethod
    def from_json_dict(cls, data, path: str = "$") -> "ClusterSpec":
        """Decode the JSON form, ``{"nodes": [...], "links": [...]}``."""
        doc = decode(_ClusterFile, data, path)
        nodes: dict[str, NodeDescriptor] = {}
        for i, node in enumerate(doc.nodes):
            if node.name in nodes:
                raise ConfigError(f"{path}.nodes[{i}]: duplicate node name {node.name}")
            nodes[node.name] = node
        links: dict[tuple[str, str], LinkProfile] = {}
        for i, link in enumerate(doc.links):
            if (link.src, link.dst) in links:
                raise ConfigError(f"{path}.links[{i}]: duplicate link {link.name}")
            links[(link.src, link.dst)] = link
        try:
            return cls(nodes=nodes, links=links)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class _ClusterFile:
    """The JSON form of a cluster, as in cluster files: lists of nodes and links."""

    nodes: tuple[NodeDescriptor, ...] = ()
    links: tuple[LinkProfile, ...] = ()


def load_cluster(path: str | Path) -> ClusterSpec:
    return ClusterSpec.from_json_dict(read_json(path), f"{path}: $")


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

    @property
    def bytes_per_token(self) -> int:
        """Activation bytes of one token crossing a stage boundary."""
        return self.hidden_dim * self.dtype_bytes


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


def resolve_model(spec: str | ModelSpec) -> ModelSpec:
    """A model given by preset name, or the model itself."""
    if isinstance(spec, ModelSpec):
        return spec
    try:
        return MODEL_PRESETS[spec]
    except KeyError:
        raise ConfigError(
            f"unknown model preset '{spec}' (have: {', '.join(sorted(MODEL_PRESETS))})"
        ) from None


@dataclass(frozen=True)
class ResourceSpec:
    """What a pipeline needs: run-config ``placement``, a service's ``resource_specification``."""

    gpu_type: str
    gpu_count: int = 1

    def __post_init__(self) -> None:
        if self.gpu_count < 1:
            raise ConfigError("gpu_count must be >= 1")


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
    return activation_bytes(1024, model.bytes_per_token)


def _chain_cost(
    cluster: ClusterSpec, order: tuple[NodeDescriptor, ...], ref_bytes: int
) -> int | None:
    """Summed link cost of the chain in ns, or None if a link is missing."""
    cost = 0
    for a, b in zip(order, order[1:]):
        link = cluster.link(a.name, b.name)
        if link is None:
            return None
        cost += transfer_ns(link, ref_bytes)
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
    summed link cost (``transfer_ns`` of the reference payload, an integer
    nanosecond figure, so equal costs tie exactly and names break the tie);
    small candidate sets are searched exactly, larger ones greedily.
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

    best: tuple[int, tuple[str, ...], tuple[NodeDescriptor, ...]] | None = None
    if len(matching) <= EXACT_CHAIN_SEARCH_LIMIT:
        # Exact: try every ordered extension of the head; among the shortest
        # feasible chains keep the cheapest, names breaking ties.
        for size in range(1, len(rest) + 1):
            for perm in itertools.permutations(rest, size):
                chain = (head, *perm)
                if not feasible(chain) or feasible(chain[:-1]):
                    continue
                cost = _chain_cost(cluster, chain, ref_bytes)
                if cost is None:
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
            if link is not None:
                scored.append((transfer_ns(link, ref_bytes), cand.name, cand))
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
    if not math.isfinite(L * total_w):  # then no quota's L * w is past the range
        raise ConfigError(
            f"capacity_score * gpu_count summed over the nodes, times {L} layers, "
            "is past the float range"
        )
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
