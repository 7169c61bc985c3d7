import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.errors import PlacementError
from pipelink.placement import (
    ClusterSpec,
    ModelSpec,
    NodeDescriptor,
    PartitionPlan,
    Platform,
    choose_head,
    link_from_json,
    link_to_json,
    node_from_json,
    node_to_json,
    partition_layers,
    plan_deployment,
    reference_payload_bytes,
    select_nodes,
)
from pipelink.profiles import LinkProfile

from simsetup import make_node

GB = 1 << 30


def small_model(num_layers=32, bytes_per_layer=GB // 2):
    return ModelSpec(
        name="m",
        num_layers=num_layers,
        hidden_dim=4096,
        dtype_bytes=2,
        bytes_per_layer=bytes_per_layer,
    )


def mesh_links(names, latency=0.01, bandwidth=1e9):
    return {
        (a, b): LinkProfile(a, b, latency, bandwidth)
        for a in names
        for b in names
        if a != b
    }


# -- choose_head ------------------------------------------------------------


def test_choose_head_single_node():
    assert choose_head([make_node("only")]) == "only"


def test_choose_head_dominance():
    nodes = [make_node("a", cpu=2.0, net=1.0), make_node("b", cpu=1.0, net=1.0)]
    assert choose_head(nodes) == "a"


def test_choose_head_product_tie_breaks_by_name():
    nodes = [make_node("b", cpu=3.0, net=2.0), make_node("a", cpu=2.0, net=3.0)]
    assert choose_head(nodes) == "a"  # products equal (6), name wins


def test_choose_head_invariant_under_cpu_rescaling():
    rng = random.Random(11)
    for _ in range(50):
        nodes = [
            make_node(f"n{i}", cpu=rng.uniform(0.1, 5), net=rng.uniform(0.1, 5))
            for i in range(5)
        ]
        base = choose_head(nodes)
        factor = rng.uniform(0.01, 100)
        scaled = [
            make_node(n.name, cpu=n.cpu_score * factor, net=n.network_score)
            for n in nodes
        ]
        assert choose_head(scaled) == base


# -- select_nodes -----------------------------------------------------------


def test_single_multi_gpu_node_preferred():
    model = small_model(num_layers=32, bytes_per_layer=GB // 2)  # needs 16 GB
    big = make_node("big", gpu_count=4, gpu_mem_bytes=6 * GB)  # 24 GB
    small_a = make_node("a", gpu_count=1, gpu_mem_bytes=24 * GB)
    cluster = ClusterSpec(
        nodes={"big": big, "a": small_a}, links=mesh_links(["big", "a"])
    )
    assert [n.name for n in select_nodes(cluster, model, "g", 4)] == ["big"]


def test_two_identical_nodes_form_the_only_chain():
    model = small_model(num_layers=32, bytes_per_layer=GB)  # needs 32 GB
    nodes = {n: make_node(n, gpu_mem_bytes=20 * GB) for n in ("a", "b")}
    cluster = ClusterSpec(nodes=nodes, links=mesh_links(["a", "b"]))
    chain = select_nodes(cluster, model, "g", 1)
    assert sorted(n.name for n in chain) == ["a", "b"]
    assert chain[0].name == "a"  # equal scores, name-ascending head


def test_cheaper_link_wins_the_chain():
    model = small_model(num_layers=32, bytes_per_layer=GB)
    nodes = {
        "a": make_node("a", gpu_mem_bytes=20 * GB, cpu=2.0),  # head by cpu score
        "b": make_node("b", gpu_mem_bytes=20 * GB),
        "c": make_node("c", gpu_mem_bytes=20 * GB),
    }
    links = mesh_links(["a", "b", "c"], latency=0.05)
    links[("a", "b")] = LinkProfile("a", "b", 0.001, 1e9)
    cluster = ClusterSpec(nodes=nodes, links=links)
    assert [n.name for n in select_nodes(cluster, model, "g", 1)] == ["a", "b"]


def test_select_nodes_deterministic():
    model = small_model(num_layers=32, bytes_per_layer=GB)
    nodes = {f"n{i}": make_node(f"n{i}", gpu_mem_bytes=12 * GB) for i in range(5)}
    cluster = ClusterSpec(nodes=nodes, links=mesh_links(list(nodes)))
    first = [n.name for n in select_nodes(cluster, model, "g", 1)]
    for _ in range(5):
        assert [n.name for n in select_nodes(cluster, model, "g", 1)] == first


def test_insufficient_memory_reports_deficit():
    model = small_model(num_layers=32, bytes_per_layer=GB)  # 32 GB needed
    nodes = {n: make_node(n, gpu_mem_bytes=8 * GB) for n in ("a", "b")}
    cluster = ClusterSpec(nodes=nodes, links=mesh_links(["a", "b"]))
    with pytest.raises(PlacementError, match="short"):
        select_nodes(cluster, model, "g", 1)


def test_no_matching_gpu_type():
    cluster = ClusterSpec(nodes={"a": make_node("a")}, links={})
    with pytest.raises(PlacementError):
        select_nodes(cluster, small_model(), "other", 1)


def _chain_oracle(cluster, model, gpu_type, gpu_count):
    """Independent brute force: shortest feasible connected chain from the
    best head, cheapest by summed link cost, names breaking ties."""
    need = model.num_layers * model.bytes_per_layer
    ref = reference_payload_bytes(model)
    matching = sorted(
        (n for n in cluster.nodes.values() if n.gpu_type == gpu_type),
        key=lambda n: n.name,
    )
    if not matching:
        raise PlacementError("no type match")
    singles = [
        n
        for n in matching
        if n.gpu_count >= gpu_count and n.total_mem_bytes >= need
    ]
    if singles:
        return [singles[0].name]
    ranked = sorted(
        matching, key=lambda n: (-n.cpu_score * n.network_score, n.name)
    )
    head = ranked[0]
    others = [n for n in matching if n.name != head.name]

    def ok(seq):
        return (
            sum(n.total_mem_bytes for n in seq) >= need
            and sum(n.gpu_count for n in seq) >= gpu_count
        )

    for size in range(1, len(others) + 1):
        candidates = []
        for perm in itertools.permutations(others, size):
            seq = (head,) + perm
            if not ok(seq) or ok(seq[:-1]):
                continue
            cost = 0.0
            connected = True
            for x, y in zip(seq, seq[1:]):
                link = cluster.links.get((x.name, y.name))
                if link is None:
                    connected = False
                    break
                cost += link.latency_s + ref / link.bandwidth_bps
            if connected:
                candidates.append((cost, [n.name for n in seq]))
        if candidates:
            return min(candidates)[1]
    raise PlacementError("no feasible chain")


def test_chain_matches_exhaustive_oracle_on_small_clusters():
    rng = random.Random(7)
    for trial in range(60):
        count = rng.randint(2, 6)
        names = [f"n{i}" for i in range(count)]
        nodes = {
            name: make_node(
                name,
                gpu_mem_bytes=rng.choice([6, 10, 14]) * GB,
                cpu=rng.uniform(0.5, 2.0),
                net=rng.uniform(0.5, 2.0),
            )
            for name in names
        }
        links = {}
        for a in names:
            for b in names:
                if a != b and rng.random() < 0.8:
                    links[(a, b)] = LinkProfile(
                        a, b, rng.uniform(0.001, 0.1), rng.choice([1e8, 1e9, 1e10])
                    )
        cluster = ClusterSpec(nodes=nodes, links=links)
        model = small_model(num_layers=32, bytes_per_layer=GB)  # 32 GB
        try:
            expected = _chain_oracle(cluster, model, "g", 1)
        except PlacementError:
            with pytest.raises(PlacementError):
                select_nodes(cluster, model, "g", 1)
            continue
        got = [n.name for n in select_nodes(cluster, model, "g", 1)]
        assert got == expected, f"trial {trial}: {got} != {expected}"


# -- partition_layers -------------------------------------------------------


def test_uniform_split_two_nodes():
    nodes = [make_node("a"), make_node("b")]
    plan = partition_layers(nodes, small_model(num_layers=32))
    assert plan.layer_counts() == [16, 16]
    assert plan.head == "a"


def test_proportional_split_two_to_one():
    nodes = [make_node("a", capacity=2.0), make_node("b", capacity=1.0)]
    plan = partition_layers(nodes, small_model(num_layers=30))
    assert plan.layer_counts() == [20, 10]


def test_largest_remainder_example():
    nodes = [
        make_node("a", capacity=3.0),
        make_node("b", capacity=2.0),
        make_node("c", capacity=2.0),
    ]
    plan = partition_layers(nodes, small_model(num_layers=10))
    # quotas 4.286, 2.857, 2.857
    assert plan.layer_counts() == [4, 3, 3]


def test_more_nodes_than_layers_rejected():
    nodes = [make_node(f"n{i}") for i in range(5)]
    with pytest.raises(PlacementError):
        partition_layers(nodes, small_model(num_layers=4))


def partition_oracle(weights, total_layers):
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


@given(
    data=st.lists(
        st.tuples(st.floats(0.05, 10.0), st.integers(1, 8)), min_size=1, max_size=6
    ),
    layers=st.integers(1, 96),
)
@settings(max_examples=300, deadline=None)
def test_partition_invariants_and_oracle(data, layers):
    if layers < len(data):
        layers = len(data)
    nodes = [
        make_node(f"n{i}", capacity=cap, gpu_count=gpus)
        for i, (cap, gpus) in enumerate(data)
    ]
    model = small_model(num_layers=layers)
    plan = partition_layers(nodes, model)
    counts = plan.layer_counts()
    assert sum(counts) == layers
    assert min(counts) >= 1
    assert counts == partition_oracle(
        [n.capacity_score * n.gpu_count for n in nodes], layers
    )
    # PartitionPlan invariants enforced by the constructor; re-build to check
    PartitionPlan(stages=plan.stages, head=plan.head)


def test_plan_deployment_head_first():
    names = ["w1", "w2"]
    nodes = {
        "w1": make_node("w1", gpu_mem_bytes=20 * GB, cpu=0.5),
        "w2": make_node("w2", gpu_mem_bytes=20 * GB, cpu=3.0),
    }
    cluster = ClusterSpec(nodes=nodes, links=mesh_links(names))
    model = small_model(num_layers=32, bytes_per_layer=GB)
    plan = plan_deployment(cluster, model, "g", 1)
    assert plan.head == "w2"
    assert plan.node_names()[0] == "w2"


# -- node and link JSON ------------------------------------------------------------


NODE_JSON = {
    "name": "a", "platform": "windows", "gpu_type": "rtx4090", "gpu_count": 2,
    "gpu_mem_bytes": 8 << 30, "capacity_score": 1.5, "cpu_score": 0.5,
    "network_score": 2.0,
}
LINK_JSON = {"from": "a", "to": "b", "latency_s": 0.01, "bandwidth_bps": 1e9}


def test_node_and_link_json_round_trip():
    node = node_from_json(NODE_JSON)
    assert node_to_json(node) == NODE_JSON
    assert list(node_to_json(node)) == list(NODE_JSON)
    link = link_from_json(LINK_JSON)
    assert link == LinkProfile("a", "b", 0.01, 1e9)
    assert link_to_json(link) == LINK_JSON


def test_node_json_defaults_and_coercion():
    node = node_from_json(
        {"name": "a", "gpu_type": "g", "gpu_count": "2", "gpu_mem_bytes": 5.0}
    )
    assert node == NodeDescriptor("a", Platform.LINUX, "g", 2, 5, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "decode, data, key",
    [(node_from_json, NODE_JSON, k) for k in ("name", "gpu_type", "gpu_count",
                                              "gpu_mem_bytes")]
    + [(link_from_json, LINK_JSON, k) for k in LINK_JSON],
)
def test_node_and_link_json_required_keys(decode, data, key):
    with pytest.raises(KeyError):
        decode({k: v for k, v in data.items() if k != key})


def test_cluster_json_round_trip():
    data = {
        "nodes": [NODE_JSON, {**NODE_JSON, "name": "b", "platform": "linux"}],
        "links": [LINK_JSON, {**LINK_JSON, "from": "b", "to": "a"}],
    }
    cluster = ClusterSpec.from_json_dict(data)
    assert cluster.to_json_dict() == data
    assert ClusterSpec.from_json_dict(cluster.to_json_dict()) == cluster
