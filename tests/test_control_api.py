import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from pipelink.control_api import ClusterRegistry, ServiceState, make_server
from pipelink.errors import RegistryError
from pipelink.metrics import MetricsReport
from pipelink.placement import Platform
from pipelink.profiles import LinkProfile

from simsetup import make_node

GB = 1 << 30


def registry_with_nodes(count=4, journal=None, mem_gb=8):
    reg = ClusterRegistry(key_seed=123, journal_path=journal)
    names = [f"n{i}" for i in range(count)]
    for i, name in enumerate(names):
        links = []
        for other in names[:i]:
            links.append(LinkProfile(name, other, 0.01, 1e9))
            links.append(LinkProfile(other, name, 0.01, 1e9))
        reg.node_access(
            make_node(name, gpu_type="rtx4090", gpu_mem_bytes=mem_gb * GB), links=links
        )
    return reg


def test_register_then_status_echoes_descriptor():
    reg = registry_with_nodes(1)
    status = reg.check_node_status("n0")
    assert status["metadata"]["gpu_type"] == "rtx4090"
    assert status["utilization"]["source"] == "simulated"


def test_duplicate_node_registration_rejected():
    reg = registry_with_nodes(1)
    with pytest.raises(RegistryError) as err:
        reg.node_access(make_node("n0"))
    assert err.value.code == "conflict"


def test_deploy_plan_covers_all_layers():
    reg = registry_with_nodes(2)
    record = reg.deploy_llm_service(
        "svc", "tiny-4l", {"gpu_type": "rtx4090", "gpu_count": 1}, {}
    )
    assert record.state is ServiceState.RUNNING
    assert record.plan.num_layers == 4
    reg.check_invariants()


def test_duplicate_service_name_conflicts():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    with pytest.raises(RegistryError) as err:
        reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    assert err.value.code == "conflict"


def test_placement_failure_names_the_deficit():
    reg = registry_with_nodes(1, mem_gb=1)
    with pytest.raises(RegistryError) as err:
        reg.deploy_llm_service("svc", "llama-7b", {"gpu_type": "rtx4090"}, {})
    assert err.value.code == "placement_failed"
    assert "short" in str(err.value)


def test_api_key_stable_and_scoped():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    key1 = reg.get_api_key("svc")
    key2 = reg.get_api_key("svc")
    assert key1 == key2
    assert len(key1) == 32
    with pytest.raises(RegistryError):
        reg.get_api_key("nope")


def test_deleted_service_not_found():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    reg.delete_llm_service("svc")
    for op in (reg.get_api_key, reg.check_service_status, reg.delete_llm_service):
        with pytest.raises(RegistryError):
            op("svc")


def test_delete_frees_nodes_for_redeployment():
    reg = registry_with_nodes(1)
    reg.deploy_llm_service("a", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    with pytest.raises(RegistryError):  # single node already booked
        reg.deploy_llm_service("b", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    reg.delete_llm_service("a")
    reg.deploy_llm_service("b", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    reg.check_invariants()


def test_node_exit_refuses_while_hosting():
    reg = registry_with_nodes(2)
    record = reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    hosting = record.plan.node_names()[0]
    with pytest.raises(RegistryError) as err:
        reg.node_exit(hosting)
    assert err.value.code == "conflict"
    reg.node_exit(hosting, cascade=True)  # tears the service down first
    with pytest.raises(RegistryError):
        reg.check_service_status("svc")
    reg.check_invariants()


def test_exit_free_node_removes_it():
    reg = registry_with_nodes(2)
    reg.node_exit("n1")
    with pytest.raises(RegistryError):
        reg.check_node_status("n1")
    assert "n1" not in reg.snapshot()["nodes"]


def test_counters_updated_from_run():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    report = MetricsReport(
        throughput_tok_s=10.0, ttft_mean_s=0.2, ttft_p50_s=0.2, ttft_p99_s=0.3,
        tpot_mean_s=0.05, bubble_fraction_per_stage=(0.1,), span_s=3.0,
        total_tokens=30,
    )
    reg.record_run("svc", report, request_count=2)
    status = reg.check_service_status("svc")
    assert status["token_count"] == 30
    assert status["request_count"] == 2
    assert status["metrics"]["throughput_tok_s"] == pytest.approx(10.0)
    head = status["plan"]["head"]
    assert reg.check_node_status(head)["utilization"]["gpu_load"] == pytest.approx(0.9)


def test_journal_replay_restores_state(tmp_path):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})
    key = reg.get_api_key("svc")
    reg.node_exit("n1")

    restored = ClusterRegistry.replay(journal)
    assert restored.snapshot()["nodes"] == ["n0"]
    assert restored.get_api_key("svc") == key
    restored.check_invariants()


# -- HTTP layer ----------------------------------------------------------------


@pytest.fixture()
def http_server():
    reg = ClusterRegistry(key_seed=5)
    server = make_server(reg, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield reg, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def call(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_http_node_lifecycle(http_server):
    _, base = http_server
    node = {
        "name": "w0", "platform": "linux", "gpu_type": "rtx4090",
        "gpu_count": 1, "gpu_mem_bytes": 8 * GB,
    }
    status, body = call(base, "POST", "/nodes", node)
    assert status == 201 and body["name"] == "w0"
    status, body = call(base, "GET", "/nodes/w0")
    assert status == 200 and body["metadata"]["gpu_count"] == 1
    status, body = call(base, "DELETE", "/nodes/w0")
    assert status == 200
    status, body = call(base, "GET", "/nodes/w0")
    assert status == 404 and body["code"] == "not_found"


def test_http_service_lifecycle_and_errors(http_server):
    _, base = http_server
    for i in range(2):
        node = {
            "name": f"w{i}", "gpu_type": "rtx4090", "gpu_count": 1,
            "gpu_mem_bytes": 8 * GB,
            "links": [
                {"from": f"w{i}", "to": "w0", "latency_s": 0.01, "bandwidth_bps": 1e9},
                {"from": "w0", "to": f"w{i}", "latency_s": 0.01, "bandwidth_bps": 1e9},
            ] if i else [],
        }
        assert call(base, "POST", "/nodes", node)[0] == 201
    deploy = {
        "service_name": "svc", "model_name": "tiny-4l",
        "resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1},
    }
    status, body = call(base, "POST", "/services", deploy)
    assert status == 201 and body["state"] == "running"
    status, body = call(base, "POST", "/services", deploy)
    assert status == 409 and body["code"] == "conflict"
    assert set(body) == {"code", "message", "details"}
    status, body = call(base, "GET", "/services/svc/key")
    assert status == 200 and len(body["api_key"]) == 32
    status, body = call(base, "GET", "/services/svc")
    assert status == 200 and body["request_count"] == 0
    assert call(base, "DELETE", "/services/svc")[0] == 200
    assert call(base, "GET", "/services/svc")[0] == 404


def test_http_bad_body_is_invalid(http_server):
    _, base = http_server
    status, body = call(base, "POST", "/services", {"service_name": "x"})
    assert status == 400 and body["code"] == "invalid"


@pytest.mark.parametrize(
    "path, body", [("/nodes", [1, 2]), ("/nodes", "x"), ("/services", [])]
)
def test_http_non_object_body_is_invalid(http_server, path, body):
    _, base = http_server
    status, reply = call(base, "POST", path, body)
    assert status == 400 and reply["code"] == "invalid"


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_http_bad_content_length_is_invalid(http_server, length):
    _, base = http_server
    conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
    try:
        conn.putrequest("POST", "/nodes")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400 and json.loads(resp.read())["code"] == "invalid"
    finally:
        conn.close()


_W0 = {"name": "w0", "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": 8 * GB}


@pytest.mark.parametrize(
    "links",
    [
        5,
        [3],
        [{"to": "w0", "latency_s": 0.01, "bandwidth_bps": 1e9}],
        [{"from": "w1", "to": "w0", "latency_s": -1.0, "bandwidth_bps": 1e9}],
        [{"from": "w0", "to": "ghost", "latency_s": 0.01, "bandwidth_bps": 1e9}],
    ],
    ids=["not-a-list", "not-an-object", "no-from", "negative-latency", "ghost-endpoint"],
)
def test_http_bad_links_are_invalid(http_server, links):
    reg, base = http_server
    assert call(base, "POST", "/nodes", _W0)[0] == 201
    status, body = call(base, "POST", "/nodes", {**_W0, "name": "w1", "links": links})
    assert status == 400 and body["code"] == "invalid"
    assert reg.snapshot()["nodes"] == ["w0"]
    reg.check_invariants()


def test_link_to_unregistered_node_rejected():
    reg = registry_with_nodes(1)
    for link in (LinkProfile("n0", "ghost", 0.01, 1e9), LinkProfile("ghost", "n1", 0.01, 1e9)):
        with pytest.raises(RegistryError) as err:
            reg.node_access(make_node("n1"), links=[link])
        assert err.value.code == "invalid" and "ghost" in str(err.value)
    assert reg.snapshot()["nodes"] == ["n0"]
    reg.check_invariants()


def test_invariants_fail_on_link_to_unregistered_node():
    reg = registry_with_nodes(2)
    reg.check_invariants()
    reg._cluster.links[("n0", "ghost")] = LinkProfile("n0", "ghost", 0.01, 1e9)
    with pytest.raises(RegistryError, match="ghost"):
        reg.check_invariants()


@pytest.mark.parametrize(
    "change",
    [
        {"resource_specification": 5},
        {"resource_specification": ["gpu_type"]},
        {"inference_parameters": 5},
        {"inference_parameters": []},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": "x"}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": None}},
        {"service_name": [1]},
        {"service_name": {"a": 1}},
        {"model_name": [1]},
    ],
    ids=["spec-int", "spec-list", "params-int", "params-list", "gpu-count-text",
         "gpu-count-null", "name-list", "name-object", "model-list"],
)
def test_http_badly_typed_service_is_invalid_and_not_journaled(tmp_path, change):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    server = make_server(reg, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        before = journal.read_bytes()
        deploy = {
            "service_name": "svc", "model_name": "tiny-4l",
            "resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1},
            **change,
        }
        status, body = call(base, "POST", "/services", deploy)
        assert status == 400 and body["code"] == "invalid"
        assert journal.read_bytes() == before
        assert reg.snapshot()["services"] == {}
        # The server is still up and the same name deploys once well formed.
        deploy.update(
            service_name="svc", model_name="tiny-4l",
            resource_specification={"gpu_type": "rtx4090"}, inference_parameters={},
        )
        assert call(base, "POST", "/services", deploy)[0] == 201
    finally:
        server.shutdown()
        server.server_close()


def test_node_journal_bytes_and_replay_are_stable(tmp_path):
    # Pinned from the journal format before nodes and links shared one codec.
    journal = tmp_path / "registry.jsonl"
    reg = ClusterRegistry(journal_path=journal)
    reg.node_access(make_node("a", gpu_type="rtx4090", gpu_mem_bytes=8 * GB))
    reg.node_access(
        make_node("b", gpu_count=2, capacity=1.5, platform=Platform.WINDOWS),
        links=[LinkProfile("b", "a", 0.01, 1e9)],
    )
    assert journal.read_text() == (
        '{"links": [], "node": {"capacity_score": 1.0, "cpu_score": 1.0, '
        '"gpu_count": 1, "gpu_mem_bytes": 8589934592, "gpu_type": "rtx4090", '
        '"name": "a", "network_score": 1.0, "platform": "linux"}, '
        '"op": "node_access"}\n'
        '{"links": [{"bandwidth_bps": 1000000000.0, "from": "b", "latency_s": 0.01, '
        '"to": "a"}], "node": {"capacity_score": 1.5, "cpu_score": 1.0, '
        '"gpu_count": 2, "gpu_mem_bytes": 17179869184, "gpu_type": "g", '
        '"name": "b", "network_score": 1.0, "platform": "windows"}, '
        '"op": "node_access"}\n'
    )
    assert reg.check_node_status("b")["metadata"] == {
        "name": "b", "platform": "windows", "gpu_type": "g", "gpu_count": 2,
        "gpu_mem_bytes": 2 * 8 * GB, "capacity_score": 1.5, "cpu_score": 1.0,
        "network_score": 1.0,
    }
    restored = ClusterRegistry.replay(journal)
    assert restored.snapshot()["nodes"] == ["a", "b"]
    assert restored.check_node_status("b") == reg.check_node_status("b")
    assert restored._cluster.links == reg._cluster.links
