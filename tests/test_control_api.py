import errno
import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

import pipelink
import pipelink.control_api
from pipelink.control_api import (
    _STATUS_BY_CODE,
    MAX_BODY_BYTES,
    ClusterRegistry,
    _Handler,
    make_server,
)
from pipelink.errors import ConfigError, RegistryError
from pipelink.placement import Platform
from pipelink.profiles import LinkProfile

from simsetup import make_node, open_files, plan_num_layers

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
    assert set(status) == {"name", "metadata", "hosting"}


def test_duplicate_node_registration_rejected():
    reg = registry_with_nodes(1)
    with pytest.raises(RegistryError) as err:
        reg.node_access(make_node("n0"))
    assert err.value.code == "conflict"


def test_deploy_plan_covers_all_layers():
    reg = registry_with_nodes(2)
    record = reg.deploy_llm_service(
        "svc", "tiny-4l", {"gpu_type": "rtx4090", "gpu_count": 1}
    )
    assert record.status_dict()["state"] == "running"
    assert plan_num_layers(record.plan) == 4
    reg.check_invariants()


def test_duplicate_service_name_conflicts():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    with pytest.raises(RegistryError) as err:
        reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    assert err.value.code == "conflict"


def test_placement_failure_names_the_deficit():
    reg = registry_with_nodes(1, mem_gb=1)
    with pytest.raises(RegistryError) as err:
        reg.deploy_llm_service("svc", "llama-7b", {"gpu_type": "rtx4090"})
    assert err.value.code == "placement_failed"
    assert "short" in str(err.value)


def test_api_key_stable_and_scoped():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    key1 = reg.get_api_key("svc")
    key2 = reg.get_api_key("svc")
    assert key1 == key2
    assert len(key1) == 32
    with pytest.raises(RegistryError):
        reg.get_api_key("nope")


def test_deleted_service_not_found():
    reg = registry_with_nodes(2)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    reg.delete_llm_service("svc")
    for op in (reg.get_api_key, reg.check_service_status, reg.delete_llm_service):
        with pytest.raises(RegistryError):
            op("svc")


def test_delete_frees_nodes_for_redeployment():
    reg = registry_with_nodes(1)
    reg.deploy_llm_service("a", "tiny-4l", {"gpu_type": "rtx4090"})
    with pytest.raises(RegistryError):  # single node already booked
        reg.deploy_llm_service("b", "tiny-4l", {"gpu_type": "rtx4090"})
    reg.delete_llm_service("a")
    reg.deploy_llm_service("b", "tiny-4l", {"gpu_type": "rtx4090"})
    reg.check_invariants()


def test_node_exit_refuses_while_hosting():
    reg = registry_with_nodes(2)
    record = reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
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


def test_journal_replay_restores_state(tmp_path):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    key = reg.get_api_key("svc")
    reg.node_exit("n1")

    restored = ClusterRegistry.replay(journal)
    assert restored.snapshot()["nodes"] == ["n0"]
    assert restored.get_api_key("svc") == key
    restored.check_invariants()


def test_deleted_services_are_forgotten(tmp_path):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    for i in range(1000):
        reg.deploy_llm_service(f"svc{i}", "tiny-4l", {"gpu_type": "rtx4090"})
        reg.delete_llm_service(f"svc{i}")
    assert reg.snapshot() == {"nodes": ["n0", "n1"], "services": {}, "assignments": {}}
    reg.check_invariants()
    assert ClusterRegistry.replay(journal).snapshot() == reg.snapshot()
    reg.deploy_llm_service("svc0", "tiny-4l", {"gpu_type": "rtx4090"})  # name reused
    assert list(reg.snapshot()["services"]) == ["svc0"]


# A node and a deploy as journaled before deploy records lost their
# inference_parameters, which replay does not read.
_OLD_JOURNAL = (
    '{"links": [], "node": {"capacity_score": 1.0, "cpu_score": 1.0, "gpu_count": 1, '
    '"gpu_mem_bytes": 8589934592, "gpu_type": "rtx4090", "name": "n0", '
    '"network_score": 1.0, "platform": "linux"}, "op": "node_access"}\n'
    '{"api_key": "4283fefc63f0cd0e873a0000c6d07ef7", "inference_parameters": '
    '{"max_batch_size": 8}, "model_name": "tiny-4l", "op": "deploy", '
    '"resource_specification": {"gpu_type": "rtx4090"}, "service_name": "svc"}\n'
)


def test_journal_with_inference_parameters_replays(tmp_path):
    journal = tmp_path / "registry.jsonl"
    journal.write_text(_OLD_JOURNAL)
    restored = ClusterRegistry.replay(journal)
    assert restored.snapshot() == {
        "nodes": ["n0"], "services": {"svc": "running"}, "assignments": {"n0": "svc"},
    }
    assert restored.get_api_key("svc") == "4283fefc63f0cd0e873a0000c6d07ef7"
    assert journal.read_text() == _OLD_JOURNAL


def test_replay_drops_torn_last_line(tmp_path):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    whole = journal.read_bytes()
    journal.write_bytes(whole + b'{"op": "node_exit", "na')  # crash mid-append
    restored = ClusterRegistry.replay(journal)
    assert restored.snapshot() == reg.snapshot()
    assert journal.read_bytes() == whole  # the torn bytes are cut off
    restored.delete_llm_service("svc")
    assert ClusterRegistry.replay(journal).snapshot() == restored.snapshot()


@pytest.mark.parametrize(
    "bad_line",
    [b"not json\n", b'{"op": "node_ex\n', b'{"op": "reboot"}\n', b"[1]\n",
     b'{"op": "node_exit"}\n',
     b'{"op": "node_exit", "name": "n0", "cascade": "yes"}\n',
     b'{"op": "node_access", "node": {"name": "n2", "gpu_type": "g", "gpu_count": 1.5, '
     b'"gpu_mem_bytes": 1}}\n',
     b'{"op": "node_access", "node": {"name": 5, "gpu_type": "g", "gpu_count": 1, '
     b'"gpu_mem_bytes": 1}}\n',
     b'{"op": "node_access", "node": {"name": "", "gpu_type": "g", "gpu_count": 1, '
     b'"gpu_mem_bytes": 1}}\n',
     b'{"op": "deploy", "service_name": "", "model_name": "tiny-4l", "api_key": "k", '
     b'"resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1}}\n',
     b"[" * 100_000 + b"\n"],
    ids=["not-json", "torn-but-not-last", "unknown-op", "not-an-object", "no-name",
         "cascade-text", "gpu-count-float", "node-name-int", "node-name-empty",
         "service-name-empty", "nested-too-deep"],
)
def test_replay_bad_middle_line_names_it(tmp_path, bad_line):
    journal = tmp_path / "registry.jsonl"
    registry_with_nodes(2, journal=journal)
    first, second = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(first + bad_line + second)
    with pytest.raises(ConfigError, match="line 2"):
        ClusterRegistry.replay(journal)


def test_replay_conflicting_record_names_its_line(tmp_path):
    journal = tmp_path / "registry.jsonl"
    registry_with_nodes(1, journal=journal)
    journal.write_bytes(journal.read_bytes() * 2)  # n0 registered twice
    with pytest.raises(ConfigError, match="line 2: RegistryError: node n0 already"):
        ClusterRegistry.replay(journal)


def test_api_key_is_keyword_only():
    reg = registry_with_nodes(1)
    with pytest.raises(TypeError):
        reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}, {})


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


@pytest.mark.parametrize("method, path", [("GET", "/nope"), ("POST", "/nodes/a"),
                                          ("DELETE", "/services/a/key")])
def test_http_route_miss_is_a_404_error_body(http_server, method, path):
    _, base = http_server
    conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    assert resp.status == 404
    assert raw == json.dumps({"code": "not_found", "details": {},
                              "message": f"no route {method} {path}"}).encode()
    # The headers leave in the same buffered write as the body.
    assert resp.getheader("Server").startswith("pipelink-control")
    assert resp.getheader("Date")
    assert resp.getheader("Content-Type") == "application/json"
    assert resp.getheader("Content-Length") == str(len(raw))


def test_every_registry_error_code_in_src_has_an_http_status():
    src = Path(pipelink.__file__).parent
    codes = {code for path in src.glob("*.py")
             for code in re.findall(r'RegistryError\(\s*"(\w+)"', path.read_text())}
    assert {"conflict", "not_found", "invalid", "internal"} <= codes
    assert codes <= set(_STATUS_BY_CODE), codes - set(_STATUS_BY_CODE)


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
    assert status == 200 and set(body) == {"service_name", "model", "state", "uptime_s", "plan"}
    assert call(base, "DELETE", "/services/svc")[0] == 200
    assert call(base, "GET", "/services/svc")[0] == 404


@pytest.mark.parametrize("name", ["a b", "a/b", "x?y", "n%41", "é"])
def test_http_addresses_every_name_it_registers(http_server, name):
    _, base = http_server
    quoted = urllib.parse.quote(name, safe="")
    node = {"name": name, "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": 8 * GB}
    assert call(base, "POST", "/nodes", node)[0] == 201
    status, body = call(base, "GET", f"/nodes/{quoted}")
    assert status == 200 and body["name"] == name
    deploy = {
        "service_name": name, "model_name": "tiny-4l",
        "resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1},
    }
    assert call(base, "POST", "/services", deploy)[0] == 201
    status, body = call(base, "GET", f"/services/{quoted}/key")
    assert status == 200 and len(body["api_key"]) == 32
    status, body = call(base, "GET", f"/services/{quoted}")
    assert status == 200 and body["service_name"] == name
    assert call(base, "DELETE", f"/services/{quoted}") == (200, {"deleted": name})
    assert call(base, "DELETE", f"/nodes/{quoted}") == (200, {"deleted": name})
    assert call(base, "GET", f"/nodes/{quoted}")[0] == 404


def test_http_refuses_an_empty_name(http_server):
    reg, base = http_server
    node = {"name": "", "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": 8 * GB}
    status, body = call(base, "POST", "/nodes", node)
    assert status == 400 and body["code"] == "invalid"
    assert call(base, "POST", "/nodes", {**node, "name": "w0"})[0] == 201
    deploy = {
        "service_name": "", "model_name": "tiny-4l",
        "resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1},
    }
    status, body = call(base, "POST", "/services", deploy)
    assert status == 400 and body["code"] == "invalid"
    assert reg.snapshot() == {"nodes": ["w0"], "services": {}, "assignments": {}}


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


# A length is ASCII digits only, where int() also takes "1_0", "+8" and "8 ".
# A leading space never reaches the handler (the header parser strips it),
# and "٨" arrives as the Latin-1 reading of its UTF-8 bytes.
@pytest.mark.parametrize("length", ["abc", "-1", "1_0", "+8", "8 ", "٨"])
def test_http_bad_content_length_is_invalid(http_server, length):
    _, base = http_server
    conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
    try:
        conn.putrequest("POST", "/nodes")
        conn.putheader("Content-Length", length.encode())
        conn.endheaders()
        conn.send(b"{}".ljust(10))  # as many bytes as int() would read
        resp = conn.getresponse()
        reply = json.loads(resp.read())
        assert resp.status == 400 and reply["code"] == "invalid"
        assert reply["message"].startswith("bad Content-Length")
    finally:
        conn.close()


def test_http_body_nested_too_deep_is_invalid(http_server):
    reg, base = http_server
    conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
    try:
        conn.request("POST", "/nodes", body=b"[" * 100_000)
        resp = conn.getresponse()
        assert resp.status == 400 and json.loads(resp.read())["code"] == "invalid"
    finally:
        conn.close()
    assert call(base, "POST", "/nodes", _W0)[0] == 201


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


@pytest.mark.parametrize(
    "change",
    [
        {"capacity_score": float("nan")},
        {"cpu_score": float("inf")},
        {"network_score": float("-inf")},
        {"links": [{"from": "n0", "to": "w", "latency_s": float("nan"), "bandwidth_bps": 1e9}]},
        {"links": [{"from": "w", "to": "n0", "latency_s": 0.01, "bandwidth_bps": float("inf")}]},
    ],
    ids=["capacity-nan", "cpu-inf", "network-minus-inf", "latency-nan", "bandwidth-inf"],
)
def test_http_non_finite_node_numbers_are_invalid_and_not_journaled(tmp_path, change):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(1, journal=journal)
    server = make_server(reg, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        before = journal.read_bytes()
        node = {"name": "w", "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": 8 * GB}
        status, body = call(base, "POST", "/nodes", {**node, **change})
        assert status == 400 and body["code"] == "invalid"
        assert "finite" in body["message"]
        assert journal.read_bytes() == before
        assert reg.snapshot()["nodes"] == ["n0"]
        # The server is still up and the node registers once well formed.
        assert call(base, "POST", "/nodes", node)[0] == 201
    finally:
        server.shutdown()
        server.server_close()
        reg.close()


@pytest.fixture()
def journaled_server(tmp_path):
    """A server on a journaled registry of two nodes; yields (registry, base, journal)."""
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    server = make_server(reg, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield reg, f"http://127.0.0.1:{server.server_address[1]}", journal
    server.shutdown()
    server.server_close()
    reg.close()


@pytest.mark.parametrize("mem", [0, -5])
def test_http_node_without_memory_is_invalid_and_not_journaled(journaled_server, mem):
    reg, base, journal = journaled_server
    before = journal.read_bytes()
    node = {"name": "w", "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": mem}
    status, body = call(base, "POST", "/nodes", node)
    assert status == 400 and body["code"] == "invalid"
    assert "gpu_mem_bytes" in body["message"]
    assert journal.read_bytes() == before
    assert reg.snapshot()["nodes"] == ["n0", "n1"]


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
        {"inference_parameters": {"max_batch_size": 8}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": "x"}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": None}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": 0}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": -3}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1.7}},
        {"resource_specification": {"gpu_type": "rtx4090", "gpu_count": True}},
        {"service_name": [1]},
        {"service_name": {"a": 1}},
        {"model_name": [1]},
        {"resource_specification": {"gpu_type": 5}},
    ],
    ids=["spec-int", "spec-list", "params-int", "params-list", "params-object",
         "gpu-count-text",
         "gpu-count-null", "gpu-count-zero", "gpu-count-negative", "gpu-count-float",
         "gpu-count-bool", "name-list", "name-object", "model-list", "gpu-type-int"],
)
def test_http_badly_typed_service_is_invalid_and_not_journaled(journaled_server, change):
    reg, base, journal = journaled_server
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
    deploy = {"service_name": "svc", "model_name": "tiny-4l",
              "resource_specification": {"gpu_type": "rtx4090"}}
    assert call(base, "POST", "/services", deploy)[0] == 201


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


@pytest.mark.parametrize(
    "change, where",
    [
        ({"name": 5}, "$.name: expected a string"),
        ({"gpu_count": 1.9}, "$.gpu_count: expected an integer"),
        ({"gpu_count": True}, "$.gpu_count: expected an integer"),
        ({"gpu_mem_bytes": "4096"}, "$.gpu_mem_bytes: expected an integer"),
        ({"platform": "mac"}, "$.platform: expected one of 'linux'"),
        ({"capacity_scor": 2.0}, "$: unknown key 'capacity_scor'"),
        ({"links": [{"from": "w", "to": "n0", "latency_s": "0.01", "bandwidth_bps": 1e9}]},
         "$.links[0].latency_s: expected a number"),
        ({"links": [{"from": "w", "to": "n0", "latency_s": 0.01, "bandwith_bps": 1e9}]},
         "$.links[0]: unknown key 'bandwith_bps'"),
    ],
    ids=["name-int", "gpu-count-float", "gpu-count-bool", "gpu-mem-text", "platform-mac",
         "misspelt-capacity", "latency-text", "misspelt-bandwidth"],
)
def test_http_malformed_node_is_invalid_and_not_journaled(journaled_server, change, where):
    reg, base, journal = journaled_server
    before = journal.read_bytes()
    node = {"name": "w", "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": 8 * GB}
    status, body = call(base, "POST", "/nodes", {**node, **change})
    assert status == 400 and body["code"] == "invalid"
    assert body["message"].startswith(where), body["message"]
    assert journal.read_bytes() == before
    assert reg.snapshot()["nodes"] == ["n0", "n1"]
    # The server is still up and the node registers once well formed.
    assert call(base, "POST", "/nodes", node)[0] == 201
    assert call(base, "POST", "/services", {
        "service_name": "svc", "model_name": "tiny-4l",
        "resource_specification": {"gpu_type": "rtx4090"}})[0] == 201


# Every op as journaled before journal records were decoded by schema: nodes
# on all three platforms, links, deploys with and without gpu_count, a delete,
# and node exits with and without cascade.
_FOUR_OP_JOURNAL = (
    '{"links": [], "node": {"capacity_score": 1.0, "cpu_score": 2.0, "gpu_count": 1, '
    '"gpu_mem_bytes": 4194304, "gpu_type": "rtx4090", "name": "a", "network_score": 1.0, '
    '"platform": "linux"}, "op": "node_access"}\n'
    '{"links": [{"bandwidth_bps": 1000000000.0, "from": "a", "latency_s": 0.01, '
    '"to": "b"}, {"bandwidth_bps": 250000000.0, "from": "b", "latency_s": 0.02, '
    '"to": "a"}], "node": {"capacity_score": 1.5, "cpu_score": 1.0, "gpu_count": 2, '
    '"gpu_mem_bytes": 4194304, "gpu_type": "rtx4090", "name": "b", "network_score": 1.0, '
    '"platform": "windows"}, "op": "node_access"}\n'
    '{"links": [], "node": {"capacity_score": 0.5, "cpu_score": 1.0, "gpu_count": 1, '
    '"gpu_mem_bytes": 4194304, "gpu_type": "rtx4090", "name": "c", "network_score": 1.0, '
    '"platform": "containerized_vm"}, "op": "node_access"}\n'
    '{"api_key": "eb8450ae2a1c5ed5571342c3967d286c", "model_name": "tiny-4l", '
    '"op": "deploy", "resource_specification": {"gpu_type": "rtx4090"}, '
    '"service_name": "s1"}\n'
    '{"api_key": "8a160d1cf407d30366a02402f6d2c624", "model_name": "tiny-4l", '
    '"op": "deploy", "resource_specification": {"gpu_count": 1, "gpu_type": "rtx4090"}, '
    '"service_name": "s2"}\n'
    '{"api_key": "51184813c751b2b3be6c60ca0d367e8a", "model_name": "tiny-4l", '
    '"op": "deploy", "resource_specification": {"gpu_type": "rtx4090"}, '
    '"service_name": "s3"}\n'
    '{"op": "delete", "service_name": "s1"}\n'
    '{"op": "delete", "service_name": "s3"}\n'
    '{"cascade": true, "name": "c", "op": "node_exit"}\n'
    '{"cascade": false, "name": "a", "op": "node_exit"}\n'
)


def test_journal_of_every_op_replays(tmp_path):
    journal = tmp_path / "registry.jsonl"
    journal.write_text(_FOUR_OP_JOURNAL)
    restored = ClusterRegistry.replay(journal)
    assert restored.snapshot() == {
        "nodes": ["b"],
        "services": {"s2": "running"},
        "assignments": {"b": "s2"},
    }
    assert restored.get_api_key("s2") == "8a160d1cf407d30366a02402f6d2c624"
    assert restored.check_node_status("b")["metadata"]["platform"] == "windows"
    assert restored._cluster.links == {}  # both links ended at the exited node a
    restored.check_invariants()
    assert journal.read_text() == _FOUR_OP_JOURNAL


def test_old_journal_with_a_cascading_exit_replays_to_the_same_snapshot(tmp_path):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(2, journal=journal)
    hosting = reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"}).plan
    node = hosting.node_names()[0]
    reg.node_exit(node, cascade=True)
    lines = journal.read_text().splitlines(keepends=True)
    assert lines[-2] == '{"op": "delete", "service_name": "svc"}\n'
    assert lines[-1] == f'{{"name": "{node}", "op": "node_exit"}}\n'
    # As journaled when exits carried their cascade flag.
    old = "".join(lines[:-1]) + f'{{"cascade": true, "name": "{node}", "op": "node_exit"}}\n'
    journal.write_text(old)
    assert ClusterRegistry.replay(journal).snapshot() == reg.snapshot()
    assert journal.read_text() == old


def test_http_body_over_the_limit_is_refused_before_reading(http_server):
    _, base = http_server
    conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
    try:
        conn.putrequest("POST", "/nodes")
        conn.putheader("Content-Length", str(10**15))
        conn.endheaders()
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 413 and body["code"] == "too_large"
        assert str(MAX_BODY_BYTES) in body["message"]
    finally:
        conn.close()
    assert call(base, "GET", "/nodes/w0")[0] == 404  # still serving


def test_http_body_shorter_than_its_length_ends_in_bounded_time(http_server, monkeypatch):
    assert _Handler.timeout is not None and 0 < _Handler.timeout <= 60
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    _, base = http_server
    conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
    try:
        conn.putrequest("POST", "/nodes")
        conn.putheader("Content-Length", "100")
        conn.endheaders(b"{}")
        started = time.monotonic()
        resp = conn.getresponse()
        assert resp.status == 400 and json.loads(resp.read())["code"] == "invalid"
        assert time.monotonic() - started < 5.0
    finally:
        conn.close()


def test_http_cascade_is_read_from_the_query_exactly(journaled_server):
    reg, base, _ = journaled_server
    record = reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    hosting = record.plan.node_names()[0]
    status, body = call(base, "DELETE", f"/nodes/{hosting}?xcascade=trueish")
    assert status == 409 and body["code"] == "conflict"
    assert reg.snapshot()["services"] == {"svc": "running"}
    assert call(base, "DELETE", f"/nodes/{hosting}?cascade=true")[0] == 200
    assert reg.snapshot()["services"] == {}


def test_http_unexpected_error_is_500_and_the_server_goes_on(journaled_server, monkeypatch):
    reg, base, _ = journaled_server

    def broken(name):
        raise RuntimeError("registry bug")

    monkeypatch.setattr(reg, "check_node_status", broken)
    status, body = call(base, "GET", "/nodes/n0")
    assert status == 500 and body["code"] == "internal"
    assert set(body) == {"code", "message", "details"}
    assert "registry bug" in body["message"]
    status, body = call(base, "GET", "/services/none")
    assert status == 404 and body["code"] == "not_found"


def test_http_journal_write_that_fails_changes_nothing(journaled_server, monkeypatch):
    reg, base, journal = journaled_server

    def disk_full(record):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(reg, "_journal", disk_full)
    node = {"name": "w", "gpu_type": "rtx4090", "gpu_count": 1, "gpu_mem_bytes": 8 * GB}
    status, body = call(base, "POST", "/nodes", node)
    assert status == 500 and body["code"] == "internal"
    assert call(base, "GET", "/nodes/w")[0] == 404
    assert ClusterRegistry.replay(journal).snapshot() == reg.snapshot()


def test_a_failed_journal_write_leaves_nothing_for_the_next_one(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    journal = tmp_path / "registry.jsonl"
    reg = ClusterRegistry(journal_path=journal)
    reg.node_access(make_node("a", gpu_type="rtx4090", gpu_mem_bytes=8 * GB))
    fd = reg._journal_file.fileno()
    kept = os.dup(fd)
    full = os.open("/dev/full", os.O_WRONLY)
    os.dup2(full, fd)  # every write to the journal now fails with ENOSPC
    try:
        with pytest.raises(OSError) as failed:
            reg.node_access(make_node("b", gpu_type="rtx4090", gpu_mem_bytes=8 * GB))
        assert failed.value.errno == errno.ENOSPC
    finally:
        os.dup2(kept, fd)
        os.close(kept)
        os.close(full)
    reg.node_access(make_node("c", gpu_type="rtx4090", gpu_mem_bytes=8 * GB))
    reg.close()
    assert reg.snapshot()["nodes"] == ["a", "c"]
    assert ClusterRegistry.replay(journal).snapshot() == reg.snapshot()


@pytest.mark.parametrize(
    "change",
    [
        lambda reg: reg.node_access(make_node("n9", gpu_type="rtx4090", gpu_mem_bytes=8 * GB)),
        lambda reg: reg.node_exit("n0", cascade=True),
        lambda reg: reg.deploy_llm_service("svc2", "tiny-4l", {"gpu_type": "rtx4090"}),
        lambda reg: reg.delete_llm_service("svc"),
    ],
    ids=["node_access", "node_exit", "deploy", "delete"],
)
def test_every_change_is_journaled_before_it_is_applied(tmp_path, monkeypatch, change):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(4, journal=journal, mem_gb=1)
    reg.deploy_llm_service("svc", "tiny-4l", {"gpu_type": "rtx4090"})
    before = reg.snapshot()
    assert "n0" in before["assignments"]  # so the exit cascades to the service

    def disk_full(record):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(reg, "_journal", disk_full)
    with pytest.raises(OSError):
        change(reg)
    assert reg.snapshot() == before
    assert ClusterRegistry.replay(journal).snapshot() == before
    reg.close()


# Run in a child process: the file size limit and SIGXFSZ are process-wide.
_CUT_SHORT = """
import os, resource, signal, sys
from pipelink.control_api import ClusterRegistry
from simsetup import make_node

journal = sys.argv[1]
reg = ClusterRegistry(journal_path=journal)
reg.node_access(make_node("a"))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(journal) + 40, hard))
try:
    reg.node_access(make_node("b"))  # its record does not fit in 40 bytes
except OSError as exc:
    print("refused:", exc)
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
reg.node_access(make_node("c"))
reg.close()
print(reg.snapshot()["nodes"])
"""


def test_a_journal_write_cut_short_leaves_no_torn_record(tmp_path):
    pytest.importorskip("resource")
    journal = tmp_path / "registry.jsonl"
    paths = [str(Path(pipelink.__file__).parent.parent), str(Path(__file__).parent)]
    run = subprocess.run(
        [sys.executable, "-c", _CUT_SHORT, str(journal)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "refused: journal write cut short: 40 of 205 bytes", "['a', 'c']"
    ]
    assert ClusterRegistry.replay(journal).snapshot()["nodes"] == ["a", "c"]


def test_registry_close_ends_journaling(tmp_path):
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(1, journal=journal)
    reg.close()
    reg.close()  # a second close does nothing
    before = journal.read_bytes()
    with pytest.raises(ValueError):
        reg.node_exit("n0")
    assert reg.snapshot()["nodes"] == ["n0"] and journal.read_bytes() == before


def _stall(base):
    """A connection that has sent half a request line and then stops."""
    host, port = base.removeprefix("http://").split(":")
    stalled = socket.create_connection((host, int(port)), timeout=10)
    stalled.sendall(b"GET /nodes/n0 HT")
    return stalled


def test_http_stalled_client_does_not_hold_up_another(http_server):
    _, base = http_server
    with _stall(base):
        started = time.monotonic()
        status, body = call(base, "GET", "/nodes/w0")
        assert status == 404 and body["code"] == "not_found"
        assert time.monotonic() - started < _Handler.timeout / 4


def test_http_connection_waits_for_a_worker_when_all_are_busy(monkeypatch):
    monkeypatch.setattr(pipelink.control_api, "_MAX_WORKERS", 1)
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    server = make_server(ClusterRegistry(), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        with _stall(base):
            # The one worker reads the stalled request until its timeout.
            assert call(base, "GET", "/nodes/w0")[0] == 404
        assert call(base, "GET", "/nodes/w0")[0] == 404
        workers = [t for t in threading.enumerate() if t.name.startswith("pipelink-control")]
        assert len(workers) == 1
    finally:
        server.shutdown()
        server.server_close()


def test_a_closed_server_leaves_no_thread_or_file_open(tmp_path):
    before = open_files()
    journal = tmp_path / "registry.jsonl"
    reg = registry_with_nodes(1, journal=journal)
    server = make_server(reg, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    with _stall(base):  # holds one worker, so the requests start another
        assert call(base, "DELETE", "/nodes/n0")[0] == 200
        assert call(base, "GET", "/nodes/n0")[0] == 404
    workers = [t for t in threading.enumerate() if t.name.startswith("pipelink-control")]
    assert len(workers) >= 2
    server.shutdown()
    server.server_close()
    reg.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not any(worker.is_alive() for worker in workers)
    assert open_files() == before
