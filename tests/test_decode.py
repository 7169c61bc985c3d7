import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pipelink.cli import RunConfig
from pipelink.control_api import ClusterRegistry, ServiceRequest
from pipelink.controller import BudgetMode, ControllerConfig
from pipelink.decode import decode, read_json
from pipelink.errors import ConfigError, ProfileError, TraceError
from pipelink.placement import ClusterSpec, ModelSpec, NodeDescriptor, Platform, ResourceSpec
from pipelink.profiles import LinkProfile, load_stage_profiles
from pipelink.workload import load_trace

from test_control_api import _FOUR_OP_JOURNAL, call, journaled_server  # noqa: F401 (a fixture)

NODE = {"name": "a", "platform": "windows", "gpu_type": "g", "gpu_count": 2,
        "gpu_mem_bytes": 1 << 30, "capacity_score": 1.5, "cpu_score": 0.5,
        "network_score": 2.0}
LINK = {"from": "a", "to": "b", "latency_s": 0.01, "bandwidth_bps": 1e9}
MODEL = {"name": "m", "num_layers": 4, "hidden_dim": 64, "dtype_bytes": 2,
         "bytes_per_layer": 1 << 20}
CLUSTER = {"nodes": [NODE, {**NODE, "name": "b"}],
           "links": [LINK, {**LINK, "from": "b", "to": "a"}]}
RUN_CONFIG = {
    "cluster": "cluster.json",
    "model": MODEL,
    "placement": {"gpu_type": "g", "gpu_count": 1},
    "trace": {"generate": {"rate": 4.0, "duration": 2, "seed": 3,
                           "preset": "synthetic-conversation",
                           "input_buckets": [[1, 8, 1], [9, 16, 0.5]],
                           "output_buckets": [[4, 40, 1.0]]}},
    "profiles": {"synthetic": {"per_layer_token_cost": 2e-6, "overhead_s": 0.002}},
    "filter": {"max_input": 256, "max_output": 64},
    "engine": {"chunk_size": None, "scheduling_policy": "fcfs"},
    "controller": {"max_batched_tokens": 1024, "max_batch_size": 32, "n_max": 4,
                   "bubble_epsilon": 0.05, "gain_delta": 0, "mode": "fixed_compute",
                   "decision_stride": 2},
}
RUN_CONFIG_WITH_FILES = {
    "cluster": "cluster.json", "model": "tiny-4l", "placement": {"gpu_type": "g"},
    "trace": {"path": "trace.csv"}, "profiles": {"path": "profiles.csv"},
}
SERVICE = {"service_name": "svc", "model_name": "tiny-4l",
           "resource_specification": {"gpu_type": "g", "gpu_count": 1}}


# -- the rules ---------------------------------------------------------------------


def test_valid_documents_decode_to_the_objects_they_describe():
    assert decode(NodeDescriptor, NODE) == NodeDescriptor(
        "a", Platform.WINDOWS, "g", 2, 1 << 30, 1.5, 0.5, 2.0)
    assert decode(LinkProfile, LINK) == LinkProfile("a", "b", 0.01, 1e9)
    assert decode(ModelSpec, MODEL) == ModelSpec("m", 4, 64, 2, 1 << 20)
    cfg = decode(RunConfig, RUN_CONFIG)
    assert cfg.controller == ControllerConfig(1024, 32, 4, 0.05, 0.0, BudgetMode.FIXED_COMPUTE, 2)
    assert cfg.trace.generate.input_buckets == ((1, 8, 1.0), (9, 16, 0.5))
    assert cfg.engine.chunk_size is None
    defaults = decode(RunConfig, RUN_CONFIG_WITH_FILES)
    assert defaults.controller == ControllerConfig(2048, 64)
    assert defaults.placement == ResourceSpec("g", 1)
    assert defaults.filter is None and defaults.engine.chunk_size == 262144


def test_json_defaults_and_keys_come_from_field_metadata():
    node = decode(NodeDescriptor, {"name": "a", "gpu_type": "g", "gpu_count": 1,
                                   "gpu_mem_bytes": 1})
    assert node == NodeDescriptor("a", Platform.LINUX, "g", 1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(TypeError):  # the constructor still requires every field
        NodeDescriptor("a", gpu_type="g", gpu_count=1, gpu_mem_bytes=1)
    with pytest.raises(ConfigError, match=r"^\$: unknown key 'src'"):
        decode(LinkProfile, {**LINK, "src": "a"})


@pytest.mark.parametrize(
    "tp, value, message",
    [
        (int, True, "expected an integer, got True"),
        (int, 2.0, "expected an integer, got 2.0"),
        (int, "2", "expected an integer, got '2'"),
        (float, False, "expected a number, got False"),
        (float, "0.5", "expected a number, got '0.5'"),
        (float, math.nan, "expected a finite number, got nan"),
        (float, -math.inf, "expected a finite number, got -inf"),
        (float, 10**400, "expected a finite number"),
        (str, 5, "expected a string, got 5"),
        (bool, 1, "expected true or false, got 1"),
        (Platform, "mac", "expected one of 'linux', 'windows', 'containerized_vm'"),
        (Platform, ["linux"], "expected one of 'linux'"),
        (ModelSpec, [], "expected an object, got []"),
        (ModelSpec, {**MODEL, "layers": 4}, "unknown key 'layers'"),
        (ModelSpec, {"name": "m"}, "missing key 'num_layers'"),
        (ModelSpec, {**MODEL, "num_layers": 0}, "model m: num_layers must be >= 1"),
        (str | ModelSpec, 5, "expected a string or an object, got 5"),
        (int | None, "x", "expected an integer or null"),
        (tuple[int, int], [1], "expected a list of 2 items, got 1"),
        (tuple[int, ...], {}, "expected a list"),
        (dict, [], "expected an object"),
    ],
)
def test_refusals_name_the_path(tp, value, message):
    with pytest.raises(ConfigError) as err:
        decode(tp, value, "$.x")
    assert str(err.value).startswith("$.x: ") and message in str(err.value)


def test_paths_reach_into_lists_and_objects():
    bad = copy.deepcopy(CLUSTER)
    bad["links"][1]["bandwidth_bps"] = "fast"
    with pytest.raises(ConfigError, match=r"^\$\.links\[1\]\.bandwidth_bps: expected a number"):
        ClusterSpec.from_json_dict(bad)
    with pytest.raises(ConfigError, match=r"^\$\.nodes\[1\]: duplicate node name a"):
        ClusterSpec.from_json_dict({"nodes": [NODE, NODE]})


def test_numbers_keep_their_json_values():
    assert decode(float, 3) == 3.0 and type(decode(float, 3)) is float
    assert decode(int, 10**30) == 10**30
    assert decode(tuple[int, int, float], [1, 2, 3]) == (1, 2, 3.0)


def test_read_json_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(ConfigError, match="bad.json: bad JSON"):
        read_json(path)
    path.write_text("1" * 5000)  # more digits than json converts
    with pytest.raises(ConfigError, match="bad.json: bad JSON"):
        read_json(path)


# -- fuzz: mutated valid documents raise only ConfigError -----------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three keys dropped or misspelt, or values swapped."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["drop", "misspell", "bool", "non-finite", "value"]))
        if kind == "value":
            new = draw(JSON_VALUES)
        elif kind == "bool":
            new = draw(st.booleans())
        elif kind == "non-finite":
            new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if not path:
            doc = new if kind in ("value", "bool", "non-finite") else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "misspell":
            if isinstance(parent, dict):
                parent[draw(st.sampled_from([key[:-1], key + "s", key.upper()]))] = parent.pop(key)
        else:
            parent[key] = new
    return doc


def _replay_mutated_journal(lines):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "registry.jsonl"
        journal.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        ClusterRegistry.replay(journal)


def _decode_service(doc):
    req = decode(ServiceRequest, doc)
    decode(ResourceSpec, req.resource_specification, "$.resource_specification")


DECODERS = {
    "node": (NODE, lambda doc: decode(NodeDescriptor, doc)),
    "link": (LINK, lambda doc: decode(LinkProfile, doc)),
    "model": (MODEL, lambda doc: decode(ModelSpec, doc)),
    "cluster": (CLUSTER, ClusterSpec.from_json_dict),
    "run-config": (RUN_CONFIG, lambda doc: decode(RunConfig, doc)),
    "run-config-files": (RUN_CONFIG_WITH_FILES, lambda doc: decode(RunConfig, doc)),
    "service": (SERVICE, _decode_service),
    "journal": ([json.loads(line) for line in _FOUR_OP_JOURNAL.splitlines()],
                _replay_mutated_journal),
}


@pytest.mark.parametrize("name", DECODERS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_raise_only_config_error(name, data):
    valid, decode_doc = DECODERS[name]
    doc = data.draw(mutated(valid))
    if name == "journal" and not isinstance(doc, list):
        doc = [doc]
    try:
        decode_doc(doc)
    except ConfigError:
        pass


HTTP_BODIES = {"/nodes": NODE, "/services": SERVICE}


def test_mutated_http_bodies_get_a_json_answer_below_500(journaled_server):
    registry, base, journal = journaled_server

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def post(data):
        path = data.draw(st.sampled_from(sorted(HTTP_BODIES)))
        status, body = call(base, "POST", path, data.draw(mutated(HTTP_BODIES[path])))
        assert status < 500, body
        assert status < 400 or set(body) == {"code", "message", "details"}, body
        registry.check_invariants()

    post()
    assert ClusterRegistry.replay(journal).snapshot() == registry.snapshot()


# -- the CSV inputs: one reader, one way to refuse ------------------------------

# Per loader: its header, a good row, and the error it raises.
CSV_INPUTS = {
    "trace": (load_trace, "arrival_s,input_tokens,output_tokens", "0.5,1,1", TraceError),
    "profiles": (load_stage_profiles, "stage_id,phase,batched_tokens,seconds",
                 "0,decode,1,0.01", ProfileError),
}
# Per malformation: the file's lines, from a header and a good row, and the
# line it is refused at.  Line 3 is blank, so it is skipped but counted.
CSV_MALFORMATIONS = {
    "no-header": (lambda header, good: [good, good], 1),
    "wrong-header": (lambda header, good: [header.replace("_", "-", 1), good], 1),
    "extra-field": (lambda header, good: [header, good, "", good + ",7"], 4),
    "missing-field": (lambda header, good: [header, good, "", good.rsplit(",", 1)[0]], 4),
    "non-utf8": (lambda header, good: [header, good, "", b"\xff".decode("latin-1") + good], 4),
    "bad-number": (lambda header, good: [header, good, "", "x" + good.split(",", 1)[1]], 4),
    "field-over-limit": (lambda header, good: [header, good, "", "1" * 200_000 + good], 4),
}


@pytest.mark.parametrize("malformation", CSV_MALFORMATIONS)
@pytest.mark.parametrize("schema", CSV_INPUTS)
def test_csv_inputs_refuse_a_malformation_at_its_line(tmp_path, schema, malformation):
    load, header, good, error = CSV_INPUTS[schema]
    lines, lineno = CSV_MALFORMATIONS[malformation]
    path = tmp_path / f"{schema}.csv"
    path.write_bytes("\n".join(lines(header, good)).encode("latin-1") + b"\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line {lineno}: "):
        load(path)


@pytest.mark.parametrize("schema", CSV_INPUTS)
def test_csv_inputs_skip_blank_lines(tmp_path, schema):
    load, header, good, _ = CSV_INPUTS[schema]
    second = good.replace(",1,", ",2,")
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text(f"{header}\n{good}\n{second}\n")
    blank.write_text(f"{header}\n\n{good}\n   \n\n{second}\n\n")
    assert load(blank) == load(plain)


# Number columns take plain ASCII decimals only; these each load as some
# number under Python's int/float literal syntax.
LENIENT_NUMBERS = {"underscore": "1_0", "plus": "+1", "leading-blank": " 1",
                   "trailing-blank": "1 ", "arabic-indic": "\u0661", "fullwidth": "\uff11"}


NUMBER_COLUMNS = [("trace", 0), ("trace", 1), ("trace", 2),
                  ("profiles", 0), ("profiles", 2), ("profiles", 3)]


@pytest.mark.parametrize("text", LENIENT_NUMBERS.values(), ids=LENIENT_NUMBERS)
@pytest.mark.parametrize("schema, column", NUMBER_COLUMNS)
def test_csv_number_columns_refuse_literal_syntax(tmp_path, schema, column, text):
    load, header, good, error = CSV_INPUTS[schema]
    fields = good.split(",")
    fields[column] = text
    path = tmp_path / f"{schema}.csv"
    path.write_text(f"{header}\n{good}\n{','.join(fields)}\n", encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line 3: expected a plain number"):
        load(path)


@pytest.mark.parametrize(
    "schema, row",
    [("trace", "0_0.5, 1_0 ,+1"), ("profiles", "+0, Decode ,1_0,1e-3")],
    ids=["trace", "profiles"],
)
def test_csv_rows_in_python_literal_syntax_are_refused(tmp_path, schema, row):
    load, header, _, error = CSV_INPUTS[schema]
    path = tmp_path / f"{schema}.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line 2: expected a plain number"):
        load(path)


@pytest.mark.parametrize("arrival", ["1e-05", "5e-324", "1e+16", "0.1", ".5", "2.", "7"])
def test_trace_arrivals_in_repr_and_plain_decimal_forms_load(tmp_path, arrival):
    path = tmp_path / "trace.csv"
    path.write_text(f"arrival_s,input_tokens,output_tokens\n{arrival},1,1\n")
    assert load_trace(path).requests[0].arrival_time == float(arrival)
