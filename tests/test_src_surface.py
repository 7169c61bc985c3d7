"""``src/`` holds only what a command, the control API, the demo or the bench runs.

Every top-level function and class of ``src/pipelink`` and every method of a
top-level class must be named somewhere in ``src/``: as a name, or as an
attribute (``x.name``), outside an import.  Dunder methods are called by
Python itself.  The few names that only a caller outside ``src/`` needs are
listed below, each with the reason it stays; a helper that only tests call
belongs in ``tests/simsetup.py``.  Every attribute that ``src/`` assigns as
``self.<name>`` must also be read there: loaded as ``x.name``, or named by
a ``getattr`` string.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pipelink"

ALLOWED = {
    "control_api._Handler.log_message": "BaseHTTPRequestHandler hook",
    "control_api._Server.process_request": "socketserver hook",
    "control_api.ClusterRegistry.check_invariants": "bench/ checks the registry after its runs",
    "control_api.ClusterRegistry.snapshot": "bench/ compares a replayed registry to the live one",
    "demo.run_socket_demo": "bench/ runs the socket_pipeline workload through it",
    "engine.RunResult.tokens_by_request": "bench/ derives its expected tokens from it",
    "metrics.cost_profit_margin": "the cost model, whose caller is ROADMAP item 10",
    "profiles.flat_profile": "bench/ builds its stage profiles with it",
    "workload.save_trace": "bench/ writes its traces with it",
}


def definitions():
    """(qualified name, name) of each top-level def and class, and each method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def named_in_src() -> Counter:
    """How often each identifier is used in src/ as a name or an attribute."""
    uses = Counter()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
    return uses


def unnamed():
    uses = named_in_src()
    return {
        qualified
        for qualified, name in definitions()
        if not (name.startswith("__") and name.endswith("__")) and not uses[name]
    }


def test_every_src_name_has_a_caller_in_src_or_a_reason():
    assert sorted(unnamed() - ALLOWED.keys()) == []


def test_every_allowed_name_still_exists_and_still_needs_its_entry():
    # An entry whose name is gone, or that src/ now calls, is dropped.
    assert sorted(ALLOWED.keys() - unnamed()) == []


def assigned_on_self():
    """(qualified name, name) of each attribute a class in src/ assigns as ``self.<name>``."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield f"{path.stem}.{cls.name}.{node.attr}", node.attr


def read_in_src() -> Counter:
    """How often each attribute is read in src/: loaded, or named by a ``getattr`` string."""
    reads = Counter()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                reads[node.args[1].value] += 1
    return reads


def test_every_attribute_src_assigns_on_self_is_read_in_src():
    reads = read_in_src()
    assert sorted({qualified for qualified, name in assigned_on_self() if not reads[name]}) == []
