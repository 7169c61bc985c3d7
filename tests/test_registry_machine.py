"""Random sequences of registry operations on a journaled registry.

Each step registers a node (with links to nodes already there), removes one
with or without cascade, deploys or deletes a service, or is refused and
changes nothing.  After every step the registry's invariants hold, and
replaying its journal gives a registry with the same snapshot, plans and API
keys.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from pipelink.control_api import ClusterRegistry
from pipelink.errors import RegistryError
from pipelink.profiles import LinkProfile

from simsetup import make_node

GB = 1 << 30
node_names = st.sampled_from(["n0", "n1", "n2", "n3"])
service_names = st.sampled_from(["a", "b"])


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.journal = Path(self.dir.name, "journal.jsonl")
        self.registry = ClusterRegistry(key_seed=11, journal_path=self.journal)

    def attempt(self, operation, *args, **kwargs):
        """Run one registry operation; one that is refused changes nothing."""
        before = self.registry.snapshot(), self.journal.read_bytes()
        try:
            operation(*args, **kwargs)
        except RegistryError:
            assert (self.registry.snapshot(), self.journal.read_bytes()) == before

    @rule(name=node_names, mem_gb=st.integers(1, 16), data=st.data())
    def node_access(self, name, mem_gb, data):
        others = sorted(self.registry.snapshot()["nodes"])
        linked = data.draw(st.lists(st.sampled_from(others), unique=True) if others
                           else st.just([]))
        links = [LinkProfile(a, b, 0.001 * (1 + i), 1e8 * (1 + i))
                 for i, other in enumerate(linked)
                 for a, b in ((name, other), (other, name))]
        node = make_node(name, gpu_type="rtx4090", gpu_mem_bytes=mem_gb * GB)
        self.attempt(self.registry.node_access, node, links=links)

    @rule(name=node_names, cascade=st.booleans())
    def node_exit(self, name, cascade):
        self.attempt(self.registry.node_exit, name, cascade=cascade)

    @rule(service=service_names, model=st.sampled_from(["tiny-4l", "llama-7b"]),
          gpu_count=st.integers(1, 3))
    def deploy_llm_service(self, service, model, gpu_count):
        self.attempt(self.registry.deploy_llm_service, service, model,
                     {"gpu_type": "rtx4090", "gpu_count": gpu_count})

    @rule(service=service_names)
    def delete_llm_service(self, service):
        self.attempt(self.registry.delete_llm_service, service)

    @invariant()
    def invariants_hold(self):
        self.registry.check_invariants()

    @invariant()
    def replay_gives_the_same_registry(self):
        live, replayed = self.registry, ClusterRegistry.replay(self.journal)
        assert replayed.snapshot() == live.snapshot()
        for service in live.snapshot()["services"]:
            assert replayed.get_api_key(service) == live.get_api_key(service)
            assert (replayed.check_service_status(service)["plan"]
                    == live.check_service_status(service)["plan"])

    def teardown(self):
        self.dir.cleanup()


RegistryMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, derandomize=True
)
test_registry_operations_replay_to_the_live_state = RegistryMachine.TestCase
