"""Deterministic pipeline-parallel serving simulator and scheduling library."""

__version__ = "0.1.0"

from .controller import (
    BudgetMode,
    ControllerConfig,
    ControllerDecision,
    choose_n,
    predict_bubble,
)
from .engine import (
    EngineConfig,
    MicroBatch,
    PipelineEngine,
    RunResult,
    admit_and_batch,
    measure_bubble,
)
from .errors import (
    ConfigError,
    PipelinkError,
    PlacementError,
    ProfileError,
    ProtocolError,
    RegistryError,
    TraceError,
)
from .metrics import (
    CostMode,
    CostModel,
    MetricsReport,
    cost_per_hour,
    cost_profit_margin,
    summarize,
)
from .placement import (
    MODEL_PRESETS,
    ClusterSpec,
    ModelSpec,
    NodeDescriptor,
    PartitionPlan,
    Platform,
    choose_head,
    partition_layers,
    plan_deployment,
    select_nodes,
)
from .profiles import (
    LinkProfile,
    Phase,
    StageProfile,
    compute_time,
    flat_profile,
    synth_profile,
)
from .transport import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    LinkPolicy,
    LinkQueue,
    Payload,
    s_to_ns,
    transfer_ns,
)
from .workload import (
    LengthHistogram,
    Request,
    RequestState,
    Trace,
    filter_trace,
    generate_trace,
    load_trace,
    save_trace,
)
