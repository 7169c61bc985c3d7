"""Exception types shared across the package."""


class PipelinkError(Exception):
    """Base class for all pipelink errors."""


class ConfigError(PipelinkError):
    """Invalid or inconsistent configuration."""


class TraceError(PipelinkError):
    """Trace file failed to parse or violates the trace schema."""


class ProfileError(PipelinkError):
    """Latency profile is malformed or queried for an unknown phase."""


class PlacementError(PipelinkError):
    """No feasible node selection or layer partition exists."""


class ProtocolError(PipelinkError):
    """Transport contract violation (duplicate payload, bad frame)."""


class RegistryError(PipelinkError):
    """Control-plane registry rejected an operation.

    ``code`` is a stable machine-readable identifier (``conflict``,
    ``not_found``, ``invalid``, ``placement_failed``, and from the HTTP layer
    ``too_large`` and ``internal``) used by the HTTP layer to pick a status
    code and build the error body.
    """

    def __init__(self, code: str, message: str, details: dict | None = None):
        super().__init__(message)
        self.code = code
        self.details = details or {}
