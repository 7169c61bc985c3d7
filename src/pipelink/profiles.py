"""Stage compute-latency tables and link condition estimates.

Profiles are immutable after construction.  Compute lookups interpolate
piecewise-linearly between measured points and extrapolate linearly from the
nearest two points outside the table; both choices keep lookups deterministic
and order-preserving.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

from .decode import csv_float, csv_int, json_field, read_csv
from .errors import ConfigError, ProfileError


class Phase(enum.Enum):
    PREFILL = "prefill"
    DECODE = "decode"


@dataclass(frozen=True)
class StageProfile:
    """Measured (or synthesized) compute latency per (phase, batched tokens).

    ``entries`` maps ``(Phase, batched_tokens)`` to seconds.  Each phase that
    appears needs at least two points, and latency must be non-decreasing in
    batched tokens within a phase.
    """

    stage_id: int
    entries: dict[tuple[Phase, int], float]
    # Per phase, the entries as sorted token counts and their seconds; built
    # once here so that lookups never sort.
    _tables: dict[Phase, tuple[tuple[int, ...], tuple[float, ...]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError(f"stage {self.stage_id}: empty profile")
        tables = {}
        for phase in sorted({p for p, _ in self.entries}, key=lambda p: p.value):
            pts = sorted(
                (tokens, secs)
                for (p, tokens), secs in self.entries.items()
                if p == phase
            )
            if len(pts) < 2:
                raise ConfigError(
                    f"stage {self.stage_id}: phase {phase.value} needs >= 2 points"
                )
            prev = 0.0
            for tokens, seconds in pts:
                if tokens < 1:
                    raise ConfigError(
                        f"stage {self.stage_id}: batched_tokens must be >= 1"
                    )
                if not (math.isfinite(seconds) and seconds > 0):
                    raise ConfigError(
                        f"stage {self.stage_id}: compute seconds must be finite and > 0"
                    )
                if seconds < prev:
                    raise ConfigError(
                        f"stage {self.stage_id}: phase {phase.value} not monotone "
                        f"at {tokens} tokens"
                    )
                prev = seconds
            tables[phase] = (tuple(t for t, _ in pts), tuple(s for _, s in pts))
        object.__setattr__(self, "_tables", tables)


@dataclass(frozen=True)
class LinkProfile:
    """Directed link estimate: one-way latency plus available bandwidth.

    ``bandwidth_bps`` is in **bytes** per second, not bits: a 100 Mbit/s
    link is ``12_500_000``.  ``latency_s`` must be >= 0 and finite in ns, the
    unit that link costs are counted in, and ``bandwidth_bps`` finite and > 0.
    """

    src: str = json_field(key="from")
    dst: str = json_field(key="to")
    latency_s: float
    bandwidth_bps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency_s * 1e9) and self.latency_s >= 0):
            raise ConfigError(
                f"link {self.src}->{self.dst}: latency must be finite in ns and >= 0"
            )
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ConfigError(f"link {self.src}->{self.dst}: bandwidth must be finite and > 0")

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


def compute_time(profile: StageProfile, phase: Phase, batched_tokens: int) -> float:
    """Interpolated compute seconds for a micro-batch of ``batched_tokens``.

    Outside the table the nearest two points extrapolate linearly; the result
    is clamped to stay positive.
    """
    if batched_tokens < 1:
        raise ConfigError("batched_tokens must be >= 1")
    table = profile._tables.get(phase)
    if table is None:
        raise ProfileError(
            f"stage {profile.stage_id} has no entries for phase {phase.value}"
        )
    xs, ys = table
    i = bisect.bisect_left(xs, batched_tokens)
    if i < len(xs) and xs[i] == batched_tokens:
        return ys[i]
    if i == 0:
        x0, y0, x1, y1 = xs[0], ys[0], xs[1], ys[1]
    elif i == len(xs):
        x0, y0, x1, y1 = xs[-2], ys[-2], xs[-1], ys[-1]
    else:
        x0, y0, x1, y1 = xs[i - 1], ys[i - 1], xs[i], ys[i]
    slope = (y1 - y0) / (x1 - x0)
    value = y0 + slope * (batched_tokens - x0)
    return max(value, 1e-12)


SYNTH_TOKEN_POINTS = (1, 64, 256, 1024)


def synth_profile(
    layers: int,
    per_layer_token_cost: float,
    overhead: float,
    stage_id: int = 0,
) -> StageProfile:
    """Fabricate a linear profile: layers * cost * tokens + overhead.

    Both phases get identical tables at the standard token points; useful for
    tests and for clusters without measured profiles.
    """
    if layers < 1:
        raise ConfigError("layers must be >= 1")
    if per_layer_token_cost <= 0 or overhead <= 0:
        raise ConfigError("costs must be > 0")
    entries: dict[tuple[Phase, int], float] = {}
    for phase in (Phase.PREFILL, Phase.DECODE):
        for tokens in SYNTH_TOKEN_POINTS:
            entries[(phase, tokens)] = layers * per_layer_token_cost * tokens + overhead
    return StageProfile(stage_id=stage_id, entries=entries)


def flat_profile(seconds: float, stage_id: int = 0) -> StageProfile:
    """Constant-latency profile (same compute time at any token count)."""
    if seconds <= 0:
        raise ConfigError("seconds must be > 0")
    entries = {
        (phase, tokens): seconds
        for phase in (Phase.PREFILL, Phase.DECODE)
        for tokens in (1, 1_000_000)
    }
    return StageProfile(stage_id=stage_id, entries=entries)


PROFILE_HEADER = ("stage_id", "phase", "batched_tokens", "seconds")


def load_stage_profiles(path: str | Path) -> dict[int, StageProfile]:
    """Read the profile CSV ``stage_id,phase,batched_tokens,seconds``.

    A malformed or repeated row raises ``ProfileError`` naming its line.
    """
    raw: dict[int, dict[tuple[Phase, int], float]] = {}
    for lineno, (stage_id, phase, tokens, seconds) in read_csv(
        path, PROFILE_HEADER,
        (csv_int, Phase, csv_int, csv_float), ProfileError,
    ):
        entries = raw.setdefault(stage_id, {})
        if (phase, tokens) in entries:
            raise ProfileError(f"{path}: line {lineno}: repeats stage {stage_id} "
                               f"{phase.value} at {tokens} batched tokens")
        entries[(phase, tokens)] = seconds
    try:
        return {
            stage_id: StageProfile(stage_id=stage_id, entries=entries)
            for stage_id, entries in sorted(raw.items())
        }
    except ConfigError as exc:
        raise ProfileError(f"{path}: {exc}") from None
