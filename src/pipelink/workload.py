"""Request traces: synthetic generation, CSV ingest, filtering, lifecycle records."""

from __future__ import annotations

import bisect
import enum
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .decode import csv_float, csv_int, read_csv, write_csv_lines
from .errors import ConfigError, TraceError

TRACE_HEADER = ("arrival_s", "input_tokens", "output_tokens")

# Default retention bounds for conversation-style traces.
DEFAULT_MAX_INPUT_TOKENS = 256
DEFAULT_MAX_OUTPUT_TOKENS = 512


class RequestState(enum.Enum):
    QUEUED = "queued"
    PREFILL = "prefill"
    DECODING = "decoding"
    FINISHED = "finished"


@dataclass
class Request:
    """One inference request tracked through its lifecycle.

    ``arrival_time``, ``first_token_time`` and ``finish_time`` are virtual
    seconds.  ``tokens_emitted`` counts generated tokens and equals
    ``output_len`` exactly when the request is finished.
    """

    id: int
    arrival_time: float
    input_len: int
    output_len: int
    state: RequestState = RequestState.QUEUED
    tokens_emitted: int = 0
    first_token_time: float | None = None
    finish_time: float | None = None

    def __post_init__(self) -> None:
        if self.input_len < 1:
            raise ConfigError(f"request {self.id}: input_len must be >= 1")
        if self.output_len < 1:
            raise ConfigError(f"request {self.id}: output_len must be >= 1")
        if self.arrival_time < 0:
            raise ConfigError(f"request {self.id}: negative arrival_time")

    def fresh_copy(self) -> "Request":
        """Copy with the lifecycle fields reset (for reusing a trace seed)."""
        return replace(
            self,
            state=RequestState.QUEUED,
            tokens_emitted=0,
            first_token_time=None,
            finish_time=None,
        )


@dataclass
class Trace:
    """Time-ordered request seeds plus the parameters that produced them.

    Equality compares the request sequence only; ``seed`` and ``rate`` are
    provenance metadata and are not recoverable from a saved CSV.
    """

    requests: list[Request]
    seed: int = field(default=0, compare=False)
    rate: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        last = 0.0
        for r in self.requests:
            if r.arrival_time < last:
                raise TraceError(
                    f"arrival times must be non-decreasing (request {r.id})"
                )
            last = r.arrival_time

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class LengthHistogram:
    """Bucketed token-length distribution.

    Buckets are inclusive integer ranges ``(lo, hi)`` with a positive weight;
    sampling picks a bucket by weight, then a uniform length inside it.
    """

    buckets: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if not self.buckets:
            raise ConfigError("histogram needs at least one bucket")
        total = 0.0
        for lo, hi, w in self.buckets:
            if lo < 1 or hi < lo:
                raise ConfigError(f"bad histogram bucket ({lo}, {hi})")
            if w < 0:
                raise ConfigError("histogram weights must be non-negative")
            total += w
        if total <= 0:
            raise ConfigError("histogram has zero total mass")

    def sample(self, rng: random.Random) -> int:
        cum: list[float] = []
        acc = 0.0
        for _, _, w in self.buckets:
            acc += w
            cum.append(acc)
        idx = bisect.bisect_left(cum, rng.random() * acc)
        idx = min(idx, len(self.buckets) - 1)
        lo, hi, _ = self.buckets[idx]
        return rng.randint(lo, hi)


# Synthetic conversation-style length mix.  These buckets are NOT measured
# from any real trace; they only mimic the short-prompt/medium-answer shape
# of chat workloads and stay within the default retention bounds above.
SYNTHETIC_INPUT_LENGTHS = LengthHistogram(
    buckets=(
        (1, 16, 0.08),
        (17, 48, 0.22),
        (49, 96, 0.25),
        (97, 160, 0.20),
        (161, 256, 0.25),
    )
)
SYNTHETIC_OUTPUT_LENGTHS = LengthHistogram(
    buckets=(
        (1, 32, 0.10),
        (33, 96, 0.25),
        (97, 192, 0.30),
        (193, 320, 0.20),
        (321, 512, 0.15),
    )
)

HISTOGRAM_PRESETS: dict[str, tuple[LengthHistogram, LengthHistogram]] = {
    "synthetic-conversation": (SYNTHETIC_INPUT_LENGTHS, SYNTHETIC_OUTPUT_LENGTHS),
}


def generate_trace(
    rate: float,
    duration: float,
    input_lengths: LengthHistogram = SYNTHETIC_INPUT_LENGTHS,
    output_lengths: LengthHistogram = SYNTHETIC_OUTPUT_LENGTHS,
    seed: int = 0,
) -> Trace:
    """Poisson-process arrivals at ``rate`` req/s over ``duration`` seconds.

    Deterministic for a fixed seed: gaps and lengths are drawn from one
    seeded generator in a fixed order (gap, input_len, output_len).
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ConfigError("rate must be finite and > 0")
    if not (math.isfinite(duration) and duration >= 0):
        raise ConfigError("duration must be finite and >= 0")
    rng = random.Random(seed)
    requests: list[Request] = []
    t = 0.0
    rid = 0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        requests.append(
            Request(
                id=rid,
                arrival_time=t,
                input_len=input_lengths.sample(rng),
                output_len=output_lengths.sample(rng),
            )
        )
        rid += 1
    return Trace(requests=requests, seed=seed, rate=rate)


def load_trace(path: str | Path) -> Trace:
    """Load a trace CSV (header ``arrival_s,input_tokens,output_tokens``).

    Malformed rows raise ``TraceError`` naming the offending line; nothing is
    skipped silently.
    """
    requests: list[Request] = []
    last_arrival = 0.0
    for lineno, (arrival, input_len, output_len) in read_csv(
        path, TRACE_HEADER, (csv_float, csv_int, csv_int), TraceError
    ):
        if not math.isfinite(arrival):
            raise TraceError(f"{path}: line {lineno}: arrival_s must be finite")
        if arrival < last_arrival:
            raise TraceError(
                f"{path}: line {lineno}: arrival_s decreases ({arrival} < {last_arrival})"
            )
        try:
            requests.append(Request(len(requests), arrival, input_len, output_len))
        except ConfigError as exc:
            raise TraceError(f"{path}: line {lineno}: {exc}") from None
        last_arrival = arrival
    return Trace(requests=requests)


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write the trace CSV; float arrivals use repr so they round-trip exactly."""
    lines = (f"{r.arrival_time!r},{r.input_len},{r.output_len}\r\n" for r in trace.requests)
    write_csv_lines(path, TRACE_HEADER, lines)


def filter_trace(
    trace: Trace,
    max_input: int = DEFAULT_MAX_INPUT_TOKENS,
    max_output: int = DEFAULT_MAX_OUTPUT_TOKENS,
) -> Trace:
    """Keep exactly the requests with input_len <= max_input and
    output_len <= max_output, preserving order and ids."""
    if max_input < 1 or max_output < 1:
        raise ConfigError("filter bounds must be >= 1")
    kept = [
        r
        for r in trace.requests
        if r.input_len <= max_input and r.output_len <= max_output
    ]
    return Trace(requests=kept, seed=trace.seed, rate=trace.rate)
