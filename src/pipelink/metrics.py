"""Serving metrics (TTFT, TPOT, throughput) and cost-profit accounting."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError
from .workload import Request, RequestState

# Default ownership amortization: five years of continuous operation.
DEFAULT_AMORTIZATION_HOURS = 43_800.0


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not sorted_values:
        raise ConfigError("percentile of empty sample")
    if not 0 < pct <= 100:
        raise ConfigError("pct must be in (0, 100]")
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[max(0, rank - 1)]


@dataclass(frozen=True)
class MetricsReport:
    throughput_tok_s: float
    ttft_mean_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_mean_s: float | None  # None when no request produced 2+ tokens
    bubble_fraction_per_stage: tuple[float, ...]
    span_s: float
    total_tokens: int

    def __post_init__(self) -> None:
        if self.ttft_p50_s > self.ttft_p99_s:
            raise ConfigError("percentiles out of order (p50 > p99)")

    def format_table(self) -> str:
        rows = [
            ("throughput (tok/s)", f"{self.throughput_tok_s:.6f}"),
            ("ttft mean (s)", f"{self.ttft_mean_s:.6f}"),
            ("ttft p50 (s)", f"{self.ttft_p50_s:.6f}"),
            ("ttft p99 (s)", f"{self.ttft_p99_s:.6f}"),
            ("tpot mean (s)",
             "n/a" if self.tpot_mean_s is None else f"{self.tpot_mean_s:.6f}"),
            ("span (s)", f"{self.span_s:.6f}"),
            ("total tokens", str(self.total_tokens)),
        ]
        for i, b in enumerate(self.bubble_fraction_per_stage):
            rows.append((f"bubble stage {i}", f"{b:.6f}"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def summarize(
    requests: list[Request],
    bubble_fraction_per_stage: tuple[float, ...] = (),
) -> MetricsReport:
    """Aggregate finished requests into a report.

    TTFT spans arrival to first emitted token (queueing included); TPOT
    averages (finish - first token) / (output_len - 1) over requests with at
    least two output tokens; throughput is total emitted tokens over the span
    from first arrival to last finish.
    """
    if not requests:
        raise ConfigError("no requests to summarize")
    for r in requests:
        if r.state is not RequestState.FINISHED:
            raise ConfigError(f"request {r.id} not finished; drain the run first")
        assert r.first_token_time is not None and r.finish_time is not None

    ttft = sorted(r.first_token_time - r.arrival_time for r in requests)
    tpot_samples = [
        (r.finish_time - r.first_token_time) / (r.output_len - 1)
        for r in requests
        if r.output_len >= 2
    ]
    total_tokens = sum(r.tokens_emitted for r in requests)
    span = max(r.finish_time for r in requests) - min(
        r.arrival_time for r in requests
    )
    if span <= 0:
        raise ConfigError("degenerate span; nothing was served over time")
    return MetricsReport(
        throughput_tok_s=total_tokens / span,
        ttft_mean_s=sum(ttft) / len(ttft),
        ttft_p50_s=nearest_rank(ttft, 50),
        ttft_p99_s=nearest_rank(ttft, 99),
        tpot_mean_s=sum(tpot_samples) / len(tpot_samples) if tpot_samples else None,
        bubble_fraction_per_stage=tuple(bubble_fraction_per_stage),
        span_s=span,
        total_tokens=total_tokens,
    )


class CostMode(enum.Enum):
    LOCAL_OWNERSHIP = "local_ownership"
    CLOUD_RENTAL = "cloud_rental"


@dataclass(frozen=True)
class CostModel:
    """Single-currency cost inputs for one of the two accounting modes.

    Local ownership amortizes the purchase price over ``amortization_hours``
    and adds power at the rated draw; cloud rental is a flat hourly price.
    ``token_price`` is per million output tokens.
    """

    mode: CostMode
    device_count: int
    token_price: float
    device_price: float | None = None
    amortization_hours: float = DEFAULT_AMORTIZATION_HOURS
    power_kw: float | None = None
    power_price: float | None = None
    rental_price_per_hour: float | None = None

    def __post_init__(self) -> None:
        if self.device_count < 0:
            raise ConfigError("device_count must be >= 0")
        if self.token_price <= 0:
            raise ConfigError("token_price must be > 0")
        if self.mode is CostMode.LOCAL_OWNERSHIP:
            missing = [
                name
                for name in ("device_price", "power_kw", "power_price")
                if getattr(self, name) is None
            ]
            if missing:
                raise ConfigError(
                    f"local ownership mode needs {', '.join(missing)}"
                )
            if self.amortization_hours <= 0:
                raise ConfigError("amortization_hours must be > 0")
        else:
            if self.rental_price_per_hour is None:
                raise ConfigError("cloud rental mode needs rental_price_per_hour")


def cost_per_hour(c: CostModel) -> float:
    """Hourly cost of keeping the devices available."""
    if c.mode is CostMode.LOCAL_OWNERSHIP:
        per_device = c.device_price / c.amortization_hours + c.power_kw * c.power_price
        return c.device_count * per_device
    return c.device_count * c.rental_price_per_hour


def cost_profit_margin(throughput_tok_s: float, c: CostModel) -> float:
    """(profit - cost) / cost, profit from selling generated tokens.

    Hourly profit is throughput * 3600 / 1e6 * token_price (token_price is
    per million output tokens).
    """
    cost = cost_per_hour(c)
    if cost <= 0:
        raise ConfigError("margin undefined: cost per hour is zero")
    profit = throughput_tok_s * 3600.0 / 1e6 * c.token_price
    return (profit - cost) / cost
