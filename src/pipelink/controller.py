"""Per-iteration micro-batch count and token budget selection.

The head scheduler calls :func:`choose_n` at each iteration boundary.  The
search starts at one micro-batch and adds more while that measurably fills
the bottleneck stage's idle time, stopping once the predicted bubble is
small enough, the marginal utilization gain goes flat, or the configured
cap is reached.

With the config, profiles, links and bytes per token fixed, a decision
depends only on ``(clamp_demand(cfg, queued_tokens), phase)``, which is why
``engine.HeadScheduler`` memoises decisions on that key for one run.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .placement import TOKEN_FEEDBACK_BYTES
from .profiles import LinkProfile, Phase, StageProfile, compute_time
from .transport import s_to_ns, transmission_ns


class BudgetMode(enum.Enum):
    # Divide one bounded token budget across the micro-batches (compute per
    # micro-batch shrinks as n grows).
    TOKEN_SCALED = "token_scaled"
    # Every micro-batch carries the full per-micro-batch budget (adding a
    # micro-batch adds work, as in fixed-size pipelining diagrams).
    FIXED_COMPUTE = "fixed_compute"


@dataclass(frozen=True)
class ControllerConfig:
    max_batched_tokens: int
    max_batch_size: int
    n_max: int | None = None  # None: 2 x pipeline depth
    bubble_epsilon: float = 0.02
    gain_delta: float = 0.01
    mode: BudgetMode = BudgetMode.TOKEN_SCALED
    decision_stride: int = 1  # re-decide every k-th iteration boundary

    def __post_init__(self) -> None:
        if self.max_batched_tokens < 1:
            raise ConfigError("max_batched_tokens must be >= 1")
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if not 0.0 <= self.bubble_epsilon < 1.0:
            raise ConfigError("bubble_epsilon must be in [0, 1)")
        if self.gain_delta < 0:
            raise ConfigError("gain_delta must be >= 0")
        if self.decision_stride < 1:
            raise ConfigError("decision_stride must be >= 1")

    def effective_n_max(self, num_stages: int) -> int:
        return self.n_max if self.n_max is not None else 2 * num_stages


@dataclass(frozen=True)
class ControllerDecision:
    n_microbatches: int
    token_budget_per_microbatch: int
    predicted_bubble_fraction: float


def _round_terms(
    n: int,
    stage_profiles: list[StageProfile],
    links: list[LinkProfile],
    tokens_per_microbatch: int,
    phase: Phase,
    bytes_per_token: int,
    feedback_bytes_per_token: int,
) -> tuple[int, int]:
    """(bottleneck compute, steady round time), both in integer nanoseconds.

    Integer arithmetic mirrors the engine's virtual clock, so a transfer-free
    balanced pipeline predicts a bubble of exactly zero.
    """
    if not stage_profiles:
        raise ConfigError("need at least one stage profile")
    num_stages = len(stage_profiles)
    if num_stages >= 2 and len(links) != num_stages:
        raise ConfigError(
            f"expected {num_stages} links ({num_stages - 1} forward + return), "
            f"got {len(links)}"
        )
    compute_ns = [
        max(1, s_to_ns(compute_time(p, phase, tokens_per_microbatch)))
        for p in stage_profiles
    ]
    bottleneck = max(compute_ns)
    transfers_ns = 0
    if num_stages >= 2:
        activation_bytes = tokens_per_microbatch * bytes_per_token
        for link in links[:-1]:
            transfers_ns += transmission_ns(link, activation_bytes)
            transfers_ns += s_to_ns(link.latency_s)
        # Return hop carries one token id per request; batched tokens bound
        # the request count, so this is exact for decode and an upper bound
        # for prefill.
        feedback_bytes = tokens_per_microbatch * feedback_bytes_per_token
        transfers_ns += transmission_ns(links[-1], feedback_bytes)
        transfers_ns += s_to_ns(links[-1].latency_s)
    round_ns = max(sum(compute_ns) + transfers_ns, n * bottleneck)
    return bottleneck, round_ns


def predict_bubble(
    n: int,
    stage_profiles: list[StageProfile],
    links: list[LinkProfile],
    tokens_per_microbatch: int,
    phase: Phase,
    bytes_per_token: int = 1,
    feedback_bytes_per_token: int = TOKEN_FEEDBACK_BYTES,
) -> float:
    """Predicted idle fraction of the bottleneck stage in steady state.

    One full round moves every micro-batch through all stages, the inter-stage
    transfers, and the token feedback back to the head; the bottleneck is busy
    n * c_bottleneck of it.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    bottleneck, round_time = _round_terms(
        n, stage_profiles, links, tokens_per_microbatch, phase,
        bytes_per_token, feedback_bytes_per_token,
    )
    bubble = 1.0 - (n * bottleneck) / round_time
    return min(1.0, max(0.0, bubble))


def clamp_demand(cfg: ControllerConfig, queued_tokens: int) -> int:
    """The token pool a decision budgets: the demand capped, and at least 1."""
    return max(1, min(queued_tokens, cfg.max_batched_tokens))


def choose_n(
    cfg: ControllerConfig,
    stage_profiles: list[StageProfile],
    links: list[LinkProfile],
    queued_tokens: int,
    phase: Phase,
    bytes_per_token: int = 1,
    feedback_bytes_per_token: int = TOKEN_FEEDBACK_BYTES,
) -> ControllerDecision:
    """Incremental search for the micro-batch count, starting at n=1.

    Stops at the first n whose predicted bubble is <= bubble_epsilon, or when
    stepping to n+1 would raise bottleneck utilization by less than
    gain_delta, or at n_max; returns that n with its per-micro-batch token
    budget and predicted bubble.
    """
    num_stages = len(stage_profiles)
    if num_stages == 0:
        raise ConfigError("need at least one stage profile")
    n_max = cfg.effective_n_max(num_stages)
    budget_pool = clamp_demand(cfg, queued_tokens)

    def tokens_for(n: int) -> int:
        if cfg.mode is BudgetMode.TOKEN_SCALED:
            return max(1, math.ceil(budget_pool / n))
        return budget_pool

    def evaluate(n: int) -> tuple[float, float, int]:
        tokens = tokens_for(n)
        bottleneck, round_time = _round_terms(
            n, stage_profiles, links, tokens, phase,
            bytes_per_token, feedback_bytes_per_token,
        )
        utilization = (n * bottleneck) / round_time
        bubble = min(1.0, max(0.0, 1.0 - utilization))
        return bubble, utilization, tokens

    n = 1
    bubble, util, tokens = evaluate(n)
    while True:
        if bubble <= cfg.bubble_epsilon or n >= n_max:
            break
        next_bubble, next_util, next_tokens = evaluate(n + 1)
        if util > 0 and (next_util / util) - 1.0 < cfg.gain_delta:
            break
        n, bubble, util, tokens = n + 1, next_bubble, next_util, next_tokens
    return ControllerDecision(
        n_microbatches=n,
        token_budget_per_microbatch=tokens,
        predicted_bubble_fraction=bubble,
    )


DECISION_LOG_HEADER = ("iteration", "n", "token_budget", "predicted_bubble")


def write_decision_log(
    decisions: list[tuple[int, ControllerDecision]], path: str | Path
) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DECISION_LOG_HEADER)
        for iteration, d in decisions:
            writer.writerow(
                [
                    iteration,
                    d.n_microbatches,
                    d.token_budget_per_microbatch,
                    f"{d.predicted_bubble_fraction:.6f}",
                ]
            )
