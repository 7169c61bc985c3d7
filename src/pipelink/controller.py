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

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError
from .profiles import LinkProfile, Phase, StageProfile, compute_time
from .transport import activation_bytes, feedback_bytes, s_to_ns, transfer_ns


class BudgetMode(enum.Enum):
    # Divide one bounded token budget across the micro-batches (compute per
    # micro-batch shrinks as n grows).
    TOKEN_SCALED = "token_scaled"
    # Every micro-batch carries the full per-micro-batch budget (adding a
    # micro-batch adds work, as in fixed-size pipelining diagrams).
    FIXED_COMPUTE = "fixed_compute"


@dataclass(frozen=True)
class ControllerConfig:
    max_batched_tokens: int = 2048
    max_batch_size: int = 64
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


def predict_bubble(
    n: int,
    stage_profiles: list[StageProfile],
    links: list[LinkProfile],
    tokens_per_microbatch: int,
    phase: Phase,
    bytes_per_token: int = 1,
) -> tuple[float, float]:
    """(bubble, utilization): predicted idle and busy fractions of the bottleneck.

    One full round moves every micro-batch through all stages, the inter-stage
    transfers, and the token feedback back to the head; the bottleneck is busy
    n * c_bottleneck of it.  Round terms are integer nanoseconds, mirroring
    the engine's virtual clock, so a transfer-free balanced pipeline predicts
    a bubble of exactly zero.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
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
        forward_bytes = activation_bytes(tokens_per_microbatch, bytes_per_token)
        for link in links[:-1]:
            transfers_ns += transfer_ns(link, forward_bytes)
        # Return hop carries one token id per request; batched tokens bound
        # the request count, so this is exact for decode and an upper bound
        # for prefill.
        transfers_ns += transfer_ns(links[-1], feedback_bytes(tokens_per_microbatch))
    round_ns = max(sum(compute_ns) + transfers_ns, n * bottleneck)
    utilization = (n * bottleneck) / round_ns
    return min(1.0, max(0.0, 1.0 - utilization)), utilization


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
) -> ControllerDecision:
    """Incremental search for the micro-batch count, starting at n=1.

    Stops at the first n whose predicted bubble is <= bubble_epsilon, or when
    stepping to n+1 would raise bottleneck utilization by less than
    gain_delta, or at n_max; returns that n with its per-micro-batch token
    budget and predicted bubble.
    """
    n_max = cfg.effective_n_max(len(stage_profiles))
    budget_pool = clamp_demand(cfg, queued_tokens)

    def tokens_for(n: int) -> int:
        if cfg.mode is BudgetMode.TOKEN_SCALED:
            return max(1, math.ceil(budget_pool / n))
        return budget_pool

    def evaluate(n: int) -> tuple[float, float, int]:
        tokens = tokens_for(n)
        return *predict_bubble(n, stage_profiles, links, tokens, phase, bytes_per_token), tokens

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

