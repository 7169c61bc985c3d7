import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.controller import (
    BudgetMode,
    ControllerConfig,
    ControllerDecision,
    choose_n,
    clamp_demand,
    predict_bubble,
)
from pipelink.errors import ConfigError
from pipelink.outputs import write_decision_log
from pipelink.profiles import LinkProfile, Phase, flat_profile, synth_profile


def ring_links(num_stages, latency_s, bandwidth=1e18):
    names = [f"s{i}" for i in range(num_stages)]
    hops = list(zip(names, names[1:])) + [(names[-1], names[0])]
    return [LinkProfile(a, b, latency_s, bandwidth) for a, b in hops]


def bubble_of(*args, **kwargs):
    return predict_bubble(*args, **kwargs)[0]


def flat_stages(num_stages, seconds):
    return [flat_profile(seconds, stage_id=i) for i in range(num_stages)]


DESK = dict(
    stage_profiles=flat_stages(2, 0.010),
    links=ring_links(2, 0.005),
)


def test_predict_bubble_two_stage_cycle():
    # round = 2*10ms + 2*5ms = 30ms; n=2 busy 20ms -> bubble 1/3
    assert bubble_of(2, tokens_per_microbatch=4, phase=Phase.DECODE, **DESK) == (
        pytest.approx(1 / 3)
    )


def test_predict_bubble_saturates_at_three():
    assert bubble_of(3, tokens_per_microbatch=4, phase=Phase.DECODE, **DESK) == 0.0


def test_predict_bubble_zero_transfers_at_pipeline_degree():
    for S in (1, 2, 3, 4):
        links = ring_links(S, 0.0) if S >= 2 else []
        bubble = bubble_of(
            S, flat_stages(S, 0.010), links, tokens_per_microbatch=8,
            phase=Phase.DECODE,
        )
        assert bubble == 0.0


def test_predict_bubble_requires_profiles():
    with pytest.raises(ConfigError):
        bubble_of(1, [], [], 1, Phase.DECODE)


def test_predict_bubble_link_count_checked():
    with pytest.raises(ConfigError):
        bubble_of(1, flat_stages(2, 0.01), ring_links(3, 0.0), 1, Phase.DECODE)


def test_predict_bubble_monotone_in_n_fixed_tokens():
    for tokens in (1, 16, 256):
        prev = 1.0
        for n in range(1, 12):
            b = bubble_of(
                n, tokens_per_microbatch=tokens, phase=Phase.DECODE, **DESK
            )
            assert b <= prev + 1e-12
            prev = b


def test_choose_n_desk_case_returns_three():
    cfg = ControllerConfig(max_batched_tokens=12, max_batch_size=4)
    d = choose_n(cfg, queued_tokens=12, phase=Phase.DECODE, **DESK)
    assert d.n_microbatches == 3
    assert d.predicted_bubble_fraction == 0.0
    assert d.token_budget_per_microbatch == 4


def test_choose_n_zero_transfers_equals_pipeline_degree():
    for S in (1, 2, 3, 4):
        links = ring_links(S, 0.0) if S >= 2 else []
        cfg = ControllerConfig(
            max_batched_tokens=1000, max_batch_size=100, n_max=64, bubble_epsilon=0.0
        )
        d = choose_n(cfg, flat_stages(S, 0.010), links, 100, Phase.DECODE)
        assert d.n_microbatches == S


def test_choose_n_cap_overrides_bubbles():
    cfg = ControllerConfig(max_batched_tokens=12, max_batch_size=4, n_max=1)
    d = choose_n(cfg, queued_tokens=12, phase=Phase.DECODE, **DESK)
    assert d.n_microbatches == 1


def test_choose_n_budget_ceiling_slack():
    cfg = ControllerConfig(max_batched_tokens=100, max_batch_size=64)
    d = choose_n(cfg, queued_tokens=100, phase=Phase.DECODE, **DESK)
    n, budget = d.n_microbatches, d.token_budget_per_microbatch
    assert budget * n <= cfg.max_batched_tokens + n


def test_choose_n_minimality_spot_checks():
    # brute-force the stopping rule on a few (S, ratio) points
    for S, ratio, expected in [(2, 0.25, 3), (3, 0.5, 5), (4, 1.0, 8)]:
        cfg = ControllerConfig(
            max_batched_tokens=64, max_batch_size=64, n_max=2 * S
        )
        d = choose_n(
            cfg, flat_stages(S, 0.010), ring_links(S, 0.010 * ratio), 64, Phase.DECODE
        )
        assert d.n_microbatches == expected, (S, ratio)
        for smaller in range(1, expected):
            b = bubble_of(
                smaller, flat_stages(S, 0.010), ring_links(S, 0.010 * ratio),
                d.token_budget_per_microbatch, Phase.DECODE,
            )
            assert b > cfg.bubble_epsilon


def test_fixed_compute_mode_keeps_budget():
    cfg = ControllerConfig(
        max_batched_tokens=64, max_batch_size=64, mode=BudgetMode.FIXED_COMPUTE
    )
    d = choose_n(cfg, queued_tokens=50, phase=Phase.DECODE, **DESK)
    assert d.token_budget_per_microbatch == 50


def test_gain_rule_stops_search():
    # huge transfer cost: utilization grows ~linearly, so a large gain_delta
    # cannot trigger, while an enormous one stops at n=1
    cfg = ControllerConfig(
        max_batched_tokens=64, max_batch_size=64, n_max=8, gain_delta=2.0
    )
    links = ring_links(2, 0.5)
    d = choose_n(cfg, flat_stages(2, 0.010), links, 64, Phase.DECODE)
    assert d.n_microbatches == 1


def test_decision_log_format(tmp_path):
    decisions = [ControllerDecision(3, 4, 0.0), ControllerDecision(2, 8, 0.25)]
    path = tmp_path / "decisions.csv"
    write_decision_log(decisions, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,n,token_budget,predicted_bubble"
    assert lines[1] == "1,3,4,0.000000"
    assert len(lines) == 3


def test_controller_config_validation():
    with pytest.raises(ConfigError):
        ControllerConfig(max_batched_tokens=0, max_batch_size=1)
    with pytest.raises(ConfigError):
        ControllerConfig(max_batched_tokens=1, max_batch_size=1, bubble_epsilon=1.0)


# Unequal stages over slow links, so the decision moves with the demand.
UNEQUAL = dict(
    stage_profiles=[
        synth_profile(4, 1e-5 / capacity, 0.002, stage_id=i)
        for i, capacity in enumerate((2.0, 1.0, 0.5))
    ],
    links=ring_links(3, 0.004, bandwidth=1e7),
    bytes_per_token=1024,
)


@given(
    data=st.data(),
    cap=st.integers(1, 4096),
    mode=st.sampled_from(BudgetMode),
    phase=st.sampled_from(Phase),
)
@settings(max_examples=200, deadline=None)
def test_choose_n_depends_only_on_clamped_demand(data, cap, mode, phase):
    cfg = ControllerConfig(max_batched_tokens=cap, max_batch_size=64, mode=mode)
    queued = data.draw(st.integers(0, 3 * cap), label="queued_tokens")
    clamped = clamp_demand(cfg, queued)
    assert 1 <= clamped <= cap
    assert choose_n(cfg, queued_tokens=queued, phase=phase, **UNEQUAL) == choose_n(
        cfg, queued_tokens=clamped, phase=phase, **UNEQUAL
    )
