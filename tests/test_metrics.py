import json
import random

import pytest

from pipelink.errors import ConfigError
from pipelink.metrics import (
    CostMode,
    CostModel,
    MetricsReport,
    cost_per_hour,
    cost_profit_margin,
    nearest_rank,
    summarize,
)
from pipelink.outputs import write_report_json
from pipelink.workload import Request, RequestState


def finished(i, arrival, first, finish, out_len):
    r = Request(id=i, arrival_time=arrival, input_len=10, output_len=out_len)
    r.state = RequestState.FINISHED
    r.tokens_emitted = out_len
    r.first_token_time = first
    r.finish_time = finish
    return r


# -- summarize ----------------------------------------------------------------


def test_summarize_definition_arithmetic():
    report = summarize([finished(0, 0.0, 0.5, 1.5, 11)])
    assert report.ttft_mean_s == pytest.approx(0.5)
    assert report.tpot_mean_s == pytest.approx(0.1)


def test_single_token_requests_excluded_from_tpot():
    reqs = [finished(0, 0.0, 0.5, 0.5, 1), finished(1, 0.0, 1.0, 2.0, 11)]
    report = summarize(reqs)
    assert report.tpot_mean_s == pytest.approx(0.1)  # only the 11-token request
    assert report.total_tokens == 12  # but it still counts for throughput


def test_throughput_two_requests():
    reqs = [finished(0, 0.0, 1.0, 2.0, 10), finished(1, 0.5, 2.0, 3.0, 20)]
    report = summarize(reqs)
    assert report.throughput_tok_s == pytest.approx(30 / 3.0)


def test_throughput_identity_exact():
    reqs = [finished(0, 0.0, 0.3, 1.7, 7), finished(1, 0.2, 1.1, 2.9, 13)]
    report = summarize(reqs)
    assert report.throughput_tok_s == report.total_tokens / report.span_s


def test_unfinished_requests_rejected():
    r = Request(id=0, arrival_time=0.0, input_len=1, output_len=2)
    with pytest.raises(ConfigError, match="not finished"):
        summarize([r])


def test_ttft_and_tpot_nonnegative_random():
    rng = random.Random(3)
    reqs = []
    for i in range(50):
        arrival = rng.uniform(0, 10)
        first = arrival + rng.uniform(0, 2)
        out = rng.randint(1, 30)
        finish = first if out == 1 else first + rng.uniform(0.01, 5)
        reqs.append(finished(i, arrival, first, finish, out))
    report = summarize(reqs)
    assert report.ttft_mean_s >= 0
    assert report.tpot_mean_s is None or report.tpot_mean_s >= 0
    assert report.ttft_p50_s <= report.ttft_p99_s


def test_nearest_rank_small_sample_oracle():
    values = [1.0, 2.0, 3.0, 4.0]
    # nearest-rank: ceil(p/100 * n)-th order statistic
    assert nearest_rank(values, 50) == 2.0
    assert nearest_rank(values, 75) == 3.0
    assert nearest_rank(values, 76) == 4.0
    assert nearest_rank(values, 99) == 4.0
    assert nearest_rank([5.0], 50) == 5.0


def test_report_json_round_trip(tmp_path):
    report = summarize([finished(0, 0.0, 0.5, 1.5, 11)], (0.25,))
    path = tmp_path / "report.json"
    write_report_json(report, path)
    data = json.loads(path.read_text())
    assert data["total_tokens"] == 11
    assert data["bubble_fraction_per_stage"] == [0.25]


def test_report_percentile_order_enforced():
    with pytest.raises(ConfigError):
        MetricsReport(
            throughput_tok_s=1.0, ttft_mean_s=1.0, ttft_p50_s=2.0, ttft_p99_s=1.0,
            tpot_mean_s=None, bubble_fraction_per_stage=(), span_s=1.0, total_tokens=1,
        )


# -- cost models ----------------------------------------------------------------


def rtx4090_local(count=1):
    # consumer-card ownership: 12999 currency units, 450 W, 0.538 per kWh
    return CostModel(
        mode=CostMode.LOCAL_OWNERSHIP,
        device_count=count,
        token_price=1.8,
        device_price=12_999.0,
        power_kw=0.450,
        power_price=0.538,
    )


def test_local_ownership_cost_arithmetic():
    assert cost_per_hour(rtx4090_local(1)) == pytest.approx(0.53888, abs=1e-5)


def test_cloud_rental_cost():
    c = CostModel(
        mode=CostMode.CLOUD_RENTAL, device_count=4, token_price=2.75,
        rental_price_per_hour=0.26,
    )
    assert cost_per_hour(c) == pytest.approx(1.04)


def test_zero_devices_zero_cost():
    c = CostModel(
        mode=CostMode.CLOUD_RENTAL, device_count=0, token_price=1.0,
        rental_price_per_hour=0.26,
    )
    assert cost_per_hour(c) == 0.0
    with pytest.raises(ConfigError):
        cost_profit_margin(100.0, c)


def test_margin_closed_form():
    c = CostModel(
        mode=CostMode.CLOUD_RENTAL, device_count=4, token_price=2.75,
        rental_price_per_hour=0.26,
    )
    # 500 tok/s -> 1.8M tokens/h -> 4.95/h profit against 1.04/h cost
    assert cost_profit_margin(500.0, c) == pytest.approx(3.7596, abs=1e-4)


def test_margin_breakeven_is_zero():
    c = CostModel(
        mode=CostMode.CLOUD_RENTAL, device_count=1, token_price=1.0,
        rental_price_per_hour=0.0036,
    )
    # 1 tok/s -> 0.0036/h profit == cost
    assert cost_profit_margin(1.0, c) == pytest.approx(0.0, abs=1e-12)


def test_margin_monotone_in_throughput_and_cost():
    rng = random.Random(9)
    for _ in range(100):
        price = rng.uniform(0.5, 5)
        rental = rng.uniform(0.1, 2)
        c_lo = CostModel(CostMode.CLOUD_RENTAL, 1, price, rental_price_per_hour=rental)
        c_hi = CostModel(
            CostMode.CLOUD_RENTAL, 1, price, rental_price_per_hour=rental * 1.5
        )
        t = rng.uniform(1, 1000)
        assert cost_profit_margin(t * 1.1, c_lo) > cost_profit_margin(t, c_lo)
        assert cost_profit_margin(t, c_hi) < cost_profit_margin(t, c_lo)


def test_margin_scale_consistency():
    base = rtx4090_local(2)
    scaled = CostModel(
        mode=base.mode, device_count=base.device_count,
        token_price=base.token_price * 2, device_price=base.device_price * 2,
        power_kw=base.power_kw, power_price=base.power_price * 2,
        amortization_hours=base.amortization_hours,
    )
    assert cost_profit_margin(321.0, base) == pytest.approx(
        cost_profit_margin(321.0, scaled), rel=1e-12
    )


def test_missing_mode_fields_rejected():
    with pytest.raises(ConfigError):
        CostModel(mode=CostMode.LOCAL_OWNERSHIP, device_count=1, token_price=1.0)
    with pytest.raises(ConfigError):
        CostModel(mode=CostMode.CLOUD_RENTAL, device_count=1, token_price=1.0)
