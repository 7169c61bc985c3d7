import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.errors import ConfigError, TraceError
from pipelink.workload import (
    LengthHistogram,
    Request,
    Trace,
    filter_trace,
    generate_trace,
    load_trace,
    save_trace,
)


def test_zero_duration_gives_empty_trace():
    assert generate_trace(rate=1.0, duration=0.0, seed=0).requests == []


def test_generation_is_deterministic(tmp_path):
    a = generate_trace(rate=3.0, duration=50.0, seed=42)
    b = generate_trace(rate=3.0, duration=50.0, seed=42)
    assert a == b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trace(a, pa)
    save_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_poisson_arrival_count_near_mean():
    # mean 3600, 3 sigma = 180; seed is fixed so the bound is deterministic
    trace = generate_trace(rate=1.0, duration=3600.0, seed=42)
    assert 3420 <= len(trace.requests) <= 3780


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_interarrival_gaps_are_exponential(seed):
    scipy_stats = pytest.importorskip("scipy.stats")
    rate = 5.0
    trace = generate_trace(rate=rate, duration=2100.0, seed=seed)
    arrivals = [r.arrival_time for r in trace.requests][:10000]
    assert len(arrivals) == 10000
    gaps = [b - a for a, b in zip([0.0] + arrivals[:-1], arrivals)]
    ks = scipy_stats.kstest(gaps, "expon", args=(0, 1 / rate)).statistic
    assert ks < 1.628 / math.sqrt(len(gaps))  # 1% critical value


def test_generated_lengths_come_from_histogram():
    hist_in = LengthHistogram(buckets=((5, 5, 1.0),))
    hist_out = LengthHistogram(buckets=((7, 9, 1.0),))
    trace = generate_trace(1.0, 100.0, hist_in, hist_out, seed=3)
    assert trace.requests
    assert all(r.input_len == 5 for r in trace.requests)
    assert all(7 <= r.output_len <= 9 for r in trace.requests)


def test_zero_mass_histogram_rejected():
    with pytest.raises(ConfigError):
        LengthHistogram(buckets=((1, 5, 0.0),))


def test_save_load_round_trip(tmp_path):
    trace = generate_trace(rate=2.0, duration=30.0, seed=9)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    assert load_trace(path) == trace


traces = st.lists(
    st.tuples(st.floats(0, 1e6) | st.sampled_from([1e-05, 5e-324, 1e16]),
              st.integers(1, 2**40), st.integers(1, 2**40)),
    max_size=30,
).map(lambda rows: Trace(requests=[
    Request(id=i, arrival_time=t, input_len=n_in, output_len=n_out)
    for i, (t, n_in, n_out) in enumerate(sorted(rows))
]))


@settings(max_examples=200, deadline=None)
@given(trace=traces)
def test_save_trace_writes_the_bytes_of_csv_writer(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace", numbered=True)
    save_trace(trace, directory / "new.csv")
    with (directory / "reference.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("arrival_s", "input_tokens", "output_tokens"))
        for r in trace.requests:
            writer.writerow([repr(r.arrival_time), r.input_len, r.output_len])
    assert (directory / "new.csv").read_bytes() == (directory / "reference.csv").read_bytes()
    assert load_trace(directory / "new.csv") == trace


def test_load_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("arrival_s,input_tokens,output_tokens\n")
    assert load_trace(path).requests == []


def test_load_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("arrival_s,input_tokens,output_tokens\n0.5,100,50\n")
    trace = load_trace(path)
    assert len(trace.requests) == 1
    r = trace.requests[0]
    assert (r.arrival_time, r.input_len, r.output_len) == (0.5, 100, 50)


def test_load_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("arrival_s,input_tokens,output_tokens\n0.5,100,50\n0.7,abc,50\n")
    with pytest.raises(TraceError, match="line 3"):
        load_trace(path)


@pytest.mark.parametrize("arrival", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_arrival(tmp_path, arrival):
    path = tmp_path / "bad.csv"
    path.write_text(f"arrival_s,input_tokens,output_tokens\n0.5,1,1\n{arrival},1,1\n")
    with pytest.raises(TraceError, match="line 3: arrival_s must be finite"):
        load_trace(path)


@pytest.mark.parametrize(
    "rate, duration",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)],
    ids=["rate-nan", "rate-inf", "duration-inf", "duration-nan"],
)
def test_generate_rejects_non_finite_rate_and_duration(rate, duration):
    with pytest.raises(ConfigError, match="must be finite"):
        generate_trace(rate=rate, duration=duration, seed=0)


def test_load_rejects_decreasing_arrivals(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("arrival_s,input_tokens,output_tokens\n1.0,1,1\n0.5,1,1\n")
    with pytest.raises(TraceError, match="line 3"):
        load_trace(path)


def _req(i, in_len, out_len):
    return Request(id=i, arrival_time=float(i), input_len=in_len, output_len=out_len)


def test_filter_keeps_exactly_the_in_bounds_requests():
    trace = Trace(requests=[_req(0, 256, 512), _req(1, 257, 10), _req(2, 10, 513)])
    kept = filter_trace(trace, 256, 512)
    assert [r.id for r in kept.requests] == [0]


def test_filter_identity_with_huge_bounds():
    trace = Trace(requests=[_req(0, 256, 512), _req(1, 9000, 9000)])
    assert filter_trace(trace, 10**9, 10**9) == trace


def test_filter_all_oversized():
    trace = Trace(requests=[_req(0, 300, 600)])
    assert filter_trace(trace, 256, 512).requests == []


@given(
    lengths=st.lists(
        st.tuples(st.integers(1, 400), st.integers(1, 800)), max_size=50
    ),
    max_in=st.integers(1, 500),
    max_out=st.integers(1, 900),
)
@settings(max_examples=100, deadline=None)
def test_filter_is_idempotent(lengths, max_in, max_out):
    trace = Trace(requests=[_req(i, a, b) for i, (a, b) in enumerate(lengths)])
    once = filter_trace(trace, max_in, max_out)
    assert filter_trace(once, max_in, max_out) == once
    assert all(
        r.input_len <= max_in and r.output_len <= max_out for r in once.requests
    )


def test_request_lifecycle_bounds():
    with pytest.raises(ConfigError):
        Request(id=0, arrival_time=0.0, input_len=0, output_len=1)
    with pytest.raises(ConfigError):
        Request(id=0, arrival_time=0.0, input_len=1, output_len=0)
