import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.errors import ConfigError, ProfileError
from pipelink.profiles import (
    LinkProfile,
    Phase,
    StageProfile,
    compute_time,
    load_stage_profiles,
    synth_profile,
)
from pipelink.transport import s_to_ns, transfer_ns, transmission_ns

from simsetup import save_stage_profiles, stage_points


def two_point_profile():
    return StageProfile(
        stage_id=0,
        entries={(Phase.DECODE, 100): 0.010, (Phase.DECODE, 200): 0.018},
    )


def test_interpolation_midpoint():
    assert compute_time(two_point_profile(), Phase.DECODE, 150) == pytest.approx(0.014)


def test_lookup_at_table_point():
    assert compute_time(two_point_profile(), Phase.DECODE, 200) == 0.018


def test_extrapolation_above_table():
    # slope is 8e-5 s/token beyond the last pair of points
    assert compute_time(two_point_profile(), Phase.DECODE, 300) == pytest.approx(0.026)


def test_extrapolation_below_table_stays_positive():
    value = compute_time(two_point_profile(), Phase.DECODE, 1)
    assert value > 0


def test_unknown_phase_raises():
    with pytest.raises(ProfileError):
        compute_time(two_point_profile(), Phase.PREFILL, 100)


def test_profile_needs_two_points_per_phase():
    with pytest.raises(ConfigError):
        StageProfile(stage_id=0, entries={(Phase.DECODE, 10): 0.01})


def test_profile_rejects_non_monotone_table():
    with pytest.raises(ConfigError):
        StageProfile(
            stage_id=0,
            entries={(Phase.DECODE, 10): 0.02, (Phase.DECODE, 20): 0.01},
        )


@given(
    points=st.lists(
        st.tuples(st.integers(1, 10_000), st.floats(1e-6, 1.0)),
        min_size=2,
        max_size=8,
        unique_by=lambda t: t[0],
    ),
    query=st.integers(1, 20_000),
)
@settings(max_examples=200, deadline=None)
def test_compute_time_monotone_when_table_is(points, query):
    # sort and force monotone latencies by cumulative max
    points = sorted(points)
    running = 0.0
    entries = {}
    for tokens, secs in points:
        running = max(running, secs)
        entries[(Phase.DECODE, tokens)] = running
    profile = StageProfile(stage_id=0, entries=entries)
    lo = compute_time(profile, Phase.DECODE, query)
    hi = compute_time(profile, Phase.DECODE, query + 1)
    assert hi >= lo - 1e-15


def reference_compute_time(entries, phase, tokens):
    """Interpolation over the points sorted afresh, with a linear scan."""
    pts = sorted((t, s) for (p, t), s in entries.items() if p == phase)
    for i, (x, y) in enumerate(pts):
        if x == tokens:
            return y
        if x > tokens:
            (x0, y0), (x1, y1) = pts[max(i - 1, 0)], pts[max(i, 1)]
            break
    else:
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
    return max(y0 + (y1 - y0) / (x1 - x0) * (tokens - x0), 1e-12)


monotone_table = st.lists(
    st.tuples(st.integers(2, 10_000), st.floats(1e-6, 1.0)),
    min_size=2,
    max_size=8,
    unique_by=lambda t: t[0],
).map(lambda pts: list(zip(sorted(t for t, _ in pts), sorted(s for _, s in pts))))


@given(tables=st.tuples(monotone_table, monotone_table), data=st.data())
@settings(max_examples=200, deadline=None)
def test_compute_time_matches_sorted_points_reference(tables, data):
    entries = {
        (phase, tokens): secs
        for phase, table in zip(Phase, tables)
        for tokens, secs in table
    }
    profile = StageProfile(stage_id=0, entries=entries)
    for phase, table in zip(Phase, tables):
        xs = [t for t, _ in table]
        assert stage_points(profile, phase) == table
        queries = [
            data.draw(st.sampled_from(xs), label="exact hit"),
            data.draw(st.integers(1, xs[0] - 1), label="below the table"),
            data.draw(st.integers(xs[-1] + 1, 4 * xs[-1]), label="above the table"),
            data.draw(st.integers(xs[0], xs[-1]), label="inside the table"),
        ]
        for tokens in queries:
            assert compute_time(profile, phase, tokens) == reference_compute_time(
                entries, phase, tokens
            )


def test_transfer_ns_arithmetic():
    link = LinkProfile("a", "b", latency_s=0.010, bandwidth_bps=12_500_000)
    assert transfer_ns(link, 8_192_000) == 665_360_000
    assert transfer_ns(link, 0) == 10_000_000
    assert transfer_ns(link, 32_768) == 12_621_440


def test_transfer_ns_affine_exact_whole_ns_per_byte():
    # 12.5e6 B/s is exactly 80 ns per byte, so no rounding happens at all
    link = LinkProfile("a", "b", latency_s=0.015625, bandwidth_bps=12_500_000)
    for nbytes in (1 << 10, 1 << 16, 3 << 18):
        assert transfer_ns(link, 2 * nbytes) - transfer_ns(link, nbytes) == 80 * nbytes


@given(nbytes=st.integers(0, 10**9), bw=st.floats(1.0, 1e12), lat=st.floats(0, 1.0))
@settings(max_examples=200, deadline=None)
def test_transfer_ns_affine_general(nbytes, bw, lat):
    link = LinkProfile("a", "b", latency_s=lat, bandwidth_bps=bw)
    assert transfer_ns(link, nbytes) == s_to_ns(lat) + transmission_ns(link, nbytes)
    # doubling the bytes adds one transmission, up to the two roundings
    diff = transfer_ns(link, 2 * nbytes) - transfer_ns(link, nbytes)
    assert abs(diff - transmission_ns(link, nbytes)) <= 1


def test_synth_profile_closed_form():
    profile = synth_profile(layers=16, per_layer_token_cost=1e-6, overhead=0.002)
    assert profile.entries[(Phase.DECODE, 1024)] == pytest.approx(0.018384)
    assert profile.entries[(Phase.PREFILL, 1)] == pytest.approx(0.002016)


def test_synth_profile_rejects_zero_layers():
    with pytest.raises(ConfigError):
        synth_profile(layers=0, per_layer_token_cost=1e-6, overhead=0.002)


def test_synth_profile_deterministic():
    a = synth_profile(8, 2e-6, 0.001)
    b = synth_profile(8, 2e-6, 0.001)
    assert a == b


def test_stage_profile_csv_round_trip(tmp_path):
    profiles = {0: two_point_profile(), 1: synth_profile(4, 1e-6, 0.001, stage_id=1)}
    path = tmp_path / "profiles.csv"
    save_stage_profiles(profiles, path)
    loaded = load_stage_profiles(path)
    assert set(loaded) == {0, 1}
    assert loaded[0].entries == profiles[0].entries
    assert loaded[1].entries == profiles[1].entries


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,prefill,1,0.001,junk\n0,prefill,64,0.01\n", "line 2: expected 4 fields"),
        ("0,prefill,1,0.001\n0,prefill,64\n", "line 3: expected 4 fields"),
        ("0,prefill,1,0.001\n0,prefill,64,0.01\n0,prefill,1,0.002\n",
         "line 4: repeats stage 0 prefill at 1 batched tokens"),
        ("0,prefill,1,0.001\n0,PREFILL,64,0.01\n", "line 3: 'PREFILL' is not a valid Phase"),
        ("0,decode,1,0.001\n0, decode,64,0.01\n", "line 3: ' decode' is not a valid Phase"),
    ],
    ids=["extra-field", "missing-field", "repeated-row", "upper-case-phase", "padded-phase"],
)
def test_profile_csv_refuses_a_malformed_row(tmp_path, rows, message):
    path = tmp_path / "profiles.csv"
    path.write_text("stage_id,phase,batched_tokens,seconds\n" + rows)
    with pytest.raises(ProfileError, match=message):
        load_stage_profiles(path)


def test_link_profile_validation():
    with pytest.raises(ConfigError):
        LinkProfile("a", "b", latency_s=-0.1, bandwidth_bps=1e8)
    with pytest.raises(ConfigError):
        LinkProfile("a", "b", latency_s=0.1, bandwidth_bps=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_link_profile_rejects_non_finite_numbers(bad):
    with pytest.raises(ConfigError, match="finite"):
        LinkProfile("a", "b", latency_s=bad, bandwidth_bps=1e8)
    with pytest.raises(ConfigError, match="finite"):
        LinkProfile("a", "b", latency_s=0.1, bandwidth_bps=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_stage_profile_rejects_non_finite_seconds(tmp_path, bad):
    with pytest.raises(ConfigError, match="finite"):
        StageProfile(0, {(Phase.DECODE, 1): 0.01, (Phase.DECODE, 2): bad})
    path = tmp_path / "profiles.csv"
    path.write_text(f"stage_id,phase,batched_tokens,seconds\n0,decode,1,0.01\n0,decode,2,{bad}\n")
    with pytest.raises(ProfileError, match="finite"):
        load_stage_profiles(path)
