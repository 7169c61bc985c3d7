"""Byte contract of the run-file writers in ``pipelink.outputs``, and their streaming.

The references are the writers they replaced: the ``csv.writer`` log writers
and the sweep table with its columns listed by hand.  On any rows both must
write the same bytes.  A log sink's held text must save as the same bytes as
the rows it took, however the rows were cut into blocks.
"""

import csv
import json
import tracemalloc
from functools import partial
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pipelink.cli
from pipelink.cli import load_run_config, run_simulation
from pipelink.controller import ControllerDecision
from pipelink.engine import EventKind
from pipelink.metrics import MetricsReport
from pipelink.outputs import (
    DECISION_LOG_HEADER,
    EVENT_LOG_HEADER,
    LINK_LOG_HEADER,
    LogSink,
    write_decision_log,
    write_event_log,
    write_link_log,
    write_sweep_table,
)
from pipelink.profiles import Phase
from pipelink.transport import NS_PER_S

from test_golden import CASES


def reference_link_log(events, path):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LINK_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", link, payload_id, chunk_index, size,
             cls, event)
            for time_ns, link, payload_id, chunk_index, size, cls, event in events
        )


def reference_event_log(events, path):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", kind, subject, stage)
            for time_ns, kind, subject, stage in events
        )


def reference_decision_log(decisions, path):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DECISION_LOG_HEADER)
        for iteration, d in enumerate(decisions, 1):
            writer.writerow([
                iteration,
                d.n_microbatches,
                d.token_budget_per_microbatch,
                f"{d.predicted_bubble_fraction:.6f}",
            ])


def reference_sweep_table(axis, points, path):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("axis", "value", "throughput_tok_s", "ttft_mean_s", "ttft_p50_s",
                         "ttft_p99_s", "tpot_mean_s", "span_s", "total_tokens"))
        for value, r in points:
            writer.writerow([
                axis,
                value,
                f"{r.throughput_tok_s:.6f}",
                f"{r.ttft_mean_s:.6f}",
                f"{r.ttft_p50_s:.6f}",
                f"{r.ttft_p99_s:.6f}",
                "" if r.tpot_mean_s is None else f"{r.tpot_mean_s:.6f}",
                f"{r.span_s:.6f}",
                r.total_tokens,
            ])


times = st.one_of(
    st.sampled_from([0, 1, 2**53, 2**53 + 1, 2**62 + 500]),
    st.integers(0, 10**12).map(lambda k: k * 1000 + 500),  # half-microsecond ties
    st.integers(0, 2**64),
)
# Node names are user input: link names may need quoting.
link_names = st.text(st.sampled_from(list('ab->, "é→\n')), max_size=8)
link_rows = st.lists(
    st.tuples(
        times,
        link_names,
        st.integers(0, 2**40),
        st.integers(-1, 1000),
        st.integers(1, 2**40),
        st.sampled_from([phase.value for phase in Phase]),
        st.sampled_from(["enqueue", "emit", "sent", "deliver"]),
    ),
    max_size=30,
)
# In time order, as a run logs them; equal times keep the order drawn.
link_events = link_rows.map(lambda rows: sorted(rows, key=lambda row: row[0]))
engine_events = st.lists(
    st.tuples(
        times, st.sampled_from([kind.name for kind in EventKind]), st.integers(0, 2**40),
        st.integers(-1, 8),
    ),
    max_size=30,
)
# In time order, as a run logs them: a sink's clock refuses a tick that goes back.
engine_log = engine_events.map(lambda rows: sorted(rows, key=lambda row: row[0]))
floats = st.floats(allow_nan=False)
reports = st.builds(
    lambda q, tpot, bubbles, tokens: MetricsReport(
        q[0], q[1], *sorted(q[2:4]), tpot, bubbles, q[4], tokens
    ),
    st.lists(floats, min_size=5, max_size=5),
    st.none() | floats,
    st.lists(floats, max_size=3).map(tuple),
    st.integers(0, 2**40),
)
# Axis values are typed by the user, so they may need quoting.
sweep_points = st.lists(st.tuples(st.text(st.sampled_from(list('1e.-, "a\n')), max_size=6),
                                  reports), max_size=5)
decisions = st.lists(
    st.builds(ControllerDecision, st.integers(1, 64), st.integers(1, 2**20), st.floats()),
    max_size=30,
)


def same_bytes(directory, writer, reference, events):
    writer(events, directory / "new.csv")
    reference(events, directory / "reference.csv")
    return (directory / "new.csv").read_bytes() == (directory / "reference.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(events=link_events)
def test_link_log_bytes_match_csv_writer(events, tmp_path_factory):
    directory = tmp_path_factory.mktemp("links", numbered=True)
    assert same_bytes(directory, write_link_log, reference_link_log, events)


@settings(max_examples=200, deadline=None)
@given(events=engine_events)
def test_event_log_bytes_match_csv_writer(events, tmp_path_factory):
    directory = tmp_path_factory.mktemp("events", numbered=True)
    assert same_bytes(directory, write_event_log, reference_event_log, events)


@settings(max_examples=200, deadline=None)
@given(rows=decisions)
def test_decision_log_bytes_match_csv_writer(rows, tmp_path_factory):
    directory = tmp_path_factory.mktemp("decisions", numbered=True)
    assert same_bytes(directory, write_decision_log, reference_decision_log, rows)


@settings(max_examples=200, deadline=None)
@given(axis=st.sampled_from(["bandwidth", "chunk_size"]), points=sweep_points)
def test_sweep_table_bytes_match_hand_listed_columns(axis, points, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sweep", numbered=True)
    assert same_bytes(directory, partial(write_sweep_table, axis),
                      partial(reference_sweep_table, axis), points)


def test_link_log_refuses_a_row_earlier_than_the_one_before(tmp_path):
    events = [
        (2_000, "a->b", 1, -1, 10, Phase.PREFILL.value, "enqueue"),
        (2_000, "a->b", 1, 0, 10, Phase.PREFILL.value, "emit"),
        (1_000, "a->b", 2, -1, 20, Phase.DECODE.value, "enqueue"),
    ]
    path = tmp_path / "transport.csv"
    with pytest.raises(ValueError, match="at 1000 ns follows one at 2000 ns"):
        write_link_log(events, path)
    assert "0.000001" not in path.read_text()


def test_link_log_is_streamed_not_held_whole(tmp_path):
    events = [
        (t * 1_500, "node-alpha->node-beta", t // 4, t % 4, 16_384, Phase.PREFILL.value, "emit")
        for t in range(200_000)
    ]
    path = tmp_path / "transport.csv"
    tracemalloc.start()
    try:
        write_link_log(events, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Nothing is held per row: one 1,024-row batch and its text peak near
    # 0.25 MB for this 11.8 MB file, where a sorted copy alone would hold
    # 16 bytes a row (3.2 MB) and a file held whole at least its own size.
    assert peak < 1 << 20


def saved_or_refused(write, rows, path):
    try:
        write(rows, path)
    except ValueError as exc:
        return str(exc)
    return path.read_bytes()


def held_in_blocks(sink, log, rows, cuts, name=str):
    """``log``, one of ``sink``'s held logs, given ``rows`` in blocks cut at
    ``cuts``, as a run with ``sink`` logs them: a time is stamped through
    ``sink.stamp`` once per run of equal times, across blocks too, and the
    second field is held as ``name`` gives it."""
    edges = sorted({0, len(rows), *(c % (len(rows) + 1) for c in cuts)})
    tick = None
    for start, end in zip(edges, edges[1:]):
        block = []
        for t, field, *rest in rows[start:end]:
            if t != tick:
                tick, stamp = t, sink.stamp(t)
            block.append((stamp, name(field), *rest))
        log.take(block)
    return log


# A run of equal times across the block edge at 2, and a row earlier than
# the last of the block before it.
EQUAL_TIMES_ACROSS_AN_EDGE = [
    (1_500, "a->b", 1, -1, 10, Phase.PREFILL.value, "enqueue"),
    (2_500, "a->b", 1, 0, 10, Phase.PREFILL.value, "emit"),
    (2_500, "b->a", 2, -1, 8, Phase.DECODE.value, "enqueue"),
    (2_500, "b->a", 2, 0, 8, Phase.DECODE.value, "emit"),
]
EARLIER_AFTER_AN_EDGE = [
    (2_000, "a->b", 1, -1, 10, Phase.PREFILL.value, "enqueue"),
    (1_000, "a->b", 2, -1, 20, Phase.DECODE.value, "enqueue"),
]


@settings(max_examples=200, deadline=None)
@given(rows=link_events | link_rows, cuts=st.lists(st.integers(0, 30), max_size=6))
@example(rows=EQUAL_TIMES_ACROSS_AN_EDGE, cuts=[2])
@example(rows=EARLIER_AFTER_AN_EDGE, cuts=[1])
def test_held_link_log_saves_as_the_rows_would(rows, cuts, tmp_path_factory):
    directory = tmp_path_factory.mktemp("held-links", numbered=True)
    expected = saved_or_refused(write_link_log, rows, directory / "rows.csv")
    sink = LogSink()
    try:
        held = held_in_blocks(sink, sink.link_events, rows, cuts, sink.quote)
    except ValueError as exc:  # refused at the tick that goes back, in any block
        assert str(exc) == expected
        return
    assert len(held) == len(rows)
    assert saved_or_refused(write_link_log, held, directory / "held.csv") == expected


@settings(max_examples=200, deadline=None)
@given(rows=engine_log, cuts=st.lists(st.integers(0, 30), max_size=6))
@example(rows=[(t, "ARRIVAL", i, -1) for i, (t, *_) in enumerate(EQUAL_TIMES_ACROSS_AN_EDGE)],
         cuts=[2])
def test_held_event_log_saves_as_the_rows_would(rows, cuts, tmp_path_factory):
    directory = tmp_path_factory.mktemp("held-events", numbered=True)
    write_event_log(rows, directory / "rows.csv")
    sink = LogSink()
    held = held_in_blocks(sink, sink.events, rows, cuts)
    assert len(held) == len(rows)
    write_event_log(held, directory / "held.csv")
    assert (directory / "held.csv").read_bytes() == (directory / "rows.csv").read_bytes()


def golden_config(directory, case):
    cluster, config = CASES[case]
    (directory / "cluster.json").write_text(json.dumps(cluster))
    (directory / "run.json").write_text(json.dumps(config))
    return load_run_config(directory / "run.json")


def test_simulate_holds_its_logs_as_text_not_rows(tmp_path):
    cfg = golden_config(tmp_path, "overloaded")
    tracemalloc.start()
    try:
        result, _, _ = run_simulation(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    write_event_log(result.events, tmp_path / "events.csv")
    write_link_log(result.link_events, tmp_path / "transport.csv")
    log_bytes = sum((tmp_path / name).stat().st_size for name in ("events.csv", "transport.csv"))
    # Every row held as a tuple, 9,526 of them, left 3.4 bytes per CSV byte
    # held after the run; the rows formatted a block at a time leave 2.1,
    # about 0.3 MB of which is tuples the interpreter keeps for reuse.
    assert held < 2.75 * log_bytes


class CountingSink(LogSink):
    """A sink that records each time it stamps."""

    def __init__(self):
        super().__init__()
        self.stamped = []

    def stamp(self, t):
        self.stamped.append(t)
        return super().stamp(t)


def test_a_run_stamps_each_tick_once_and_its_sink_takes_every_row(tmp_path, monkeypatch):
    cfg = golden_config(tmp_path, "overloaded")
    sinks = []
    monkeypatch.setattr(pipelink.cli, "LogSink", lambda: sinks.append(CountingSink()) or sinks[0])
    held, _, _ = run_simulation(cfg)
    monkeypatch.setattr(pipelink.cli, "LogSink", lambda: None)
    rows, _, _ = run_simulation(cfg)
    # Once per distinct time across both logs of the same run without a sink.
    assert sinks[0].stamped == sorted({row[0] for row in chain(rows.events, rows.link_events)})
    assert len(held.events) == len(rows.events)
    assert len(held.link_events) == len(rows.link_events)
