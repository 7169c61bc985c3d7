"""Byte contract of the run-file writers in ``pipelink.outputs``, and what a run holds.

The references are the writers they replaced: the ``csv.writer`` log writers
of ``simsetup`` and the sweep table with its columns listed by hand.  A log's
rows, held by a sink in one block, must save as the reference writes the
same rows at ns precision, or be refused by the sink's clock at the first
tick that goes back; held in blocks cut anywhere, they must save or be
refused just as in one block.  The other files must write the same bytes as
their reference on any rows.  A run holds its logs in temporary files, not
in memory, and leaves none of them open.
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
from pipelink.cli import load_run_config, main, run_simulation
from pipelink.controller import ControllerDecision
from pipelink.engine import EventKind
from pipelink.metrics import MetricsReport
from pipelink.outputs import (
    DECISION_LOG_HEADER,
    LogSink,
    write_decision_log,
    write_event_log,
    write_link_log,
    write_sweep_table,
)
from pipelink.profiles import Phase

from simsetup import RowsSink, open_files, reference_event_log, reference_link_log
from test_golden import CASES


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


def saved_or_refused(rows, cuts, directory, log, write, name=str):
    """The bytes ``write`` saves of ``rows`` held by a sink's ``log`` in
    blocks cut at ``cuts``, or the message the sink's clock refuses them with."""
    sink = LogSink()
    try:
        held = held_in_blocks(sink, getattr(sink, log), rows, cuts, name)
    except ValueError as exc:  # refused at the tick that goes back, in any block
        return str(exc)
    assert len(held) == len(rows)
    write(held, directory / "held.csv")
    return (directory / "held.csv").read_bytes()


def reference_or_refusal(rows, directory, reference):
    """The bytes ``reference`` writes of ``rows`` in time order; of rows out
    of it, the refusal at the first time earlier than the one before."""
    for (before, *_), (t, *_) in zip(rows, rows[1:]):
        if t < before:
            return f"a row at {t} ns follows one at {before} ns"
    reference(rows, directory / "reference.csv")
    return (directory / "reference.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(rows=link_events | link_rows)
@example(rows=EARLIER_AFTER_AN_EDGE)
def test_link_log_bytes_match_csv_writer(rows, tmp_path_factory):
    directory = tmp_path_factory.mktemp("links", numbered=True)
    assert (saved_or_refused(rows, [], directory, "link_events", write_link_log, LogSink.quote)
            == reference_or_refusal(rows, directory, reference_link_log))


@settings(max_examples=200, deadline=None)
@given(rows=engine_log | engine_events)
@example(rows=[(t, "ARRIVAL", i, -1) for i, (t, *_) in enumerate(EARLIER_AFTER_AN_EDGE)])
def test_event_log_bytes_match_csv_writer(rows, tmp_path_factory):
    directory = tmp_path_factory.mktemp("events", numbered=True)
    assert (saved_or_refused(rows, [], directory, "events", write_event_log)
            == reference_or_refusal(rows, directory, reference_event_log))


@settings(max_examples=200, deadline=None)
@given(rows=link_events | link_rows, cuts=st.lists(st.integers(0, 30), max_size=6))
@example(rows=EQUAL_TIMES_ACROSS_AN_EDGE, cuts=[2])
@example(rows=EARLIER_AFTER_AN_EDGE, cuts=[1])
def test_held_link_log_saves_as_the_rows_would(rows, cuts, tmp_path_factory):
    whole = tmp_path_factory.mktemp("held-links-whole", numbered=True)
    cut = tmp_path_factory.mktemp("held-links-cut", numbered=True)
    save = partial(saved_or_refused, log="link_events", write=write_link_log, name=LogSink.quote)
    assert save(rows, cuts, cut) == save(rows, [], whole)


@settings(max_examples=200, deadline=None)
@given(rows=engine_log | engine_events, cuts=st.lists(st.integers(0, 30), max_size=6))
@example(rows=[(t, "ARRIVAL", i, -1) for i, (t, *_) in enumerate(EQUAL_TIMES_ACROSS_AN_EDGE)],
         cuts=[2])
@example(rows=[(t, "ARRIVAL", i, -1) for i, (t, *_) in enumerate(EARLIER_AFTER_AN_EDGE)],
         cuts=[1])
def test_held_event_log_saves_as_the_rows_would(rows, cuts, tmp_path_factory):
    whole = tmp_path_factory.mktemp("held-events-whole", numbered=True)
    cut = tmp_path_factory.mktemp("held-events-cut", numbered=True)
    save = partial(saved_or_refused, log="events", write=write_event_log)
    assert save(rows, cuts, cut) == save(rows, [], whole)


def golden_config(directory, case):
    cluster, config = CASES[case]
    (directory / "cluster.json").write_text(json.dumps(cluster))
    (directory / "run.json").write_text(json.dumps(config))
    return load_run_config(directory / "run.json")


def test_simulate_holds_its_logs_in_files_not_in_memory(tmp_path):
    cfg = golden_config(tmp_path, "heterogeneous")
    tracemalloc.start()
    try:
        result, _ = run_simulation(cfg)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    outputs = [tracemalloc.Filter(True, "*/pipelink/outputs.py")]
    held = sum(trace.size for trace in snapshot.filter_traces(outputs).traces)
    write_event_log(result.events, tmp_path / "events.csv")
    write_link_log(result.link_events, tmp_path / "transport.csv")
    log_bytes = sum((tmp_path / name).stat().st_size for name in ("events.csv", "transport.csv"))
    # Logs held as text in memory left about as many bytes here as they
    # hold, 0.54 MB of them; held in files, about 10 KB of buffers and stamps.
    assert log_bytes > 8 * 64 * 1024
    assert held <= 64 * 1024


def test_a_sweep_leaves_no_log_file_open(tmp_path):
    golden_config(tmp_path, "heterogeneous")
    before = open_files()
    rc = main(["sweep", "--config", str(tmp_path / "run.json"), "--sweep-axis", "bandwidth",
               "--sweep-values", "1.25e7,2.5e7,5e7", "--out", str(tmp_path / "sweep")])
    assert rc == 0
    assert open_files() == before


class FailingSink(LogSink):
    """A sink whose clock fails once the run has handed a block over."""

    def stamp(self, t):
        if len(self.link_events):
            raise RuntimeError("the run fails here")
        return super().stamp(t)


def test_a_run_that_fails_leaves_no_log_file_open(tmp_path, monkeypatch):
    cfg = golden_config(tmp_path, "heterogeneous")
    monkeypatch.setattr(pipelink.cli, "LogSink", FailingSink)
    before = open_files()
    with pytest.raises(RuntimeError, match="the run fails here") as failed:
        run_simulation(cfg)
    # The traceback still holds the sink: its files were closed, not collected.
    assert failed.traceback
    assert open_files() == before


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
    held, _ = run_simulation(cfg)
    monkeypatch.setattr(pipelink.cli, "LogSink", RowsSink)
    rows, _ = run_simulation(cfg)
    # Once per distinct time across both logs of the same run with a RowsSink.
    assert sinks[0].stamped == sorted({row[0] for row in chain(rows.events, rows.link_events)})
    assert len(held.events) == len(rows.events)
    assert len(held.link_events) == len(rows.link_events)
