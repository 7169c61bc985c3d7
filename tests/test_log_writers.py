"""Byte contract of the hand-formatted CSV log writers, and their streaming.

The references are the ``csv.writer`` writers the hand-formatted ones
replaced: on any rows both must write the same bytes.
"""

import csv
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.engine import EVENT_LOG_HEADER, EngineEvent, EventKind, write_event_log
from pipelink.profiles import Phase
from pipelink.transport import LINK_LOG_HEADER, NS_PER_S, LinkEvent, write_link_log


def reference_link_log(events, path):
    classes = {phase: phase.value for phase in Phase}
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LINK_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", link, payload_id, chunk_index, size,
             classes[phase], event)
            for time_ns, link, payload_id, chunk_index, size, phase, event
            in sorted(events, key=lambda e: e.time_ns)
        )


def reference_event_log(events, path):
    names = {kind: kind.name for kind in EventKind}
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_HEADER)
        writer.writerows(
            (f"{time_ns / NS_PER_S:.6f}", names[kind], subject, stage)
            for time_ns, kind, subject, stage in events
        )


times = st.one_of(
    st.sampled_from([0, 1, 2**53, 2**53 + 1, 2**62 + 500]),
    st.integers(0, 10**12).map(lambda k: k * 1000 + 500),  # half-microsecond ties
    st.integers(0, 2**64),
)
# Node names are user input: link names may need quoting.
link_names = st.text(st.sampled_from(list('ab->, "é→\n')), max_size=8)
link_events = st.lists(
    st.builds(
        LinkEvent,
        times,
        link_names,
        st.integers(0, 2**40),
        st.integers(-1, 1000),
        st.integers(1, 2**40),
        st.sampled_from(Phase),
        st.sampled_from(["enqueue", "emit", "sent", "deliver"]),
    ),
    max_size=30,
)
engine_events = st.lists(
    st.builds(
        EngineEvent, times, st.sampled_from(EventKind), st.integers(0, 2**40),
        st.integers(-1, 8),
    ),
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


def test_link_log_is_streamed_not_held_whole(tmp_path):
    events = [
        LinkEvent(t * 1_500, "node-alpha->node-beta", t // 4, t % 4, 16_384,
                  Phase.PREFILL, "emit")
        for t in range(200_000)
    ]
    path = tmp_path / "transport.csv"
    tracemalloc.start()
    try:
        write_link_log(events, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The stable sort holds a key list and a result list, 16 bytes a row on
    # a 64-bit build; a file held whole would cost at least its own size.
    assert peak < path.stat().st_size / 2
