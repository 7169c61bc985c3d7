"""Every file a simulation writes to ``--out``, and a sweep's ``combined.csv``.

Every CSV here is written through :func:`pipelink.decode.write_csv_blocks` a
batch of whole rows at a time, byte for byte as the ``csv`` module would
write it.  Each log is written in the order given, the order the run logged
it, which is time order; ``write_link_log`` refuses a row earlier than the
one before it.  ``decisions.csv`` numbers the decisions from 1.

Log rows are plain tuples of ints and strings, spelled by
:mod:`pipelink.engine` and :mod:`pipelink.transport`.  Each log has one
formatter, its fixed ``%`` row format applied to at most 128 rows a pass,
which prints every field as held: the time slot holds a stamp, the time in
seconds to six places, and a link row its link name CSV-quoted.  A run
given a :class:`LogSink`, as ``simulate`` and ``sweep`` run, logs rows that
hold the sink's stamps and quoted names, and hands each log over a block of
rows at a time to a :class:`HeldLog`, which formats it and keeps only the
text.  Rows held at ns precision are stamped 1,024 at a time and formatted
the same way.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

from .controller import ControllerDecision
from .decode import _csv_field, encode, write_csv_blocks, write_csv_lines
from .engine import EngineRow
from .metrics import MetricsReport
from .transport import NS_PER_S, LinkRow

EVENT_LOG_HEADER = ("time_s", "kind", "subject", "stage")
LINK_LOG_HEADER = ("time_s", "link", "payload_id", "chunk_index", "bytes", "class", "event")
DECISION_LOG_HEADER = ("iteration", "n", "token_budget", "predicted_bubble")
EVENT_ROW = "%s,%s,%s,%s\r\n"
LINK_ROW = "%s,%s,%s,%s,%s,%s,%s\r\n"
# Rows per % pass: one pass over a whole block of 4,096 rows raised the peak
# RSS of a run, and passes of 128 rows format as fast.
_SLICE_ROWS = 128


def _seconds(t: int) -> str:
    """The stamp of ``t`` ns: seconds to six places."""
    return f"{t / NS_PER_S:.6f}"


def _text(fmt: str, rows: list) -> Iterator[str]:
    """Stamped ``rows`` as CSV text, one string per slice of at most 128 rows."""
    for i in range(0, len(rows), _SLICE_ROWS):
        part = rows[i:i + _SLICE_ROWS]
        yield (fmt * len(part)) % tuple(chain.from_iterable(part))


class HeldLog:
    """One log of a run as CSV text, formatted a block of rows at a time.

    ``len()`` is the number of rows taken, as for the list of rows it stands
    in for.
    """

    def __init__(self, fmt: str) -> None:
        self._fmt = fmt
        self._rows = 0
        self.blocks: list[str] = []  # in the order taken

    def take(self, rows: list) -> None:
        """Format ``rows``, the next block of the log, stamped, and keep the text."""
        self.blocks.append("".join(_text(self._fmt, rows)))
        self._rows += len(rows)

    def __len__(self) -> int:
        return self._rows


class LogSink:
    """Where a run hands its two logs over, each as a :class:`HeldLog`, and
    the clock that stamps the rows it logs."""

    def __init__(self) -> None:
        self.events = HeldLog(EVENT_ROW)
        self.link_events = HeldLog(LINK_ROW)
        self._tick = -float("inf")

    def stamp(self, t: int) -> str:
        """The stamp of the tick at ``t`` ns; a tick earlier than the last
        one stamped raises ``ValueError``."""
        if t < self._tick:
            raise ValueError(f"link log row at {t} ns follows one at {self._tick} ns")
        self._tick = t
        return f"{t / NS_PER_S:.6f}"  # _seconds(t), a call less per tick

    @staticmethod
    def quote(name: str) -> str:
        """A link name as its rows hold it: one CSV field."""
        return _csv_field(name)


def _stamped_text(fmt: str, rows: Iterable, stamp: Callable[[int], str],
                  label: Callable[[str], str]) -> Iterator[str]:
    """Rows at ns precision as CSV text, stamped and formatted 1,024 at a time.

    A time is stamped once per run of equal times, and a second field passed
    through ``label`` once per distinct value.
    """
    last, labels, rows = None, {}, iter(rows)
    while batch := list(islice(rows, 1024)):
        held = []
        for t, field, *rest in batch:
            if t != last:
                last, stamped = t, stamp(t)
            if (labelled := labels.get(field)) is None:
                labelled = labels[field] = label(field)
            held.append((stamped, labelled, *rest))
        yield from _text(fmt, held)


def _write_log(path, header, rows, fmt, stamp, label) -> None:
    """The text a :class:`HeldLog` holds, or ``rows`` stamped and formatted."""
    if isinstance(rows, HeldLog):
        write_csv_blocks(path, header, rows.blocks)
    else:
        write_csv_blocks(path, header, _stamped_text(fmt, rows, stamp, label))


def write_event_log(events: list[EngineRow] | HeldLog, path: str | Path) -> None:
    """Write the rows in order, or the text a :class:`HeldLog` holds."""
    _write_log(path, EVENT_LOG_HEADER, events, EVENT_ROW, _seconds, str)


def write_link_log(events: list[LinkRow] | HeldLog, path: str | Path) -> None:
    """Write the rows in order, or the text a :class:`HeldLog` holds; a row
    earlier than the one before raises ``ValueError``."""
    _write_log(path, LINK_LOG_HEADER, events, LINK_ROW, LogSink().stamp, _csv_field)


def write_decision_log(decisions: list[ControllerDecision], path: str | Path) -> None:
    lines = (
        f"{iteration},{d.n_microbatches},{d.token_budget_per_microbatch},"
        f"{d.predicted_bubble_fraction:.6f}\r\n"
        for iteration, d in enumerate(decisions, 1)
    )
    write_csv_lines(path, DECISION_LOG_HEADER, lines)


def write_report_json(report: MetricsReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(encode(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_cell(value) -> str:
    """A report field as ``combined.csv`` writes it: floats to 6 places, None empty."""
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def write_sweep_table(
    axis: str, points: list[tuple[str, MetricsReport]], path: str | Path
) -> None:
    """``combined.csv``: per ``(axis value, report)``, the report less its per-stage bubbles."""
    names = [f.name for f in dataclasses.fields(MetricsReport)
             if f.name != "bubble_fraction_per_stage"]
    axis_cell = _csv_field(axis)
    lines = (
        ",".join((axis_cell, _csv_field(value),
                  *(_sweep_cell(getattr(report, n)) for n in names))) + "\r\n"
        for value, report in points
    )
    write_csv_lines(path, ("axis", "value", *names), lines)
