"""Every file a simulation writes to ``--out``, and a sweep's ``combined.csv``.

Every CSV here goes through :func:`pipelink.decode.write_csv_lines`, with
rows formatted by hand and streamed a batch at a time, byte for byte as the
``csv`` module would write them, or, for a log held as text, through
:func:`pipelink.decode.write_csv_blocks`.  Ordering contract: each log is written in
the order given, the order the run logged it, and is never sorted or copied.
The engine logs at its current virtual time, so its logs are in time order;
``write_link_log`` refuses a row earlier than the one before it.

The rows are plain tuples of ints and strings, printed as held but for the
time, which is formatted here as seconds to six places.  Event log rows,
``(time_ns, kind, subject, stage)``, are spelled by :mod:`pipelink.engine`;
link log rows, ``(time_ns, link, payload_id, chunk_index, size_bytes, class,
event)``, by :mod:`pipelink.transport`, whose ``class`` is a ``Phase`` value.
``decisions.csv`` numbers the decisions from 1, one per iteration.

A run given a :class:`LogSink` (``PipelineEngine.run(trace, sink=...)``, as
``pipelink simulate`` and ``sweep`` run) hands it each log a block of rows at
a time, in log order.  Each :class:`HeldLog` formats a block as it arrives,
with the same formatter its writer uses, and keeps only the text; the writer
then saves the blocks one ``write`` each, never joined into one string.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterator
from pathlib import Path

from .controller import ControllerDecision
from .decode import _csv_field, encode, write_csv_blocks, write_csv_lines
from .engine import EngineRow
from .metrics import MetricsReport
from .transport import NS_PER_S, LinkRow

EVENT_LOG_HEADER = ("time_s", "kind", "subject", "stage")
LINK_LOG_HEADER = ("time_s", "link", "payload_id", "chunk_index", "bytes", "class", "event")
DECISION_LOG_HEADER = ("iteration", "n", "token_budget", "predicted_bubble")


class _EventLines:
    """The event log's rows as CSV lines.

    Called on one block of a log after another, it carries the last time and
    its stamp across blocks, so a time is formatted once per run of equal
    times, so once per distinct time in a run's log, which is in time order.
    """

    def __init__(self) -> None:
        self.last: int | None = None
        self.stamp = ""

    def __call__(self, rows):
        last, stamp = self.last, self.stamp
        for t, kind, subject, stage in rows:
            if t != last:
                last, stamp = t, f"{t / NS_PER_S:.6f}"
            yield f"{stamp},{kind},{subject},{stage}\r\n"
        self.last, self.stamp = last, stamp


class _LinkLines:
    """The link log's rows as CSV lines; a row earlier than the one before
    raises ``ValueError``, across blocks too.

    As for the event log, a time is formatted once per run of equal times; a
    link name, which may hold ``,`` or ``"``, is quoted once per name.
    """

    def __init__(self) -> None:
        self.last: int | None = None
        self.stamp = ""
        self.names: dict[str, str] = {}

    def __call__(self, rows):
        last, stamp, names = self.last, self.stamp, self.names
        for t, link, payload_id, index, size, cls, event in rows:
            if t != last:
                if last is not None and t < last:
                    raise ValueError(f"link log row at {t} ns follows one at {last} ns")
                last, stamp = t, f"{t / NS_PER_S:.6f}"
            if (name := names.get(link)) is None:
                name = names[link] = _csv_field(link)
            yield f"{stamp},{name},{payload_id},{index},{size},{cls},{event}\r\n"
        self.last, self.stamp = last, stamp


class HeldLog:
    """One log of a run as CSV text, formatted a block of rows at a time.

    ``len()`` is the number of rows taken, as for the list of rows it stands
    in for.
    """

    def __init__(self, lines: Callable[[list], Iterator[str]]) -> None:
        self._lines = lines
        self._rows = 0
        self.blocks: list[str] = []  # in the order taken

    def take(self, rows: list) -> None:
        """Format ``rows``, the next block of the log, and keep the text."""
        self.blocks.append("".join(self._lines(rows)))
        self._rows += len(rows)

    def __len__(self) -> int:
        return self._rows


class LogSink:
    """Where a run hands its two logs over, each as a :class:`HeldLog`."""

    def __init__(self) -> None:
        self.events = HeldLog(_EventLines())
        self.link_events = HeldLog(_LinkLines())


def _write_log(path: str | Path, header: tuple[str, ...], rows, lines) -> None:
    """``rows`` through a fresh formatter ``lines()``, or the text they were held as."""
    if isinstance(rows, HeldLog):
        write_csv_blocks(path, header, rows.blocks)
    else:
        write_csv_lines(path, header, lines()(rows))


def write_event_log(events: list[EngineRow] | HeldLog, path: str | Path) -> None:
    """Write the rows in order, or the text a :class:`HeldLog` holds."""
    _write_log(path, EVENT_LOG_HEADER, events, _EventLines)


def write_link_log(events: list[LinkRow] | HeldLog, path: str | Path) -> None:
    """Write the rows in order, or the text a :class:`HeldLog` holds; a row
    earlier than the one before raises ``ValueError``."""
    _write_log(path, LINK_LOG_HEADER, events, _LinkLines)


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
