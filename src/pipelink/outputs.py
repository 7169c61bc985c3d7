"""Every file a simulation writes to ``--out``, and a sweep's ``combined.csv``.

Every CSV here is written through :func:`pipelink.decode.write_csv_blocks` a
batch of whole rows at a time, byte for byte as the ``csv`` module would
write it.  ``decisions.csv`` numbers the decisions from 1.

A run's two logs are written only from a :class:`HeldLog`.  A run given a
:class:`LogSink`, as ``simulate`` and ``sweep`` run, hands each log over a
block of rows at a time, in the order it logged them, which is time order.
Log rows are plain tuples of ints and strings, spelled by
:mod:`pipelink.engine` and :mod:`pipelink.transport`.  ``HeldLog.take`` is
the one formatter: it applies its log's fixed ``%`` row format to at most 128
rows a pass, which prints every field as held, and keeps only the text.  The
time slot holds the sink's stamp, the time in seconds to six places, and a
link row its link name CSV-quoted.  ``LogSink.stamp``, the sink's clock, is
the only place a time is formatted, and it refuses a tick earlier than the
last one.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import chain
from pathlib import Path

from .controller import ControllerDecision
from .decode import _csv_field, encode, write_csv_blocks, write_csv_lines
from .metrics import MetricsReport
from .transport import NS_PER_S

EVENT_LOG_HEADER = ("time_s", "kind", "subject", "stage")
LINK_LOG_HEADER = ("time_s", "link", "payload_id", "chunk_index", "bytes", "class", "event")
DECISION_LOG_HEADER = ("iteration", "n", "token_budget", "predicted_bubble")
EVENT_ROW = "%s,%s,%s,%s\r\n"
LINK_ROW = "%s,%s,%s,%s,%s,%s,%s\r\n"
# Rows per % pass: one pass over a whole block of 4,096 rows raised the peak
# RSS of a run, and passes of 128 rows format as fast.
_SLICE_ROWS = 128


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
        fmt = self._fmt
        parts = (rows[i:i + _SLICE_ROWS] for i in range(0, len(rows), _SLICE_ROWS))
        self.blocks.append("".join((fmt * len(p)) % tuple(chain.from_iterable(p)) for p in parts))
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
        return f"{t / NS_PER_S:.6f}"

    @staticmethod
    def quote(name: str) -> str:
        """A link name as its rows hold it: one CSV field."""
        return _csv_field(name)


def write_event_log(log: HeldLog, path: str | Path) -> None:
    """Write the engine log's text, in the order ``log`` took it."""
    write_csv_blocks(path, EVENT_LOG_HEADER, log.blocks)


def write_link_log(log: HeldLog, path: str | Path) -> None:
    """Write the link log's text, in the order ``log`` took it."""
    write_csv_blocks(path, LINK_LOG_HEADER, log.blocks)


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
