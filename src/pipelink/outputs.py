"""Every file a simulation writes to ``--out``, and a sweep's ``combined.csv``.

Every CSV here is written byte for byte as the ``csv`` module would write it.
``decisions.csv`` numbers the decisions from 1.

A run's two logs are written only from a :class:`HeldLog`.  Every engine
run hands each log over to a :class:`LogSink`, its own if it was given none,
a block of rows at a time, in the order it logged them, which is time order.
Log rows are plain tuples of ints and strings, spelled by
:mod:`pipelink.engine` and :mod:`pipelink.transport`.  ``HeldLog.take`` is
the one formatter: it applies its log's fixed ``%`` row format to at most 128
rows a pass, which prints every field as held, and writes the text to the
log's unnamed temporary file, so a run's logs are held on disk, not in
memory.  The time slot holds the sink's stamp, the time in seconds to six
places, and a link row its link name CSV-quoted.  ``LogSink.stamp``, the
sink's clock, is the only place a time is formatted, and it refuses a tick
earlier than the last one.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import weakref
from itertools import chain
from pathlib import Path

from .controller import ControllerDecision
from .decode import _csv_field, encode, write_csv_lines
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
    """One log of a run as CSV text in an unnamed temporary file, formatted
    a block of rows at a time.

    ``len()`` is the number of rows taken, as for the list of rows it stands
    in for, and stays so once the log is saved.  The file is closed when the
    log is saved, closed, or collected.
    """

    def __init__(self, fmt: str) -> None:
        self._fmt = fmt
        self._rows = 0
        self._file = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        # close() closes the file once; a log that is never saved closes it
        # when it is collected, without a ResourceWarning.
        self.close = weakref.finalize(self, self._file.close)

    def take(self, rows: list) -> None:
        """Format ``rows``, the next block of the log, stamped, and write the text."""
        fmt, write = self._fmt, self._file.write
        for i in range(0, len(rows), _SLICE_ROWS):
            part = rows[i:i + _SLICE_ROWS]
            write((fmt * len(part)) % tuple(chain.from_iterable(part)))
        self._rows += len(rows)

    def save(self, header: tuple[str, ...], path: str | Path) -> None:
        """Write ``header``, then the text in the order taken, and close the file."""
        self._file.seek(0)  # flushes what was taken
        with Path(path).open("wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            shutil.copyfileobj(self._file.buffer, fh)
        self.close()

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
            raise ValueError(f"a row at {t} ns follows one at {self._tick} ns")
        self._tick = t
        return f"{t / NS_PER_S:.6f}"

    @staticmethod
    def quote(name: str) -> str:
        """A link name as its rows hold it: one CSV field."""
        return _csv_field(name)

    def close(self) -> None:
        """Close both logs' files, as a run that failed leaves them."""
        self.events.close()
        self.link_events.close()


def write_event_log(log: HeldLog, path: str | Path) -> None:
    """Write the engine log's text, in the order ``log`` took it, and close its file."""
    log.save(EVENT_LOG_HEADER, path)


def write_link_log(log: HeldLog, path: str | Path) -> None:
    """Write the link log's text, in the order ``log`` took it, and close its file."""
    log.save(LINK_LOG_HEADER, path)


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
