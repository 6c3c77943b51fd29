"""Hierarchical wall-clock spans and the JSONL trace format.

A :class:`Tracer` maintains a stack of open spans: entering a span makes
it the parent of every span opened before it exits, so a full CDSF run
produces a tree (``cdsf.run`` → ``cdsf.stage_ii`` → ``study.case`` →
``sim.replicate`` → ``sim.app``). Spans carry wall-clock ``start``/``end``
timestamps from a monotonic clock (injectable for tests) plus a flat
attribute dict of JSON-scalar values.

Spans measure *wall-clock* work. The simulator additionally emits
:class:`Event` records — zero-duration points stamped with a caller
supplied **domain** timestamp (simulated time) — for per-chunk and fault
occurrences; an event is parented under the currently open span, which
is how :mod:`repro.obs.timeline` later re-attaches chunk events to their
``sim.app`` run.

The trace file is JSON Lines: one ``{"type": "meta", ...}`` header
followed by one record per span and event (and, when a
:class:`~repro.obs.metrics.MetricsRegistry` is exported alongside, one
record per metric). :func:`read_trace` parses it back for tests and
ad-hoc analysis.

When contracts are hot (``REPRO_VALIDATE=1``), closing a span runs
:func:`repro.contracts.check_span_monotone`.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from ..contracts import check_span_monotone, contracts_enabled
from ..errors import ObservabilityError
from .logs import get_logger

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "AttrValue",
    "Event",
    "Span",
    "SpanHandle",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "read_trace",
    "write_records",
]

#: Bumped when the shape of the JSONL records changes. Version 2 added
#: ``{"type": "event", ...}`` records (domain-time point events).
TRACE_SCHEMA_VERSION = 2

#: Values a span attribute may carry (JSON scalars).
AttrValue = Union[bool, int, float, str]


@dataclass
class Span:
    """One timed region of the pipeline, nested by ``parent_id``."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, AttrValue] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Wall-clock seconds, or None while the span is still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_record(self) -> dict[str, object]:
        """The span as one JSONL trace record."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attributes),
        }


@dataclass
class Event:
    """One zero-duration point event stamped with a *domain* timestamp.

    Unlike spans (wall-clock work), events carry a caller-supplied
    ``time`` in whatever clock the emitting subsystem runs on — for the
    simulator, simulated time units. ``parent_id`` is the span that was
    open when the event fired, which ties simulator chunk/fault events
    to their enclosing ``sim.app`` run.
    """

    name: str
    event_id: int
    parent_id: int | None
    time: float
    attributes: dict[str, AttrValue] = field(default_factory=dict)

    def to_record(self) -> dict[str, object]:
        """The event as one JSONL trace record."""
        return {
            "type": "event",
            "id": self.event_id,
            "parent": self.parent_id,
            "name": self.name,
            "time": self.time,
            "attrs": dict(self.attributes),
        }


class SpanHandle:
    """Context manager opening/closing one span on its tracer.

    ``set(**attrs)`` attaches attributes before or after entry; the
    underlying :class:`Span` is available as ``.span`` once entered.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Mapping[str, AttrValue] | None = None,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes: dict[str, AttrValue] = dict(attributes or {})
        self.span: Span | None = None

    def set(self, **attributes: AttrValue) -> "SpanHandle":
        """Attach attributes to the span; returns self for chaining."""
        if self.span is not None:
            self.span.attributes.update(attributes)
        else:
            self._attributes.update(attributes)
        return self

    @property
    def duration(self) -> float | None:
        """The closed span's wall-clock seconds (None before exit)."""
        if self.span is None:
            return None
        return self.span.duration

    def __enter__(self) -> "SpanHandle":
        self.span = self._tracer._open(self._name, self._attributes)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.span is not None:
            self._tracer._close(self.span)


class NullSpan:
    """Reusable no-op stand-in for a span when observation is disabled."""

    __slots__ = ()

    @property
    def duration(self) -> None:
        return None

    def set(self, **attributes: AttrValue) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


#: The singleton handed out by :func:`repro.obs.span` when disabled.
NULL_SPAN = NullSpan()


class Tracer:
    """Collects a tree of spans using a monotonic clock.

    ``clock`` defaults to :func:`time.perf_counter`; tests inject a fake
    clock for deterministic timestamps. Spans must close in LIFO order
    (the ``with`` statement guarantees this); closing out of order raises
    :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._events: list[Event] = []
        self._next_id = 1

    # ------------------------------------------------------------------ state

    @property
    def open_spans(self) -> int:
        """Number of spans currently entered but not yet exited."""
        return len(self._stack)

    @property
    def finished(self) -> tuple[Span, ...]:
        """Closed spans, in closing order."""
        return tuple(self._finished)

    @property
    def events(self) -> tuple[Event, ...]:
        """Point events, in emission order."""
        return tuple(self._events)

    def clear(self) -> None:
        """Drop all finished spans and events (open spans are untouched)."""
        self._finished.clear()
        self._events.clear()

    # ------------------------------------------------------------------ spans

    def span(
        self, name: str, attributes: Mapping[str, AttrValue] | None = None
    ) -> SpanHandle:
        """A context manager for one child span of the current span."""
        return SpanHandle(self, name, attributes)

    def _open(self, name: str, attributes: Mapping[str, AttrValue]) -> Span:
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent_id,
            start=self._clock(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order; spans must nest"
            )
        self._stack.pop()
        span.end = self._clock()
        if contracts_enabled():
            parent = self._stack[-1] if self._stack else None
            check_span_monotone(
                span.name,
                span.start,
                span.end,
                parent_name=parent.name if parent is not None else None,
                parent_start=parent.start if parent is not None else None,
            )
        self._finished.append(span)

    # ----------------------------------------------------------------- events

    def event(
        self,
        name: str,
        time: float,
        attributes: Mapping[str, AttrValue] | None = None,
    ) -> Event:
        """Record a point event at domain timestamp ``time``.

        The event is parented under the currently open span (None at the
        top level). ``time`` is *not* read from the tracer clock — the
        caller supplies it in its own time base (the simulator passes
        simulated time).
        """
        event = Event(
            name=name,
            event_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            time=float(time),
            attributes=dict(attributes or {}),
        )
        self._next_id += 1
        self._events.append(event)
        return event

    # ------------------------------------------------------------------ merge

    def adopt_records(
        self,
        records: list[dict[str, object]],
        *,
        attributes: Mapping[str, AttrValue] | None = None,
    ) -> list[Span]:
        """Graft span/event records produced elsewhere into this tracer.

        Used by the parallel backends: a pool worker runs each task under
        its own observation session and ships the finished span records
        back; the parent adopts them on join. Adopted spans get fresh ids
        (the remapping preserves the worker-side parent/child structure),
        worker-side roots are parented under the currently open span, and
        ``attributes`` (e.g. ``worker=<pid>``) are stamped onto every
        adopted span. Timestamps are kept verbatim — on one host all
        processes share the monotonic clock.

        Event records are adopted the same way: their parent span id is
        remapped (so a worker-side ``sim.chunk`` event stays attached to
        its ``sim.app`` span) and the extra attributes are stamped on.
        Stamps are *defaults*, not overrides — an attribute already
        present on the record wins, so a ``sim.chunk`` event's domain
        ``worker`` (the simulated worker slot) survives adoption under a
        pool that stamps ``worker=<pid>``.
        Returns the adopted spans; adopted events land in :attr:`events`.
        """
        extra = dict(attributes or {})
        graft_parent = self._stack[-1].span_id if self._stack else None
        id_map: dict[object, int] = {}
        adopted: list[Span] = []
        events: list[dict[str, object]] = []
        for record in records:
            if record.get("type") == "event":
                events.append(record)
                continue
            if record.get("type") != "span":
                continue
            new_id = self._next_id
            self._next_id += 1
            id_map[record["id"]] = new_id
            old_parent = record.get("parent")
            if old_parent is None:
                parent_id = graft_parent
            else:
                # Parents precede children in record order (sorted by
                # start); an unknown parent means it never closed in the
                # worker, so the span re-roots under the graft point.
                parent_id = id_map.get(old_parent, graft_parent)
            attrs_raw = record.get("attrs")
            attrs: dict[str, AttrValue] = (
                dict(attrs_raw) if isinstance(attrs_raw, dict) else {}
            )
            attrs = {**extra, **attrs}  # record's own attributes win
            span = Span(
                name=str(record["name"]),
                span_id=new_id,
                parent_id=parent_id,
                start=float(record["start"]),  # type: ignore[arg-type]
                end=(
                    float(record["end"])  # type: ignore[arg-type]
                    if record.get("end") is not None
                    else None
                ),
                attributes=attrs,
            )
            self._finished.append(span)
            adopted.append(span)
        # Second pass: events, after every worker-side span id is known.
        for record in events:
            attrs_raw = record.get("attrs")
            attrs: dict[str, AttrValue] = (
                dict(attrs_raw) if isinstance(attrs_raw, dict) else {}
            )
            attrs = {**extra, **attrs}  # record's own attributes win
            old_parent = record.get("parent")
            event = Event(
                name=str(record["name"]),
                event_id=self._next_id,
                parent_id=(
                    graft_parent
                    if old_parent is None
                    else id_map.get(old_parent, graft_parent)
                ),
                time=float(record["time"]),  # type: ignore[arg-type]
                attributes=attrs,
            )
            self._next_id += 1
            self._events.append(event)
        return adopted

    # ----------------------------------------------------------------- export

    def records(self) -> list[dict[str, object]]:
        """Finished spans and events as JSONL records.

        Spans come first, ordered by wall-clock start time; events follow,
        ordered by (domain time, emission order). Spans preceding events
        means a consumer — :meth:`adopt_records`, the timeline builder —
        always sees an event's parent span before the event itself.
        """
        ordered = sorted(self._finished, key=lambda s: (s.start, s.span_id))
        out: list[dict[str, object]] = [span.to_record() for span in ordered]
        for event in sorted(
            self._events, key=lambda e: (e.time, e.event_id)
        ):
            out.append(event.to_record())
        return out

    def write_jsonl(self, path: str | Path) -> Path:
        """Write a standalone trace file (meta header + span records)."""
        return write_records(path, self.records(), open_spans=self.open_spans)


def write_records(
    path: str | Path,
    records: list[dict[str, object]],
    *,
    open_spans: int = 0,
) -> Path:
    """Write a JSONL trace: a meta header followed by ``records``."""
    target = Path(path)
    meta: dict[str, object] = {
        "type": "meta",
        "schema": TRACE_SCHEMA_VERSION,
        "records": len(records),
        "open_spans": open_spans,
    }
    with target.open("w", encoding="utf-8") as fh:
        for record in [meta, *records]:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def read_trace(
    path: str | Path, *, on_error: str = "raise"
) -> list[dict[str, object]]:
    """Parse a JSONL trace file back into its records (meta included).

    A malformed line never leaks a bare ``json.JSONDecodeError``:

    * ``on_error="raise"`` (default) — raise
      :class:`~repro.errors.ObservabilityError` naming the file and the
      1-based line number of the first bad line;
    * ``on_error="skip"`` — drop malformed lines (a warning with the
      skipped count is logged on the ``repro.trace`` logger), so a
      trace truncated by a crashed writer still yields its good prefix.
    """
    if on_error not in ("raise", "skip"):
        raise ObservabilityError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )
    records: list[dict[str, object]] = []
    skipped = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if on_error == "skip":
                    skipped += 1
                    continue
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid trace line: {exc}"
                ) from exc
            if not isinstance(record, dict):
                if on_error == "skip":
                    skipped += 1
                    continue
                raise ObservabilityError(
                    f"{path}:{lineno}: trace record is not an object"
                )
            records.append(record)
    if skipped:
        get_logger("trace").warning(
            "skipped %d malformed line(s) while reading %s", skipped, path
        )
    return records
