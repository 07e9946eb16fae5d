"""End-to-end tracing and structured telemetry for the whole stack.

``repro.obs`` is the stdlib-only observability subsystem: spans with
trace/parent identity that survive thread pools, process forks and HTTP hops
(:mod:`~repro.obs.trace`), a rotation-safe JSONL event journal with typed
events for trials, claims, store writes, jobs and contained errors
(:mod:`~repro.obs.events`), opt-in timer/cProfile hooks on the hot paths
(:mod:`~repro.obs.profiler`), and an offline report —
``python -m repro.obs report <journal-or-dir>`` — that reconstructs trace
trees, the critical path, per-phase rollups, crash taxonomies and per-worker
fleet lanes (:mod:`~repro.obs.report`).

Tracing is **off by default** and costs near zero when off: every call site
goes through the module-level helpers here, which hand out the process
tracer, a no-op unless the environment opts in.  Enable it with::

    import repro.obs as obs
    obs.configure("/tmp/obs-journal")       # sets REPRO_OBS_DIR/_ENABLED
    with obs.span("my-build") as root:
        ...                                  # everything beneath is traced

Configuration travels through environment variables (``REPRO_OBS_DIR``,
``REPRO_OBS_ENABLED``, ``REPRO_OBS_PROFILE``, ``REPRO_TRACE``).  The process
reads them once, at import; :func:`configure` and :func:`disable` set them and
replace the process tracer.  Forked fleet and pool workers inherit the
tracer, and spawned processes read the variables they inherit.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from .events import EventJournal, count_by_type, read_events
from .trace import (
    ENV_TRACE,
    NOOP_SPAN,
    TRACE_HEADER,
    NoopSpan,
    Span,
    SpanContext,
    Tracer,
    attach,
    current_context,
    current_span,
    parse_header,
)

__all__ = [
    "ENV_DIR",
    "ENV_ENABLED",
    "ENV_PROFILE",
    "ENV_TRACE",
    "TRACE_HEADER",
    "EventJournal",
    "NoopSpan",
    "NOOP_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "attach",
    "attach_header",
    "configure",
    "current_context",
    "current_span",
    "disable",
    "emit",
    "enabled",
    "error_event",
    "event_counts",
    "journal_dir",
    "parse_header",
    "propagation_env",
    "read_events",
    "span",
    "trace_header",
    "tracer",
]

ENV_DIR = "REPRO_OBS_DIR"
ENV_ENABLED = "REPRO_OBS_ENABLED"
ENV_PROFILE = "REPRO_OBS_PROFILE"


def _from_environment() -> Tracer:
    """The tracer the obs environment variables describe."""
    directory = os.environ.get(ENV_DIR)
    return Tracer(
        journal=EventJournal(directory) if directory else None,
        enabled=os.environ.get(ENV_ENABLED) == "1",
        profile=os.environ.get(ENV_PROFILE) == "1",
    )


_TRACER = _from_environment()


def tracer() -> Tracer:
    """The process-wide tracer; :func:`configure` and :func:`disable` replace it."""
    return _TRACER


def _replace(new: Tracer) -> Tracer:
    """Install ``new`` as the process tracer and close the journal it replaces."""
    global _TRACER
    old, _TRACER = _TRACER, new
    if old.journal is not None:
        old.journal.close()
    return new


def configure(
    journal_dir: str | Path, *, enabled: bool = True, profile: bool = False
) -> Tracer:
    """Turn tracing on (or off) for this process and every child it starts."""
    os.environ[ENV_DIR] = str(journal_dir)
    os.environ[ENV_ENABLED] = "1" if enabled else "0"
    if profile:
        os.environ[ENV_PROFILE] = "1"
    else:
        os.environ.pop(ENV_PROFILE, None)
    return _replace(_from_environment())


def disable() -> None:
    """Fully reset obs: tracing off, env cleared (test isolation helper)."""
    for name in (ENV_DIR, ENV_ENABLED, ENV_PROFILE, ENV_TRACE):
        os.environ.pop(name, None)
    _replace(Tracer())


def enabled() -> bool:
    return tracer().enabled


def journal_dir() -> Path | None:
    return tracer().journal_dir


def span(
    name: str,
    parent: SpanContext | Span | None = None,
    attrs: dict[str, Any] | None = None,
):
    """Open a span on the process tracer (NOOP when tracing is off)."""
    return tracer().span(name, parent=parent, attrs=attrs)


def emit(event_type: str, **fields: Any) -> None:
    """Write one typed event through the process tracer (no-op when off)."""
    tracer().emit(event_type, **fields)


def error_event(site: str, exc: BaseException) -> None:
    """Record a contained exception as a structured ``error`` event.

    This is the satellite contract for every ``except Exception`` swallow
    site in the codebase: containment stays, but the failure becomes
    countable.  Never raises — not even during interpreter teardown.
    """
    try:
        tr = tracer()
        if not tr.enabled:
            return
        tr.emit(
            "error",
            site=site,
            exc_class=type(exc).__name__,
            message=str(exc)[:200],
        )
    except Exception:
        pass


def trace_header() -> str | None:
    """``X-Repro-Trace`` value for the active span, or None outside a trace."""
    context = current_context()
    return context.header() if context is not None else None


def attach_header(value: str | None):
    """Attach an incoming trace header (server side of an HTTP hop)."""
    return attach(parse_header(value))


def propagation_env() -> dict[str, str]:
    """Env vars that extend the current trace into a spawned process."""
    env: dict[str, str] = {}
    for name in (ENV_DIR, ENV_ENABLED, ENV_PROFILE):
        value = os.environ.get(name)
        if value is not None:
            env[name] = value
    header = trace_header()
    if header is not None:
        env[ENV_TRACE] = header
    return env


def event_counts(path: str | Path | None = None) -> dict[str, int]:
    """Counts by event type over a journal (defaults to the active one)."""
    target = Path(path) if path is not None else journal_dir()
    if target is None:
        return {}
    return count_by_type(read_events(target))
