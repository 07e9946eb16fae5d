"""Pre-forked multi-process worker pool — the scale-out tier of serving.

A single :class:`~repro.service.http.ServiceServer` is a
``ThreadingHTTPServer``: plenty of concurrency for I/O, but every request
body is parsed and every model scored under one CPython GIL.
:class:`ServicePool` breaks that ceiling the classic Unix way — fork N
worker processes that all accept on the same address, each running the
full service stack (registry snapshot, dispatcher with admission control,
fit-job queue, metrics recorder) over the same registry directory.

Socket sharing comes in two flavours, picked automatically:

* ``SO_REUSEPORT`` (Linux/BSD): the parent binds the address *without
  listening* — reserving the port and resolving ``port=0`` — and every
  worker binds its own ``SO_REUSEPORT`` socket and listens.  The kernel
  hashes incoming connections across the listening sockets, so accepts
  never contend on a shared lock and a worker's backlog is its own.
* fork-after-bind fallback: the parent binds *and listens*, and each
  forked worker accepts on the inherited file descriptor (``fork`` shares
  descriptors regardless of the close-on-exec flag because there is no
  ``exec``).  The kernel wakes one worker per connection.

Cross-process coordination is deliberately file-based, mirroring the
registry's own design:

* **promote/rollback** — any worker that mutates the registry bumps the
  ``GENERATION`` token file; sibling workers notice on their next lookup
  and drop their caches, so a hot-swap through one worker is visible on
  all of them without IPC (see :mod:`repro.service.registry`).
* **metrics** — each worker periodically flushes its
  :class:`~repro.service.metrics.ServiceMetrics` payload into a shared
  :class:`~repro.service.metrics.MetricsDirectory`; whichever worker
  answers ``GET /metrics`` merges every sibling's flushed payload into
  the pool-wide aggregate.

The parent never serves requests.  It supervises: a background thread
reaps exited workers (``waitpid(WNOHANG)``) and respawns them with
exponential backoff, so a crashed worker costs a blip of capacity, not an
outage.  Worker payload files survive a crash, so requests a dead worker
served stay in the aggregate.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from .. import obs
from .http import RecommendationService, make_http_server
from .metrics import MetricsDirectory

__all__ = ["ServicePool", "reuse_port_supported"]

_READY_BYTE = b"R"


def reuse_port_supported() -> bool:
    """Whether this platform accepts ``SO_REUSEPORT`` on a TCP socket."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


class _WorkerSlot:
    """Bookkeeping for one worker position in the pool."""

    __slots__ = ("index", "pid", "restarts", "backoff", "next_spawn_at")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pid: int | None = None
        self.restarts = 0
        self.backoff = 0.0
        self.next_spawn_at = 0.0


class ServicePool:
    """Pre-forked pool of :class:`RecommendationService` HTTP workers.

    Parameters mirror :class:`RecommendationService` where they overlap;
    the rest shape the pool itself.

    Parameters
    ----------
    registry_path:
        The registry directory every worker serves (each worker opens its
        own :class:`~repro.service.registry.ModelRegistry` over it).
    n_workers:
        Worker processes to keep alive.
    metrics_dir:
        Shared directory for per-worker metrics payloads.  Defaults to a
        temporary directory owned (and removed) by the pool.
    respawn_backoff / max_respawn_backoff:
        Initial and maximum delay before respawning a crashed worker; the
        delay doubles on repeated crashes and resets after a stable run.
    flush_interval:
        Seconds between a worker's background metrics flushes.
    """

    def __init__(
        self,
        registry_path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 2,
        batching: bool = True,
        max_batch_size: int = 32,
        fit_workers: int = 1,
        max_queue_depth: int | None = None,
        max_queue_delay_ms: float | None = None,
        metrics_dir: str | Path | None = None,
        respawn_backoff: float = 0.1,
        max_respawn_backoff: float = 5.0,
        flush_interval: float = 0.25,
        quiet: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX guard
            raise RuntimeError("ServicePool requires os.fork (POSIX only)")
        self.registry_path = Path(registry_path)
        self.host = host
        self.n_workers = int(n_workers)
        self.service_options = {
            "batching": batching,
            "max_batch_size": max_batch_size,
            "fit_workers": fit_workers,
            "max_queue_depth": max_queue_depth,
            "max_queue_delay_ms": max_queue_delay_ms,
        }
        self.respawn_backoff = float(respawn_backoff)
        self.max_respawn_backoff = float(max_respawn_backoff)
        self.flush_interval = float(flush_interval)
        self.quiet = quiet
        self._requested_port = int(port)
        self._owns_metrics_dir = metrics_dir is None
        self._metrics_path = (
            Path(metrics_dir)
            if metrics_dir is not None
            else Path(tempfile.mkdtemp(prefix="repro-metrics-"))
        )
        self.reuse_port = reuse_port_supported()
        self._parent_socket: socket.socket | None = None
        self._slots = [_WorkerSlot(i) for i in range(self.n_workers)]
        self._supervisor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._started = False
        self.port = 0

    # -- lifecycle ---------------------------------------------------------------------
    def start(self, ready_timeout: float = 30.0) -> "ServicePool":
        """Bind, fork all workers, and wait until each accepts connections."""
        if self._started:
            raise RuntimeError("pool already started")
        self._parent_socket = self._bind_parent_socket()
        self.port = self._parent_socket.getsockname()[1]
        self._started = True
        deadline = time.monotonic() + ready_timeout
        for slot in self._slots:
            self._spawn(slot, ready_deadline=deadline)
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def _bind_parent_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port:
            # Reserve the port (and resolve port=0) WITHOUT listening: a
            # bound-but-not-listening socket receives no connections, so
            # the kernel distributes only across the workers' own
            # listening SO_REUSEPORT sockets.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self._requested_port))
        else:
            # Fallback: one listening socket, inherited by every worker.
            sock.bind((self.host, self._requested_port))
            sock.listen(128)
        return sock

    def _spawn(self, slot: _WorkerSlot, ready_deadline: float | None = None) -> None:
        """Fork one worker and wait for its readiness byte."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            try:
                self._worker_main(slot.index, write_fd)
            except BaseException:  # noqa: BLE001 — a worker must never re-enter parent code
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        slot.pid = pid
        timeout = None
        if ready_deadline is not None:
            timeout = max(0.0, ready_deadline - time.monotonic())
        try:
            readable, _, _ = select.select([read_fd], [], [], timeout)
            if not readable or os.read(read_fd, 1) != _READY_BYTE:
                raise RuntimeError(
                    f"worker {slot.index} (pid {pid}) failed to become ready"
                )
        finally:
            os.close(read_fd)

    def _worker_main(self, index: int, ready_fd: int) -> None:
        """Runs in the forked child: serve until SIGTERM, then exit."""
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent handles Ctrl-C
        listen_socket = self._worker_socket()
        worker_id = f"w{index}-{os.getpid()}"
        service = RecommendationService(
            self.registry_path,
            worker_id=worker_id,
            metrics_dir=self._metrics_path,
            **self.service_options,
        )
        server = make_http_server(
            service, quiet=self.quiet, listen_socket=listen_socket
        )
        flusher = threading.Thread(
            target=self._flush_loop, args=(service,), daemon=True
        )
        flusher.start()
        os.write(ready_fd, _READY_BYTE)
        os.close(ready_fd)
        try:
            server.serve_forever(poll_interval=0.1)
        except SystemExit:
            pass
        finally:
            try:
                service.close()  # final metrics flush included
            except Exception as exc:  # noqa: BLE001 — shutting down anyway
                obs.error_event("pool.worker_close", exc)

    def _worker_socket(self) -> socket.socket:
        """The socket a worker accepts on (per-mode, see module docstring)."""
        assert self._parent_socket is not None
        if not self.reuse_port:
            return self._parent_socket  # inherited, already listening
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self.port))
        sock.listen(128)
        return sock

    def _flush_loop(self, service: RecommendationService) -> None:
        while True:
            time.sleep(self.flush_interval)
            try:
                service.flush_metrics()
            except Exception as exc:  # noqa: BLE001 — metrics must never kill a worker
                obs.error_event("pool.flush", exc)

    # -- supervision -------------------------------------------------------------------
    def _supervise(self) -> None:
        """Reap exited workers and respawn them with exponential backoff."""
        while not self._stopping.wait(0.1):
            now = time.monotonic()
            for slot in self._slots:
                if slot.pid is not None and self._reap(slot):
                    slot.restarts += 1
                    slot.backoff = min(
                        self.max_respawn_backoff,
                        self.respawn_backoff * (2 ** min(slot.restarts - 1, 8)),
                    )
                    slot.next_spawn_at = now + slot.backoff
                if slot.pid is None and now >= slot.next_spawn_at:
                    try:
                        self._spawn(slot, ready_deadline=time.monotonic() + 30.0)
                    except Exception as exc:  # noqa: BLE001 — retry on the next tick
                        obs.error_event("pool.spawn", exc)
                        slot.next_spawn_at = time.monotonic() + max(
                            slot.backoff, self.respawn_backoff
                        )
                    else:
                        # A worker that stays up resets the penalty for its slot.
                        slot.next_spawn_at = 0.0

    def _reap(self, slot: _WorkerSlot) -> bool:
        """True if the slot's worker has exited (pid cleared)."""
        try:
            pid, _status = os.waitpid(slot.pid, os.WNOHANG)
        except ChildProcessError:
            slot.pid = None
            return True
        if pid == slot.pid:
            slot.pid = None
            return True
        return False

    # -- shutdown ----------------------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM every worker, escalate to SIGKILL, release the socket."""
        if not self._started:
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for sig in (signal.SIGTERM, signal.SIGKILL):
            deadline = time.monotonic() + (timeout if sig == signal.SIGTERM else 2.0)
            for slot in self._slots:
                if slot.pid is not None:
                    try:
                        os.kill(slot.pid, sig)
                    except ProcessLookupError:
                        slot.pid = None
            while any(s.pid is not None for s in self._slots):
                for slot in self._slots:
                    if slot.pid is not None:
                        self._reap(slot)
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.02)
            if not any(s.pid is not None for s in self._slots):
                break
        if self._parent_socket is not None:
            try:
                self._parent_socket.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._parent_socket = None
        if self._owns_metrics_dir:
            self._remove_metrics_dir()
        self._started = False

    def _remove_metrics_dir(self) -> None:
        try:
            for entry in self._metrics_path.glob("*"):
                entry.unlink(missing_ok=True)
            self._metrics_path.rmdir()
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass

    # -- observability -----------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def worker_pids(self) -> list[int]:
        """Live worker pids (order = slot order; crashed slots omitted)."""
        return [slot.pid for slot in self._slots if slot.pid is not None]

    @property
    def metrics_path(self) -> Path:
        return self._metrics_path

    def aggregate_metrics(self) -> list[dict]:
        """The raw flushed per-worker payloads (parent-side convenience)."""
        return MetricsDirectory(self._metrics_path).read_all()

    def __enter__(self) -> "ServicePool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "reuseport" if self.reuse_port else "fork-after-bind"
        return (
            f"ServicePool(url={self.url!r}, workers={len(self.worker_pids)}/"
            f"{self.n_workers}, mode={mode})"
        )
