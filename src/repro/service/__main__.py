"""Command-line entry point: ``python -m repro.service``.

``serve`` boots the HTTP/JSON front end over a registry directory —
single-process by default, a pre-forked multi-process pool with
``--workers N``; ``models`` prints the registry listing without starting
a server; ``export`` compiles one model version's decision model to
dependency-free artifacts next to its version directory; ``store-serve``
boots the shared result-store server that cross-host fleet workers write
their knowledge through.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from ..execution.store import ResultStore
from .http import RecommendationService, make_http_server
from .pool import ServicePool
from .registry import ModelRegistry, default_registry_root
from .store_server import StoreService, make_store_server

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Auto-Model recommendation-serving subsystem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="boot the HTTP/JSON recommendation server")
    serve.add_argument(
        "--registry",
        default=None,
        help=f"model registry directory (default: {default_registry_root()})",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    serve.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    serve.add_argument("--fit-workers", type=int, default=1, dest="fit_workers")
    serve.add_argument(
        "--no-batching", action="store_true", help="serve each request inline"
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 boots a pre-forked ServicePool",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None, dest="max_queue_depth",
        help="admission control: pending /recommend bound (unset = unbounded)",
    )
    serve.add_argument(
        "--max-queue-delay-ms", type=float, default=None, dest="max_queue_delay_ms",
        help="admission control: shed requests older than this before serving",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )

    models = sub.add_parser("models", help="print the registry listing as JSON")
    models.add_argument("--registry", default=None)

    export = sub.add_parser(
        "export",
        help="compile one model version's decision model to dependency-free "
        "artifacts next to the version directory",
    )
    export.add_argument("name", help="registry model name")
    export.add_argument(
        "--version", default=None, help="version to export (default: current)"
    )
    export.add_argument("--registry", default=None)

    store = sub.add_parser(
        "store-serve", help="serve a shared result store over HTTP for fleet writers"
    )
    store.add_argument("--root", required=True, help="store directory on this host")
    store.add_argument(
        "--backend", choices=("jsonl", "sqlite"), default="sqlite",
        help="local substrate behind the served store",
    )
    store.add_argument("--host", default="127.0.0.1")
    store.add_argument(
        "--port", type=int, default=8081, help="0 binds an ephemeral port"
    )
    store.add_argument(
        "--max-inflight", type=int, default=None, dest="max_inflight",
        help="admission control: concurrent request bound (unset = unbounded)",
    )
    store.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    return parser


def _store_serve(args: argparse.Namespace) -> int:
    store = ResultStore(args.root, backend=args.backend)
    service = StoreService(store, max_inflight=args.max_inflight)
    server = make_store_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[0], server.server_address[1]
    # The smoke tests parse this line to discover an ephemeral port.
    print(f"repro-store listening on http://{host}:{port} "
          f"(root: {args.root}, backend: {args.backend})", flush=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "store-serve":
        return _store_serve(args)
    registry_root = args.registry if args.registry is not None else default_registry_root()

    if args.command == "models":
        registry = ModelRegistry(registry_root)
        print(json.dumps({"registry": str(registry.root), "models": registry.describe()}, indent=2))
        return 0

    if args.command == "export":
        registry = ModelRegistry(registry_root)
        try:
            info = registry.export(args.name, args.version)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(info, indent=2))
        return 0

    if args.workers > 1:
        pool = ServicePool(
            registry_root,
            host=args.host,
            port=args.port,
            n_workers=args.workers,
            batching=not args.no_batching,
            max_batch_size=args.batch_size,
            fit_workers=args.fit_workers,
            max_queue_depth=args.max_queue_depth,
            max_queue_delay_ms=args.max_queue_delay_ms,
            quiet=not args.verbose,
        )
        pool.start()
        # SIGTERM must tear the whole pool down, not orphan the workers.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
        # The smoke tests parse this line to discover an ephemeral port.
        print(f"repro-service listening on {pool.url} "
              f"(registry: {registry_root}, workers: {args.workers})", flush=True)
        try:
            while True:
                time.sleep(3600)
        except (KeyboardInterrupt, SystemExit):
            pass
        finally:
            pool.stop()
        return 0

    service = RecommendationService(
        ModelRegistry(registry_root),
        batching=not args.no_batching,
        max_batch_size=args.batch_size,
        fit_workers=args.fit_workers,
        max_queue_depth=args.max_queue_depth,
        max_queue_delay_ms=args.max_queue_delay_ms,
    )
    server = make_http_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[0], server.server_address[1]
    # The smoke tests parse this line to discover an ephemeral port.
    print(f"repro-service listening on http://{host}:{port} "
          f"(registry: {registry_root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
