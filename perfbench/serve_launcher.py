"""Start ``python -m repro.service`` with the benchmark's span wrappers.

    python3 perfbench/serve_launcher.py --trace 0|1 --spans FILE serve ...

Everything after the launcher's own options goes to the service CLI
unchanged.  With ``--trace 1`` the layers' entry points are wrapped before
the CLI starts, and the spans are written to ``FILE`` when the server stops.
SIGTERM stops it the way Ctrl-C does, whatever signal dispositions the
launcher inherited.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402


def _interrupt(*_) -> None:
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, required=True)
    args, service_argv = parser.parse_known_args()

    from repro.service.__main__ import main as service_main

    signal.signal(signal.SIGTERM, _interrupt)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, inputs.SERVE_CATALOGUE)
    code = service_main(service_argv)
    if tracer is not None:
        args.spans.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
