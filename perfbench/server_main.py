"""Launch the SDH service for the service-mixed workload.

    python3 perfbench/server_main.py [--spans PATH]

Serves on a free localhost port with two worker threads and prints
``port <n>`` once listening.  It then reads one command per line on
stdin and answers each with ``ok``.  With ``--spans``, ``trace`` wraps
every layer entry point (``layers.py``) and ``untrace`` unwraps them;
the spans of all traced periods are written to PATH at shutdown.
``quit`` or end of file shuts the server down.
"""

from __future__ import annotations

import argparse
import sys

import layers
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="allow tracing; write the spans here")
    args = parser.parse_args()
    from repro.service import SDHService, ServiceConfig

    service = SDHService(
        ServiceConfig(
            max_workers=2, max_queue=8, timeout=120.0, result_cache_capacity=4096
        )
    ).start()
    print(f"port {service.address[1]}", flush=True)
    tracer = Tracer() if args.spans else None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if tracer is not None and command == "trace":
                layers.install(tracer, service=True)
            elif tracer is not None and command == "untrace":
                tracer.uninstall()
            print("ok", flush=True)
    finally:
        service.shutdown()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
