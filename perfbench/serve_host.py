"""Host one single-process analysis daemon for the ``serve-mixed`` workload.

Started by ``serve_mixed.py`` as a process of its own::

    python3 perfbench/serve_host.py --src src --store-dir DIR --max-sessions N

Prints ``PORT <n>`` once the daemon listens, serves until its standard
input closes, then prints ``PEAK_RSS_KB <n>`` and exits.
"""

from __future__ import annotations

import argparse
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--max-sessions", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.core.config import ICPConfig
    from repro.serve import create_server

    config = ICPConfig.from_dict(
        {
            "store_dir": args.store_dir,
            "serve_port": 0,
            "serve_max_sessions": args.max_sessions,
        }
    )
    server = create_server(config)
    _, port = server.start()
    print(f"PORT {port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"PEAK_RSS_KB {peak_kb}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
