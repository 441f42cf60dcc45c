"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/daemon_launcher.py TRACE_DIR serve --unix PATH``.
The wrappers go in before the daemon imports anything else; the spans
are written once the daemon has drained and returned.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    import spans

    tracer = spans.install(sys.argv[1], "daemon")
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
