"""``repro-ebcp serve`` with the benchmark's spans installed (traced runs).

Usage: ``python3 perfbench/serve_traced.py SPAN_DIR serve [serve flags]``.
The shards fork from this process and inherit the wrappers; each
process appends its spans to ``SPAN_DIR`` once it has drained.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    import probes
    from repro.cli import main as cli_main

    probes.install(sys.argv[1])
    try:
        return cli_main(sys.argv[2:])
    finally:
        probes.flush()


if __name__ == "__main__":
    sys.exit(main())
