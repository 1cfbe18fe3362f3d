"""Start a ``repro.cli`` verb with the layer wrappers installed.

``python -m perf.launch --trace-out FILE serve --store ...`` keeps the
fleet's process shape under tracing: the wrappers are installed before
``repro.cli.main`` builds anything, and the process dumps its aggregates and
spans to FILE when the verb returns or is interrupted.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import repro.cli

    tracer = trace.install()
    try:
        return repro.cli.main(args.cli_args)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
