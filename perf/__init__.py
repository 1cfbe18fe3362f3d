"""The repository's benchmark: five workloads, end-to-end metrics, per-layer trace.

See ``perf/README.md``.  Everything here drives ``repro`` through its public
surface only; nothing under ``src/`` imports this package.
"""

import sys
from pathlib import Path

#: ``repro`` is a src-layout package that is not installed in the benchmark
#: checkout, so every entry point of this package needs ``src`` importable.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
