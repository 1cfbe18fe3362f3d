"""Benchmark-suite configuration.

The default ``Session``'s per-run cache is shared across benchmark modules
within a pytest session (runs are keyed by configuration + seed digest), which
keeps pytest-benchmark from repeating the expensive baseline simulations more
than once per benchmark.
"""

import sys
from pathlib import Path

# Make the sibling _shared module importable when pytest's rootdir differs.
sys.path.insert(0, str(Path(__file__).parent))
