"""Time the set-up a fresh CLI process pays before its first op.

Usage: ``python3 perfbench/setup_probe.py SRC_DIR CONFIG...``. Imports
``layerfield.cli`` from SRC_DIR, parses each config, and prints the
elapsed seconds.
"""

import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])

from layerfield import cli  # noqa: E402

for config in sys.argv[2:]:
    cli.parse_config(Path(config).read_text())
print(repr(perf_counter() - start))
