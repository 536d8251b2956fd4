"""Import paths for the benchmark's tests: the benchmark modules, the
gradshade sources and the repository's test oracles.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
