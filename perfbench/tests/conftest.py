"""Put the simulator sources and the benchmark's modules on the path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
