"""Put the benchmark modules and the checkout's covbound source on the path.

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
