"""Set-up cost in a fresh interpreter: import hexnet, load the shipped config,
build the first AnalyticEngine.  Prints one JSON object of seconds.

Run from the repository root: ``python3 hexbench/setup_probe.py``.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import hexnet  # noqa: E402

t1 = time.perf_counter()
cfg = hexnet.default_config()
t2 = time.perf_counter()
hexnet.AnalyticEngine(cfg)
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0,
                  "load_s": t2 - t1, "init_s": t3 - t2}))
