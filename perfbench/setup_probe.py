"""Set-up a user pays on every run: import lecam_equiv, parse the configs.

Usage: python3 perfbench/setup_probe.py CONFIG.ini [CONFIG.ini ...]
Prints {"import_s": ..., "parse_config_s": ...} as one JSON line.
"""

import json
import sys
import time

start = time.perf_counter()
import lecam_equiv  # noqa: E402,F401
from lecam_equiv.harness import parse_config  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    parse_config(path)
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_config_s": parsed - imported}))
