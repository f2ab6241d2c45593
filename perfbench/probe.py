"""Fresh-process set-up probe for the benchmark.

    python probe.py '{"imports": [module, ...],
                      "requests": [[family, d, grid, coeffs], ...]}'

Imports the named modules, makes one certificate per request, prints
"ready", then prints the certificate texts as one JSON list so the caller
can compare them with its own certificates for the same inputs.
"""

import importlib
import json
import sys

spec = json.loads(sys.argv[1])
for name in spec["imports"]:
    importlib.import_module(name)
texts = []
if spec["requests"]:
    from workloads import Request, certify

    texts = [certify(Request(f, d, g, tuple(c), "")) for f, d, g, c
             in spec["requests"]]
print("ready", flush=True)
print(json.dumps(texts))
