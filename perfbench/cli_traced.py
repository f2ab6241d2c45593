"""Run `covwit <args>` in this process with span tracing.

    python cli_traced.py <spans.json> certify ...

Writes the span aggregates to spans.json and exits with the CLI's code.
"""

import json
import sys

import covwit.cli
import spans

tracer = spans.Tracer().install()
code = covwit.cli.main(sys.argv[2:])
tracer.uninstall()
with open(sys.argv[1], "w") as fh:
    json.dump(tracer.as_dict(), fh)
sys.exit(code)
