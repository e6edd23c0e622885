#!/usr/bin/env python3
"""Check the last line of a perfbench run.

    python3 tools/result_line.py LINE

Exits 0 when LINE is strict JSON (no NaN or Infinity) reporting
"correct": true and "failed": 0, with a metric for every name that
BENCHMARK.json lists: its per_layer names when the line holds any of
them (a traced run), else its end_to_end names.  Exits 1 otherwise.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def strict_json(line):
    """json.loads that rejects the non-finite constants NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-finite constant {name}")
    return json.loads(line, parse_constant=reject)


def missing_metrics(metrics):
    """Names the result's metrics lack, from the set its names select."""
    with open(BENCHMARK) as f:
        bench = json.load(f)
    traced = [m["name"] for m in bench["per_layer"]]
    wanted = traced if any(name in metrics for name in traced) else [m["name"] for m in bench["end_to_end"]]
    return [name for name in wanted if name not in metrics]


def main(line):
    try:
        result = strict_json(line)
    except ValueError as exc:
        sys.exit(f"not a strict JSON result line ({exc}): {line[:200]}")
    if not (isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0):
        sys.exit(f"result line is not correct with 0 failed: {line[:200]}")
    metrics = result.get("metrics")
    missing = missing_metrics(metrics) if isinstance(metrics, dict) else ["metrics"]
    if missing:
        sys.exit(f"result line lacks {len(missing)} metrics ({', '.join(missing[:5])}): {line[:200]}")


if __name__ == "__main__":
    main(sys.argv[1])
