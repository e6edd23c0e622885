#!/usr/bin/env python3
"""Check the last line of a perfbench run.

    python3 tools/result_line.py LINE

Exits 0 when LINE is strict JSON (no NaN or Infinity) reporting
"correct": true and "failed": 0, and 1 otherwise.
"""

import json
import sys


def strict_json(line):
    """json.loads that rejects the non-finite constants NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-finite constant {name}")
    return json.loads(line, parse_constant=reject)


def main(line):
    try:
        result = strict_json(line)
    except ValueError as exc:
        sys.exit(f"not a strict JSON result line ({exc}): {line[:200]}")
    if not (isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0):
        sys.exit(f"result line is not correct with 0 failed: {line[:200]}")


if __name__ == "__main__":
    main(sys.argv[1])
