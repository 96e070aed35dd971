#!/usr/bin/env python3
"""Compare two benchmark records of one workload and seed.

    python3 noisebench/compare.py OLD.json NEW.json

Records are the ``noisebench/out/<workload>-seed<n>-trace<t>.json``
files ``run.py`` writes.  Checksums and counts are always compared:
a mismatch means the two runs computed different results, and the
exit code is 1.  Timings are compared only when the host fingerprints
agree (CPU count, BLAS, numpy, scipy, Python, thread settings); the
git revision may differ, since comparing revisions is the point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import host


def compare(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Human-readable comparison lines; problems start with ``MISMATCH``."""
    lines = []
    for key in ("workload", "seed", "trace", "tiny"):
        if old.get(key) != new.get(key):
            lines.append(f"MISMATCH {key}: {old.get(key)} vs {new.get(key)}")
            return lines
    if old["checksum"] != new["checksum"]:
        lines.append(f"MISMATCH checksum: {old['checksum'][:16]} vs "
                     f"{new['checksum'][:16]}")
    for name in sorted(set(old["counts"]) | set(new["counts"])):
        a, b = old["counts"].get(name), new["counts"].get(name)
        if a != b:
            lines.append(f"MISMATCH count {name}: {a} vs {b}")
    same_host = (host.timing_key(old["fingerprint"])
                 == host.timing_key(new["fingerprint"]))
    if not same_host:
        lines.append("timings not compared: host fingerprints differ")
        return lines
    for name, value in old["metrics"].items():
        if name in old["counts"]:
            continue
        other = new["metrics"].get(name)
        if other is None:
            continue
        change = (other / value - 1.0) if value else 0.0
        lines.append(f"{name:<32} {value:>12.6g} -> {other:>12.6g} "
                     f"({change:+.1%})")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    lines = compare(old, new)
    print("\n".join(lines))
    return 1 if any(line.startswith("MISMATCH") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
