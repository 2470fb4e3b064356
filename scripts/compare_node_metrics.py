#!/usr/bin/env python3
"""Compare two aar_node metrics snapshots modulo shard attribution.

Usage: compare_node_metrics.py A.json B.json

The sharded daemon's aggregate metrics must be identical for any --threads
value on the same lockstep workload (docs/NODE.md).  Two things legitimately
differ between snapshots and are scrubbed before comparing:

  * timers — wall-clock time, the one non-deterministic thing in a snapshot
    (same exclusion the seeded-fault replay gates use); this covers the
    mining-hub merge timer node.merge and the keepalive round-trip timer
    node.peer.rtt, while the node.peer.* counters stay compared like every
    other aggregate;
  * the per-shard node.shard.<i>.* family — WHICH shard handled a frame
    depends on the connection-to-shard pinning, so per-shard attribution
    varies with --threads even though every aggregate is invariant.

Exits 0 when the scrubbed snapshots are equal; prints the first divergence
and exits 1 otherwise.
"""

import json
import sys


def scrubbed(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["timers"] = {}
    for section in ("counters", "gauges"):
        doc[section] = {
            name: value
            for name, value in doc.get(section, {}).items()
            if not name.startswith("node.shard.")
        }
    return doc


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = scrubbed(sys.argv[1]), scrubbed(sys.argv[2])
    if a == b:
        print(f"ok   {sys.argv[1]} == {sys.argv[2]} (timers and "
              "node.shard.* scrubbed)")
        return 0
    for section in sorted(set(a) | set(b)):
        if a.get(section) == b.get(section):
            continue
        sa, sb = a.get(section, {}), b.get(section, {})
        if not isinstance(sa, dict) or not isinstance(sb, dict):
            print(f"FAIL {section}: {sa!r} != {sb!r}")
            continue
        for name in sorted(set(sa) | set(sb)):
            if sa.get(name) != sb.get(name):
                print(f"FAIL {section}.{name}: "
                      f"{sa.get(name)!r} != {sb.get(name)!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
