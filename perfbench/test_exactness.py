#!/usr/bin/env python3
"""Exactness self-test of the repo benchmark.

    python3 perfbench/test_exactness.py

For each workload, runs a short traced run twice with one seed and
requires every simulated metric and per-layer count to be bit-identical
between the two runs. Then runs a second seed and requires the
simulated metrics and counts to differ, which proves the seed reaches
the workload generator. Host-time fields are excluded: they are noisy by
nature. Exits non-zero on any failure.
"""

import json
import subprocess
import sys

import run

WORKLOADS = ["kv_zipf_get", "kv_uniform_put", "fabric_scan"]
SHORT = ["--seconds", "0", "--trace", "1", "--rounds", "2", "--ops", "3000"]
# Host-side fields: wall time, samples and allocation counts.
HOST = ("host", "setup_s", "peak_rss_mb", "sim.host_ns_per_event",
        "trace.overhead_pct", "rounds", "profile_samples")


def simulated(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed)] + SHORT,
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("%s seed %d failed (exit %d): %s" %
                 (workload, seed, out.returncode, out.stderr.strip()))
    report = json.loads(lines[-2])["report"]
    fields = {}
    for group in ("end_to_end", "extra", "per_layer"):
        for name, m in report[group].items():
            if not name.startswith(HOST):
                fields[name] = m["value"]
    return fields


def main():
    binary = run.build()
    if binary is None:
        return 1
    failures = 0
    for w in WORKLOADS:
        a = simulated(binary, w, 1)
        b = simulated(binary, w, 1)
        c = simulated(binary, w, 2)
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff or a.keys() != b.keys():
            failures += 1
            print("FAIL %s: same seed, different results: %s" % (w, diff))
        moved = [k for k in a if a[k] != c.get(k)]
        if "sim_mean_us" not in moved or "sim.events_per_op" not in moved:
            failures += 1
            print("FAIL %s: seed 2 reproduced seed 1 (moved: %s)" %
                  (w, moved))
        else:
            print("ok   %s: %d fields identical across runs, %d moved "
                  "with the seed" % (w, len(a), len(moved)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
