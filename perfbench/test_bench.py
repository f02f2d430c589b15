#!/usr/bin/env python3
"""Self-test of the handshake benchmark.

    python3 perfbench/test_bench.py [--seed N]

Run from the repository root.  Runs every workload's traced pass twice at
one seed and checks that

  * every run reports correct outputs and no failed operation;
  * the counts of the counted prefix repeat exactly (they are a pure
    function of the seed);
  * so do the untraced pass's wire bytes per party and complete fraction;
  * the layer predictions hold: m(m-1) group-signature verifications per
    clean handshake and none on the two-phase workload, the engine's
    scheduling share larger on 2phase-m8-loss than on s1-m4, and on
    s2-churn both the CRL and the verification time rising across an
    epoch.

Exits non-zero on the first failed check.  Takes a few minutes.
"""

import argparse
import json
import subprocess
import sys

EXACT = [
    "bigint.mul_per_hs", "bigint.pow_mod_per_hs", "bigint.limb_words_per_hs",
    "session_fail_frac", "gsig.verify_per_hs",
    "gcd.retransmissions_per_hs", "gcd.rejected_per_hs", "dgka.msgs_per_hs",
    "net.messages_per_hs", "net.deliveries_per_hs", "net.dropped_per_hs",
    "sim.events_per_hs", "gcd.seats_complete", "gcd.seats_partial",
    "gcd.seats_aborted", "engine.flow_latency_sim_p95",
]
M = {"s1-m4": 4, "2phase-m8-loss": 8, "s2-churn": 4}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    traced = {}
    for w, m in M.items():
        (r1, a), (r2, b) = run(w, seed, 1), run(w, seed, 1)
        for r in (r1, r2):
            check(r["correct"] and r["failed"] == 0, f"{w}: outputs correct")
        for k in EXACT:
            check(a[k] == b[k], f"{w}: {k} repeats exactly ({a[k]})")
        (_, c), (_, d) = run(w, seed, 0), run(w, seed, 0)
        for k in ("wire_bytes_per_party", "session_complete_frac"):
            check(c[k] == d[k], f"{w}: {k} repeats exactly ({c[k]})")
        verifies = 0 if w == "2phase-m8-loss" else m * (m - 1)
        check(a["gsig.verify_per_hs"] == verifies,
              f"{w}: {verifies} verifications per handshake")
        traced[w] = a
    check(traced["2phase-m8-loss"]["engine.sched_frac"]
          > traced["s1-m4"]["engine.sched_frac"],
          "engine scheduling share larger on 2phase-m8-loss than on s1-m4")
    churn = traced["s2-churn"]
    check(churn["gsig.crl_len"] > churn["gsig.crl_len_first"],
          "s2-churn: CRL grows across an epoch")
    check(churn["gsig.verify_ms_p50_last"] > churn["gsig.verify_ms_p50_first"],
          "s2-churn: verification slows as the CRL grows")


if __name__ == "__main__":
    main()
