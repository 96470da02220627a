#!/usr/bin/env python3
"""Held-out-seed check: a seed not used while the benchmark was written
must give the same correctness verdict and the same exact counts as a
development seed.

    python3 perfbench/check_heldout.py

Runs the traced benchmark (`--trace 1`) of every workload on the
development seed 1 and the held-out seed 20261017, and compares every
metric that is an exact, seed-independent count for that workload. Exits
non-zero on any difference.
"""

import json
import subprocess
import sys

DEV_SEED = 1
HELDOUT_SEED = 20261017
SECONDS = 5

KERNELS = [f"kernel.{k}" for k in ("ntt_passes", "base_conv_passes", "automorph_passes",
                                    "mult_passes", "rotations", "hint_regen", "bytes_computed")]

# Counts fixed by the workload's shape, not its seeded values.
EXACT = {
    "deep-boot": ["boot.bootstraps_per_job", "runtime.peak_live_cts"] + KERNELS,
    "lola-infer": ["compiler.program_ops", "compiler.rotations", "compiler.rotation_keys",
                   "compiler.predicted_peak_live", "runtime.peak_live_cts"] + KERNELS,
    # The seed picks each job's light tenant, input and rotation steps;
    # the class pattern (every fourth job heavy) and the two light
    # tenants' shapes are fixed, so job counts, blob sizes, checkpoints
    # and kernel totals are not.
    "serve-mix": ["server.jobs_failed", "server.retries_spent", "server.jobs_shed",
                  "runtime.checkpoints_written", "runtime.checkpoint_bytes",
                  "ckks.key_blob_bytes", "ckks.ct_blob_bytes"] + KERNELS,
    "sim-suite": [f"core.{m}.{b}" for m in ("sim_ms", "macro_ops")
                  for b in ("resnet20", "logreg", "lstm", "packed_boot", "unpacked_boot",
                            "lola_cifar_uw", "lola_mnist_uw", "lola_mnist_ew")],
}


def run(workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output (exit {out.returncode})")
    return json.loads(lines[-1])


def main():
    ok = True
    for w, exact in EXACT.items():
        dev, held = run(w, DEV_SEED), run(w, HELDOUT_SEED)
        verdict = dev["correct"] and held["correct"] and dev["failed"] == held["failed"] == 0
        diffs = [(m, dev["metrics"][m]["value"], held["metrics"][m]["value"])
                 for m in exact if dev["metrics"][m]["value"] != held["metrics"][m]["value"]]
        print(f"{w}: verdict {'same' if verdict else 'DIFFERENT'} "
              f"(correct {dev['correct']}/{held['correct']}), "
              f"{len(exact) - len(diffs)}/{len(exact)} exact counts equal")
        for m, a, b in diffs:
            print(f"  {m}: seed {DEV_SEED} -> {a}, seed {HELDOUT_SEED} -> {b}")
        ok &= verdict and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
