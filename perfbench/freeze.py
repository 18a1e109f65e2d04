"""Record the reference values that the output checks compare against.

Run once from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/freeze.py

It runs one pass of ``certify`` and ``tomography`` on the inputs of pass
0 at the default seed, with the frozen comparisons off, and writes
perfbench/frozen.json:

* certify, default seed: (eof_lb, negativity_lb, incompatibility_lb)
  for every quantify pair, compared to within 1e-8;
* certify, any seed: s_alpha along each interplay trajectory (the
  interplay configs do not depend on the seed); later values must not
  fall below these by more than 1e-9, since each point is a maximum;
* tomography, default seed: final_likelihood of the fit, which must
  not rise above it by more than a factor 1 + 1e-6.
"""

import json
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    frozen = {}

    certify = workloads.build("certify", workloads.DEFAULT_SEED,
                              run.WORK / "freeze-certify", None)
    result = run.run_pass(certify, False, env)
    if not result.ok:
        print(f"certify failed: {result.failures}", file=sys.stderr)
        return 1
    bounds = [[r["eof_lb"], r["negativity_lb"], r["incompatibility_lb"]]
              for r in result.values["quantify"]]
    frozen["certify"] = {
        "default_seed": {"quantify": bounds},
        "any_seed": {name: value for name, value in result.values.items()
                     if name.startswith("interplay-")},
    }

    tomography = workloads.build("tomography", workloads.DEFAULT_SEED,
                                 run.WORK / "freeze-tomography", None)
    result = run.run_pass(tomography, False, env)
    if not result.ok:
        print(f"tomography failed: {result.failures}", file=sys.stderr)
        return 1
    frozen["tomography"] = {"default_seed": {
        "tomo": result.values["tomo"]["final_likelihood"]}}

    with open(run.BENCH_DIR / "frozen.json", "w") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
