"""Self-test of the output checks: corrupted outputs must fail them.

Run from the repository root:

    python3 perfbench/selftest.py

One pass of ``sampler`` runs with the outcomes in every simulate
``counts.csv`` flipped (a -> -a) before it is checked, and one pass of
``tomography`` with its ``rho.json`` mixed with white noise.  Each pass
must report failed invocations, i.e. a fail_frac above zero.  Exits 0
when every corruption was caught.
"""

import json
import sys

import numpy as np

import run
import workloads


def flip_outcomes(name, out):
    if not name.endswith("-simulate"):
        return
    path = out / "counts.csv"
    lines = path.read_text().splitlines()
    rows = []
    for line in lines[1:]:
        a, rest = line.split(",", 1)
        rows.append(f"{-int(a)},{rest}")
    path.write_text("\n".join([lines[0], *rows]) + "\n")


def perturb_rho(name, out):
    if name != "tomo":
        return
    path = out / "rho.json"
    payload = json.loads(path.read_text())
    rho = np.array([[complex(re, im) for re, im in row] for row in payload["rho"]])
    rho = 0.9 * rho + 0.1 * np.eye(4) / 4
    payload["rho"] = [[[v.real, v.imag] for v in row] for row in rho]
    path.write_text(json.dumps(payload))


def main() -> int:
    env = run.child_env()
    caught = True
    for name, corrupt, expected in (
            ("sampler", flip_outcomes, {"dibinary-simulate", "postsel-simulate"}),
            ("tomography", perturb_rho, {"tomo"})):
        workload = workloads.build(name, workloads.DEFAULT_SEED,
                                   run.WORK / f"selftest-{name}", None)
        result = run.run_pass(workload, False, env, corrupt=corrupt)
        frac = len(result.failures) / result.attempted
        print(f"{name}: {corrupt.__name__} -> fail_frac {frac:.3f} "
              f"({len(result.failures)} of {result.attempted})")
        for inv, why in result.failures.items():
            print(f"   {inv}: {why}")
        if set(result.failures) != expected:
            print(f"   expected exactly {sorted(expected)} to fail")
            caught = False
    print("self-test " + ("passed" if caught else "FAILED"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
