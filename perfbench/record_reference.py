"""Record the du-dims reference values: DU and ascent sweeps of every pool
channel, as du(ch) computes them with its defaults.

    python3 perfbench/record_reference.py

Rewrites perfbench/du_reference.json. Run it only at the commit whose
values the benchmark holds later commits to: a later du() that returns
less than a recorded value on the same channel fails the du-dims check.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.prepare_environment()
    import workloads
    from unitarity import du

    values = {}
    for n, size in workloads.DU_POOL.items():
        rows = []
        for i in range(size):
            result, _ = du(workloads.pool_channel(n, i))
            if not result.converged:
                print(f"n={n} channel {i}: ascent did not converge", file=sys.stderr)
            rows.append([result.value, result.iterations])
        values[str(n)] = rows
        print(f"n={n}: {len(rows)} channels", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"values": values}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
