"""Regenerate ``digests.json``: the output digests at ``--seed 0``.

Run it only when a change is meant to alter simulation results::

    python3 perfbench/pin.py

Each workload's digests come from one pass of ``one_pass.py`` in a fresh
interpreter, exactly as ``run.py`` runs its passes.
"""

from __future__ import annotations

import json

from run import PINNED, WORKLOAD_NAMES, compile_bytecode, start_pass

SEED = 0


def main() -> None:
    compile_bytecode()
    pinned = {name: start_pass(name, SEED)[1]["digests"]
              for name in WORKLOAD_NAMES}
    with open(PINNED, "w") as handle:
        json.dump({"seed": SEED, "workloads": pinned}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
