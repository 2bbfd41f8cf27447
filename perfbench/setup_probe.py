"""Set up one workload in a fresh process, for the setup_s metric.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports the library, parses the workload config, generates the SBM and
normalizes its adjacency (the verify workload builds its first gradcheck
battery instead), then prints "ready". run.py times a spawn up to that line.
"""

import sys

from workloads import WORKLOADS, import_ingsl


def main(name: str, seed: int) -> None:
    w = WORKLOADS[name]
    mods = import_ingsl()
    cli = mods["cli"]
    if w.training:
        g = cli.resolve_dataset(cli.parse_config(w.config(seed)))
        mods["graph"].normalize_adjacency(g)
    else:
        cli.default_battery(100 * seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
