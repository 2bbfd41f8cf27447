"""Record the reference test accuracy of every training cell for a range of
workload seeds, into perfbench/reference.json.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py --seeds 0-49

run.py fails a cell whose test accuracy departs from its reference by more
than workloads.ACC_TOLERANCE. Re-record only when a change is meant to alter
training results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os

import workloads as wl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    lo, hi = (int(x) for x in ap.parse_args().seeds.split("-"))
    cli = wl.import_ingsl()["cli"]
    refs = {}
    for w in wl.WORKLOADS.values():
        if not w.training:
            continue
        os.environ["INGSL_THREADS"] = str(w.threads)
        for seed in range(lo, hi + 1):
            report = cli.run_experiment(cli.parse_config(w.config(seed)))
            refs.setdefault(w.name, {})[str(seed)] = {
                wl.cell_id(c["mode"], c["r"], c["seed"]): c["test_acc"]
                for c in report["cells"]
            }
            print(w.name, seed, refs[w.name][str(seed)], flush=True)
    wl.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
