"""Benchmark of the ingsl library: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_ingsl --seed 0 --seconds 25 --trace 0

The workload's inputs derive from --seed only. Set-up is timed in fresh
processes (setup_probe.py); then the workload's fixed list of cells or rounds
is repeated while --seconds lasts, at least once, and every repetition is
checked against the output rules in workloads.py and against the first
repetition. With --trace 0 the end-to-end metrics are reported; with
--trace 1 untraced and traced repetitions alternate and the per-layer
metrics of tracer.py are reported. The last line of standard output is the
result as JSON; a fuller record, and with --trace 1 the spans, are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import tracer as tracing
import workloads as wl

OUT_DIR = wl.HERE / "out"
SETUP_PROBES = 11

# On a shared host this process's speed drifts two-fold within minutes,
# with slow stretches that can last a whole run; no bound worth setting
# survives that. So calibrate() runs before every set-up probe and every
# repetition and once after the last, and each probe or repetition time is
# scaled by CALIBRATION_REF_S / c, c being the mean of the two calibrate()
# times around it: a time reads as it would on a host where calibrate()
# takes CALIBRATION_REF_S. Raw times are printed beside the scaled ones and
# kept in the record.
CALIBRATION_REF_S = 0.05


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "epoch_ms_p50": "ms",
    "epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and single-threaded numpy
    (a scatter-add, element-wise maps, a loop of tiny-array calls). It makes
    no BLAS call, so a change to BLAS threading cannot move it."""
    import numpy as np

    rng = np.random.default_rng(12345)
    idx = rng.integers(0, 200, 6000)
    vals = rng.standard_normal((6000, 32))
    x = rng.standard_normal((200, 128))
    small = rng.standard_normal((8, 8))
    t0 = perf_counter()
    for _ in range(10):
        out = np.zeros((200, 32))
        np.add.at(out, idx, vals)
        for _ in range(5):
            np.exp(-np.abs(x))
        acc = 0.0
        for i in range(1500):
            acc += float(np.maximum(small, 0.0).sum()) + i
    return perf_counter() - t0


def time_setup(w: wl.Workload, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, spawn to "ready", and the
    calibrations around them."""
    probe = str(wl.HERE / "setup_probe.py")
    samples, cals = [], []
    for _ in range(SETUP_PROBES):
        cals.append(calibrate())
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, probe, w.name, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            dt = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready":
            raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        samples.append(dt)
    cals.append(calibrate())
    return samples, cals


def environment(w: wl.Workload, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = {
        var: os.environ.get(var, "library default")
        for var in wl.BLAS_THREAD_VARS
    }
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "INGSL_THREADS": str(w.threads),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": w.name,
        "seed": seed,
    }


def check_repeats(reps: list[list]) -> None:
    """Every repetition must reproduce the first one's outcomes exactly."""
    first = reps[0]
    for units in reps[1:]:
        for ref, u in zip(first, units):
            if u.outcome != ref.outcome and not u.failed:
                u.failed = 1
                u.problems += (f"differs from first repetition: {u.outcome} vs {ref.outcome}",)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w, seed = wl.WORKLOADS[args.workload], args.seed
    wl.set_blas_threads(w)  # before numpy loads BLAS

    mods = wl.import_ingsl()
    tracing.resolve(mods)  # fails loudly, traced or not, if a stage is gone
    calibrate()  # first-call costs stay out of the calibration
    setup, setup_cals = time_setup(w, seed)
    env = environment(w, seed)
    cli = mods["cli"]
    tracer = None  # --trace 1 only
    if w.training:
        cfg = cli.parse_config(w.config(seed))
        refs = wl.load_reference().get(w.name, {}).get(str(seed), {})

        def run_rep():
            return wl.run_training(w, cli, mods["pruning"], cfg, refs)
    else:
        def run_rep():
            return wl.run_verify(w, cli, mods["analysis"], seed, tracer)

    begin = perf_counter()
    cals = [calibrate()]

    def timed_rep() -> tuple[float, float, list]:
        """Raw wall time, speed factor and units of one repetition."""
        t0 = perf_counter()
        units = run_rep()
        wall = perf_counter() - t0
        cals.append(calibrate())
        return wall, CALIBRATION_REF_S / statistics.fmean(cals[-2:]), units

    def time_left_for(*walls: list) -> bool:
        return perf_counter() - begin + sum(statistics.median(w) for w in walls) <= args.seconds

    plain, traced = [], []  # (wall, speed factor, units) per repetition
    if args.trace:
        # Untraced and traced repetitions alternate, so host drift cannot
        # pass for tracing overhead.
        tracer = tracing.Tracer()
        while not traced or time_left_for([r[0] for r in plain], [r[0] for r in traced]):
            plain.append(timed_rep())
            uninstall = tracing.install(tracer, mods)
            try:
                traced.append(timed_rep())
            finally:
                uninstall()
    else:
        while not plain or time_left_for([r[0] for r in plain]):
            plain.append(timed_rep())
    reps = [r[2] for r in plain + traced]
    check_repeats(reps)

    units = [u for rep in reps for u in rep]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    # End-to-end figures come from the untraced repetitions.
    setup_scaled = [t * CALIBRATION_REF_S / statistics.fmean(pair)
                    for t, pair in zip(setup, zip(setup_cals, setup_cals[1:]))]
    walls = [wall for wall, _, _ in plain]
    scaled = [wall * f for wall, f, _ in plain]
    epoch_ms = [1000.0 * u.wall_s * f / u.epochs for _, f, rep in plain for u in rep if u.epochs]
    raw_epoch_ms = [1000.0 * u.wall_s / u.epochs for _, _, rep in plain for u in rep if u.epochs]
    epochs = sum(u.epochs for _, _, rep in plain for u in rep)
    accs = [u.test_acc for u in reps[0] if u.test_acc is not None]
    unit_word = "cells" if w.training else "rounds"
    summary = {
        "setup_s": (statistics.median(setup_scaled),
                    f"median of {len(setup)} set-ups; raw {statistics.median(setup):.4g} s"),
        "wall_s": (statistics.median(scaled),
                   f"median of {len(walls)} repetitions; raw {statistics.median(walls):.4g} s"),
        "epoch_ms_p50": (statistics.median(epoch_ms) if epoch_ms else 0.0,
                         f"median of {len(epoch_ms)} {unit_word}; "
                         f"raw {statistics.median(raw_epoch_ms) if raw_epoch_ms else 0.0:.4g} ms"),
        "epochs_per_s": (epochs / sum(scaled),
                         f"{epochs} {'epochs' if w.training else 'rounds'} in {sum(walls):.2f} s; "
                         f"raw {epochs / sum(walls):.4g} 1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"),
    }
    units_of = dict(END_TO_END_UNITS, test_acc_mean="fraction", error_rate="fraction")
    if accs:
        summary["test_acc_mean"] = (statistics.fmean(accs), f"{len(accs)} cells")
    summary["error_rate"] = (failed / attempted, f"{failed} of {attempted} failed")

    print(f"perfbench {w.name} seed={seed} trace={args.trace}: {len(reps)} repetitions "
          f"of {len(reps[0])} {unit_word}; median speed factor "
          f"{statistics.median(f for _, f, _ in plain):.3f}")
    for name, (value, note) in summary.items():
        print(f"  {name:<14} {value:>12.6g} {units_of[name]:<8} ({note})")
    for u in units:
        for p in u.problems:
            print(f"  FAILED {u.id}: {p}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        layers = tracing.layer_metrics(tracer, len(traced))
        layers["trace.untraced_wall_s"] = statistics.fmean(walls)
        layers["trace.overhead_s"] = statistics.fmean(r[0] for r in traced) - layers["trace.untraced_wall_s"]
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": summary[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-s{seed}-t{args.trace}"
    record = {
        "env": env,
        "summary": {k: {"value": v, "unit": units_of[k], "samples": n} for k, (v, n) in summary.items()},
        "metrics": metrics,
        "setup_samples_s": setup,
        "setup_calibration_s": setup_cals,
        "calibration_s": cals,
        "repetition_walls_s": walls,
        "traced_repetition_walls_s": [r[0] for r in traced],
        "units": [[u.id, u.wall_s, u.epochs, u.failed, list(u.problems)] for u in units],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
