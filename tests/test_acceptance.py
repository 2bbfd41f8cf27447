"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The optional dataset check
(criterion 7) runs only when the INGSL_CORA_BUNDLE environment variable
points at a Cora bundle directory.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from ingsl import tensor as T
from ingsl.analysis import complexity_estimate, lemma1_check, lemma2_check
from ingsl.cli import default_battery, main, parse_config, run_experiment, run_gradcheck_battery
from ingsl.gnn import gcn_forward, make_gcn_params, task_loss
from ingsl.graph import edge_homophily, load_bundle, normalize_adjacency
from ingsl.gsl import build_candidates
from ingsl.pruning import keep_count, mi_loss, prune, sample_batch, select_threshold
from test_cli import experiment_config, strip_wall_time, write_config
from test_graph import random_graph

from oracles import ce_mean, dense_normalize, mi_naive, topk_brute


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def aggregates(name: str, **overrides) -> dict:
    """Run ``configs/<name>.json``, with ``overrides`` replacing top-level
    keys, as ``ingsl train`` runs it; return the report's aggregates."""
    return run_experiment(parse_config({**experiment_config(name), **overrides}))["aggregates"]


def summary(agg: dict) -> str:
    """Each mode's mean test accuracy and mean edges kept at r 0.5."""
    return ", ".join(
        f"{mode} {per_r['0.5']['mean_test_acc']:.4f} ({per_r['0.5']['mean_edges_final']:g} edges)"
        for mode, per_r in agg.items()
    )


def test_criterion_01_similarity_floor_10k_trials():
    t0 = time.perf_counter()
    rep = lemma1_check(10000, dim_range=(2, 32), n_range=(2, 50), eps_range=(0.0, 0.99), seed=0)
    elapsed = time.perf_counter() - t0
    check(
        "criterion 1 (similarity floor, 10k trials)",
        rep.violations == 0 and elapsed < 30.0,
        f"violations={rep.violations}, worst margin={rep.max_slack:.3e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_loss_change_ceiling_10k_trials():
    t0 = time.perf_counter()
    rep = lemma2_check(10000, eps_range=(0.0, 0.99), b_range=(0.1, 5.0), seed=0)
    elapsed = time.perf_counter() - t0
    check(
        "criterion 2 (loss-change ceiling, 10k trials)",
        rep.violations == 0 and elapsed < 60.0,
        f"violations={rep.violations}, worst margin={rep.max_slack:.3e}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_gradient_integrity():
    rows, ok = run_gradcheck_battery(default_battery(seed=0), threshold=1e-4)
    worst = max(rows, key=lambda r: r["max_rel_err"])
    check(
        "criterion 3 (gradient integrity)",
        ok,
        f"{len(rows)} ops, worst {worst['op']} at {worst['max_rel_err']:.2e} (< 1e-4)",
    )


def test_criterion_04_pruning_exactness():
    failures = 0
    for trial in range(100):
        rng = np.random.default_rng([40, trial])
        n = int(rng.integers(6, 16))
        k = int(rng.integers(2, min(6, n)))
        e = T.constant(rng.normal(size=(n, 4)))
        cand = build_candidates(e, k)
        w = T.constant(rng.normal(size=cand.sparse.nnz))
        x = cand.sparse.values.data * w.data
        for r in [round(0.1 * i, 1) for i in range(1, 10)]:
            eps = select_threshold(x, r)
            out = prune(cand, w, eps)
            want_count = keep_count(cand.sparse.nnz, r)
            order = np.lexsort((np.arange(x.size), -x))
            want_idx = set(order[:want_count].tolist())
            got_idx = set(np.flatnonzero(x >= eps).tolist())
            if out.nnz != want_count or got_idx != want_idx:
                failures += 1
    check(
        "criterion 4 (pruning exactness, 100 graphs x 9 levels)",
        failures == 0,
        f"{failures} mismatches against the full-sort oracle",
    )


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(50)
    worst = 0.0

    # top-K construction vs full sort
    e = rng.normal(size=(25, 5))
    cand = build_candidates(T.constant(e), 4)
    sim = e @ e.T
    rows, cols = cand.pairs()
    for i in range(25):
        assert sorted(cols[rows == i].tolist()) == topk_brute(sim[i], 4, i)

    # normalized adjacency vs dense oracle
    g = random_graph(rng, 30)
    dense = np.zeros((30, 30))
    for i, j in g.edges:
        dense[i, j] = dense[j, i] = 1.0
    a_hat = normalize_adjacency(g)
    worst = max(worst, float(np.abs(a_hat.to_dense() - dense_normalize(dense)).max()))

    # GCN forward vs dense oracle
    x = rng.normal(size=(30, 6))
    params = make_gcn_params(rng, [6, 5, 5], 3)
    z, logits = gcn_forward(a_hat, T.constant(x), params)
    h = np.maximum(dense_normalize(dense) @ x @ params.layer_weights[0].data, 0.0)
    h = np.maximum(dense_normalize(dense) @ h @ params.layer_weights[1].data, 0.0)
    worst = max(worst, float(np.abs(z.data - h).max()))
    worst = max(worst, float(np.abs(logits.data - h @ params.classifier.data).max()))

    # cross-entropy vs direct softmax oracle
    lg = rng.normal(size=(30, 4))
    labels = rng.integers(0, 4, 30)
    got = float(task_loss(T.constant(lg), labels, np.ones(30, bool)).data)
    worst = max(worst, abs(got - ce_mean(lg, labels, range(30))))

    # MI loss vs per-anchor loop oracle
    zt, zz = rng.normal(size=(30, 5)), rng.normal(size=(30, 5))
    ids = sample_batch(30, 12, rng)
    got = float(mi_loss(T.constant(zt), T.constant(zz), ids).data)
    worst = max(worst, abs(got - mi_naive(zt, zz, ids)))

    check(
        "criterion 5 (oracle equivalence on <= 30-node instances)",
        worst < 1e-12,
        f"worst absolute deviation {worst:.2e} (< 1e-12)",
    )


def test_criterion_06_directional_sbm_benchmark():
    t0 = time.perf_counter()
    agg = aggregates("clean_r50")
    elapsed = time.perf_counter() - t0
    means = {mode: per_r["0.5"]["mean_test_acc"] for mode, per_r in agg.items()}
    ok = (
        means["ingsl"] >= means["similarity_only"]
        and means["ingsl"] >= means["random_prune"] + 0.01
        and elapsed < 300.0
    )
    check(
        "criterion 6 (directional desk-scale benchmark, r=0.5, 10 seeds)",
        ok,
        f"{summary(agg)}, {elapsed:.0f}s (< 300s)",
    )


@pytest.mark.skipif(
    "INGSL_CORA_BUNDLE" not in os.environ,
    reason="set INGSL_CORA_BUNDLE to a Cora bundle directory to run",
)
def test_criterion_07_optional_cora_checks():
    g = load_bundle(os.environ["INGSL_CORA_BUNDLE"])
    hom = edge_homophily(g)
    check(
        "criterion 7a (Cora counts and homophily)",
        g.n == 2708 and g.num_edges == 5278 and abs(hom - 0.81) <= 0.01,
        f"n={g.n} (want 2708), edges={g.num_edges} (want 5278), homophily={hom:.3f} (0.81 +/- 0.01)",
    )
    agg = aggregates(
        "clean_r50",
        dataset={"bundle": os.environ["INGSL_CORA_BUNDLE"]},
        reduction_levels=[0.3, 0.5],
        seeds=list(range(5)),
        modes=["ingsl", "similarity_only"],
    )
    gaps = [
        (r, agg["ingsl"][r]["mean_test_acc"] - agg["similarity_only"][r]["mean_test_acc"])
        for r in ("0.3", "0.5")
    ]
    check(
        "criterion 7b (Cora direction, r in {0.3, 0.5}, 5 seeds)",
        all(gap > 0 for _, gap in gaps),
        ", ".join(f"r={r}: gap {gap:+.4f}" for r, gap in gaps),
    )


def test_criterion_08_robustness_direction_under_deletion():
    agg = aggregates("edge_deletion")
    gap = agg["ingsl"]["0.5"]["mean_test_acc"] - agg["similarity_only"]["0.5"]["mean_test_acc"]
    check(
        "criterion 8 (robustness direction, del_ratio=0.3, 10 seeds)",
        gap >= 0.0,
        f"{summary(agg)}, gap {gap:+.4f} (>= 0)",
    )


def test_criterion_09_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / f"lem_{name}"
        assert main(["verify-lemmas", "--trials", "50", "--seed", "3", "--out", str(d)]) == 0
        outs.append((d / "lemmas.json").read_bytes())
    lemmas_ok = outs[0] == outs[1]

    outs = []
    for name in ("a", "b"):
        d = tmp_path / f"gc_{name}"
        assert main(["gradcheck", "--seed", "3", "--out", str(d)]) == 0
        outs.append((d / "gradcheck.json").read_bytes())
    gradcheck_ok = outs[0] == outs[1]

    cfg = write_config(tmp_path, seeds=[0], modes=["ingsl"], epochs=10, patience=5)
    reports = []
    for name in ("a", "b"):
        d = tmp_path / f"train_{name}"
        assert main(["train", "--config", str(cfg), "--out", str(d)]) == 0
        rep = strip_wall_time(json.loads((d / "report.json").read_text()))
        reports.append(json.dumps(rep, sort_keys=True))
    train_ok = reports[0] == reports[1]

    check(
        "criterion 9 (byte-identical reports under repeated runs)",
        lemmas_ok and gradcheck_ok and train_ok,
        f"verify-lemmas={lemmas_ok}, gradcheck={gradcheck_ok}, train cell={train_ok}",
    )


def test_criterion_10_complexity_estimator():
    rng = np.random.default_rng(100)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(1, 500))
        d = int(rng.integers(1, 64))
        m = int(rng.integers(0, 5000))
        layers = int(rng.integers(0, 4))
        b = int(rng.integers(0, 300))
        r = int(rng.integers(0, 64)) / 64.0  # dyadic: float arithmetic is exact
        got = complexity_estimate(n, d, m, r, layers, b)
        exact = Fraction(n) * d * (d + b + layers * d + 1) + Fraction(m) * (
            Fraction(layers) * Fraction(r) * d + d + 1
        )
        if got != float(exact):
            mismatches += 1
    check(
        "criterion 10 (cost-model formula, 50 random tuples)",
        mismatches == 0,
        f"{mismatches} mismatches against exact rational arithmetic",
    )
