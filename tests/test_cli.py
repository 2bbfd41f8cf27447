import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingsl import tensor as T
from ingsl.cli import default_battery, main, parse_config, run_gradcheck_battery
from ingsl.errors import ConfigError
from ingsl.graph import Graph, generate_sbm, load_bundle, save_bundle
from ingsl.gsl import METRICS
from ingsl.pruning import MODES, SCORER_KINDS, PruneConfig, TrainConfig, train_ingsl


def strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_time(v) for k, v in obj.items() if "wall_time" not in k}
    if isinstance(obj, list):
        return [strip_wall_time(v) for v in obj]
    return obj


SBM_SPEC = {
    "block_sizes": [12, 12],
    "p_in": 0.4,
    "p_out": 0.03,
    "feature_dim": 4,
    "feature_noise": 0.5,
    "seed": 5,
}


def base_config(**overrides):
    cfg = {
        "dataset": {"sbm": SBM_SPEC},
        "k": 5,
        "reduction_levels": [0.5],
        "beta": 0.5,
        "seeds": [0, 1],
        "modes": ["ingsl", "similarity_only"],
        "epochs": 12,
        "patience": 6,
        "hidden": 8,
    }
    cfg.update(overrides)
    if "mode" in overrides and "modes" not in overrides:
        del cfg["modes"]
    return cfg


def write_config(tmp_path, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**overrides)))
    return path


# Config values that must be rejected as a config error before any dataset
# is built: (override, text the one-line message must contain).
MALFORMED = [
    ({"k": "3"}, "k must be an integer"),
    ({"k": True}, "k must be an integer"),
    ({"epochs": "2"}, "epochs must be an integer"),
    ({"lr": "0.01"}, "lr must be a finite number"),
    ({"beta": None}, "beta must be a finite number"),
    ({"lambda": False}, "lambda must be a finite number"),
    ({"reduction_levels": "0.5"}, "reduction_levels must be a list"),
    ({"seeds": 5}, "seeds must be a list"),
    ({"seeds": [0.5]}, "seeds[0] must be an integer"),
    ({"seeds": [-1]}, "seed must be >= 0"),
    ({"mode": 3}, "modes must be a list"),
    ({"mode": "ingsl", "modes": ["ingsl"]}, "either mode or modes"),
    ({"noise": [1]}, "noise must be a JSON object"),
    ({"noise": {"add_ratio": "x"}}, "noise.add_ratio must be a finite number"),
    ({"dataset": {"sbm": [1]}}, "dataset.sbm must be a JSON object"),
    ({"dataset": {"sbm": dict(SBM_SPEC, p_in="x")}}, "dataset.sbm.p_in must be a finite number"),
    ({"dataset": {"sbm": {"seed": 1}}}, "dataset.sbm missing keys"),
    ({"dataset": {"bundle": 3}}, "dataset.bundle must be a string"),
    ({"hidden": 0}, "hidden must be >= 1"),
    ({"patience": 0}, "patience must be >= 1"),
    ({"residual_weight": -1}, "residual_weight must be non-negative"),
    ({"metric": "euclid"}, "metric must be one of"),
    ({"scorer_kind": "deep"}, "scorer_kind must be one of"),
    ({"modes": []}, "modes must be non-empty"),
]
MALFORMED_IDS = [json.dumps(o)[:40] for o, _ in MALFORMED]


def one_error_line(capsys, text):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and text in err[0], err


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config({"dataset": {"sbm": SBM_SPEC}})
        assert cfg.k == 30 and cfg.lr == 1e-2 and cfg.hidden == 128
        assert cfg.modes == ["ingsl"] and cfg.seeds == [0]

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config({"dataset": {"sbm": SBM_SPEC}, "learning_rate": 0.1})

    def test_unknown_sbm_key_rejected(self):
        bad = dict(SBM_SPEC, extra=1)
        with pytest.raises(ConfigError, match="extra"):
            parse_config({"dataset": {"sbm": bad}})

    def test_unknown_noise_key_rejected(self):
        with pytest.raises(ConfigError, match="nois"):
            parse_config({"dataset": {"sbm": SBM_SPEC}, "noise": {"noise_level": 1}})

    def test_lr_range_enforced(self):
        with pytest.raises(ConfigError, match="lr"):
            parse_config({"dataset": {"sbm": SBM_SPEC}, "lr": 0.1})

    def test_reduction_range(self):
        with pytest.raises(ConfigError):
            parse_config({"dataset": {"sbm": SBM_SPEC}, "reduction_levels": [1.0]})

    def test_mode_singular_accepted(self):
        cfg = parse_config({"dataset": {"sbm": SBM_SPEC}, "mode": "random_prune"})
        assert cfg.modes == ["random_prune"]

    def test_dataset_shape(self):
        with pytest.raises(ConfigError):
            parse_config({"dataset": {"sbm": SBM_SPEC, "bundle": "x"}})
        with pytest.raises(ConfigError):
            parse_config({})

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            parse_config({"dataset": {"sbm": SBM_SPEC}, "seeds": []})

    def test_train_config_carries_every_shared_field(self):
        cfg = parse_config(
            base_config(**{"lambda": 0.25, "residual_weight": 0.5, "batch_size": 7, "lr": 0.02})
        )
        tc = cfg.train_config("no_reduction", 0.25, 9)
        assert (tc.mode, tc.prune.reduction, tc.prune.seed) == ("no_reduction", 0.25, 9)
        assert (tc.lam, tc.residual_weight, tc.lr) == (0.25, 0.5, 0.02)
        assert (tc.k, tc.hidden, tc.epochs, tc.patience) == (5, 8, 12, 6)
        assert (tc.prune.beta, tc.prune.batch_size) == (0.5, 7)
        assert (tc.scorer_kind, tc.metric) == ("bilinear", "inner")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
TOP_KEYS = [
    "dataset", "k", "reduction_levels", "beta", "lambda", "scorer_kind", "lr", "epochs",
    "patience", "seeds", "mode", "modes", "noise", "batch_size", "residual_weight", "hidden",
    "metric",
]
NOISE = {"add_ratio": 0.1, "del_ratio": 0.1, "feature_mask_ratio": 0.1}


class TestConfigProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(
            [("top", k) for k in TOP_KEYS]
            + [("sbm", k) for k in SBM_SPEC]
            + [("noise", k) for k in NOISE]
        ),
        JSON_VALUES,
    )
    def test_any_json_value_parses_or_is_config_error(self, where, value):
        obj = base_config(noise=dict(NOISE), dataset={"sbm": dict(SBM_SPEC)})
        place, key = where
        target = {"top": obj, "sbm": obj["dataset"]["sbm"], "noise": obj["noise"]}[place]
        target[key] = value
        if key == "mode":
            del obj["modes"]
        try:
            parse_config(obj)
        except ConfigError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "k": st.integers(1, 10**6),
                "reduction_levels": st.lists(st.floats(0.0, 0.999), min_size=1, max_size=3),
                "beta": st.floats(0.0, 1.0),
                "lambda": st.floats(0.0, 1e3),
                "scorer_kind": st.sampled_from(SCORER_KINDS),
                "lr": st.floats(1e-5, 5e-2),
                "epochs": st.integers(1, 10**4),
                "patience": st.integers(1, 10**4),
                "seeds": st.lists(st.integers(0, 2**31), min_size=1, max_size=3),
                "modes": st.lists(st.sampled_from(MODES), min_size=1, max_size=4),
                "noise": st.none() | st.just(NOISE),
                "batch_size": st.none() | st.integers(1, 512),
                "residual_weight": st.floats(0.0, 10.0),
                "hidden": st.integers(1, 512),
                "metric": st.sampled_from(METRICS),
            }
        ),
        st.sampled_from([{"sbm": SBM_SPEC}, {"bundle": "some/dir"}]),
    )
    def test_to_dict_round_trips(self, fields, dataset):
        cfg = parse_config({"dataset": dataset, **fields})
        assert parse_config(cfg.to_dict()) == cfg


class TestTrainCommand:
    def test_report_schema_and_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"version", "config", "cells", "aggregates"}
        assert len(report["cells"]) == 2 * 1 * 2  # modes x levels x seeds
        for cell in report["cells"]:
            assert 0.0 <= cell["test_acc"] <= 1.0
            assert cell["edges_final"] <= cell["edges_candidate"]
        agg = report["aggregates"]["ingsl"]["0.5"]
        assert agg["n_seeds"] == 2 and "std_test_acc" in agg
        lines = (out / "cells.csv").read_text().splitlines()
        assert lines[0] == "mode,r,seed,test_acc,edges_final,edge_multiple,flops"
        assert len(lines) == 5

    def test_single_seed_no_std(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[3], modes=["random_prune"])
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        agg = json.loads((out / "report.json").read_text())["aggregates"]
        assert "std_test_acc" not in agg["random_prune"]["0.5"]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0], modes=["ingsl"])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
        ra = strip_wall_time(json.loads((a / "report.json").read_text()))
        rb = strip_wall_time(json.loads((b / "report.json").read_text()))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
        assert (a / "cells.csv").read_text() == (b / "cells.csv").read_text()

    def test_thread_parallelism_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1], modes=["similarity_only"])
        a, b = tmp_path / "serial", tmp_path / "parallel"
        old = os.environ.get("INGSL_THREADS")
        try:
            os.environ["INGSL_THREADS"] = "1"
            assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
            os.environ["INGSL_THREADS"] = "2"
            assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
        finally:
            if old is None:
                os.environ.pop("INGSL_THREADS", None)
            else:
                os.environ["INGSL_THREADS"] = old
        ra = strip_wall_time(json.loads((a / "report.json").read_text()))
        rb = strip_wall_time(json.loads((b / "report.json").read_text()))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1, 2], modes=["random_prune"])
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [c["seed"] for c in report["cells"]] == [7]

    def test_noise_config_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            seeds=[0],
            modes=["ingsl"],
            noise={"add_ratio": 0.1, "del_ratio": 0.2, "feature_mask_ratio": 0.1},
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_bundle_dataset(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"sbm": SBM_SPEC}))
        bundle = tmp_path / "bundle"
        assert main(["gen-sbm", "--config", str(gen_cfg), "--out", str(bundle)]) == 0
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)}, seeds=[0], modes=["ingsl"])
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    def test_usage_error_is_config_error(self):
        assert main(["train"]) == 1

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
        one_error_line(capsys, "seed must be >= 0")

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_divergence_exit_two(self, tmp_path):
        g = Graph(
            features=np.full((6, 2), 1e308),
            labels=[0, 1, 0, 1, 0, 1],
            edges=[(0, 1), (2, 3), (4, 5), (1, 2)],
            train_mask=[1, 1, 0, 0, 0, 0],
            val_mask=[0, 0, 1, 1, 0, 0],
            test_mask=[0, 0, 0, 0, 1, 1],
        )
        save_bundle(g, tmp_path / "bad")
        cfg = write_config(
            tmp_path, dataset={"bundle": str(tmp_path / "bad")}, seeds=[0], modes=["ingsl"], k=2
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_sweep_single_level_rejected(self, tmp_path):
        cfg = write_config(tmp_path, reduction_levels=[0.5])
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("override,text", MALFORMED, ids=MALFORMED_IDS)
    def test_train_malformed_exit_one(self, tmp_path, capsys, override, text):
        cfg = write_config(tmp_path, **override)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, text)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "obj,text",
        [
            pytest.param({"sbm": {"seed": 1}}, "dataset.sbm missing keys", id="sbm-missing-keys"),
            pytest.param([1], "dataset must be", id="list"),
            pytest.param({"dataset": 3}, "dataset must be", id="dataset-int"),
            pytest.param({"sbm": [1]}, "dataset.sbm must be a JSON object", id="sbm-list"),
            pytest.param(
                {"sbm": dict(SBM_SPEC, p_in="x")}, "dataset.sbm.p_in must be", id="sbm-p_in-str"
            ),
            pytest.param({"bundle": "x"}, "needs an sbm spec", id="bundle"),
        ]
        + [
            pytest.param(base_config(**override), text, id=f"config-{i}")
            for i, (override, text) in zip(MALFORMED_IDS, MALFORMED)
        ],
    )
    def test_gen_sbm_malformed_exit_one(self, tmp_path, capsys, obj, text):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(obj))
        assert main(["gen-sbm", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
        one_error_line(capsys, text)
        assert not (tmp_path / "b").exists()


class TestSweep:
    def test_row_accounting(self, tmp_path):
        cfg = write_config(tmp_path, reduction_levels=[0.3, 0.6], seeds=[0], epochs=8)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mode,r,mean_test_acc,std_test_acc,mean_edges_final,mean_edge_multiple"
        assert len(lines) - 1 == 2 * 2  # modes x levels

    def test_random_prune_accuracy_non_increasing_in_r(self, tmp_path):
        # With a sparse original graph and informative candidates, dropping
        # more random candidate edges costs accuracy on average.
        cfg = write_config(
            tmp_path,
            dataset={
                "sbm": {
                    "block_sizes": [20, 20, 20],
                    "p_in": 0.04,
                    "p_out": 0.005,
                    "feature_dim": 6,
                    "feature_noise": 0.2,
                    "seed": 11,
                }
            },
            k=4,
            hidden=16,
            metric="cosine",
            modes=["random_prune"],
            reduction_levels=[0.2, 0.8],
            seeds=[0, 1, 2, 3, 4],
            epochs=60,
            patience=20,
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        agg = json.loads((out / "report.json").read_text())["aggregates"]["random_prune"]
        assert agg["0.2"]["mean_test_acc"] >= agg["0.8"]["mean_test_acc"]


class TestVerifyLemmas:
    def test_single_trial_completes(self, tmp_path, capsys):
        assert main(["verify-lemmas", "--trials", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify-lemmas", "--trials", "40", "--seed", "2", "--out", str(a)]) == 0
        assert main(["verify-lemmas", "--trials", "40", "--seed", "2", "--out", str(b)]) == 0
        assert (a / "lemmas.json").read_bytes() == (b / "lemmas.json").read_bytes()


class TestGradcheck:
    def test_fresh_build_all_pass(self, tmp_path):
        a = tmp_path / "a"
        assert main(["gradcheck", "--seed", "0", "--out", str(a)]) == 0
        payload = json.loads((a / "gradcheck.json").read_text())
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == len(default_battery(0))

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gradcheck", "--seed", "1", "--out", str(a)]) == 0
        assert main(["gradcheck", "--seed", "1", "--out", str(b)]) == 0
        assert (a / "gradcheck.json").read_bytes() == (b / "gradcheck.json").read_bytes()

    def test_corrupted_backward_reported_as_failure(self):
        # Negative control: an op whose backward rule is deliberately wrong.
        def corrupt_square_check():
            x = T.parameter(np.array([1.0, 2.0, 3.0]))

            def broken_square(t):
                out = T.Tensor(t.data**2)
                return T.record_op(out, (t,), lambda g: (3.0 * t.data * g,), "broken")

            return T.gradient_check(lambda p: T.sum_all(broken_square(p)), [x])

        rows, ok = run_gradcheck_battery(
            list(default_battery(0)) + [("broken_square", corrupt_square_check)]
        )
        assert not ok
        failed = [r for r in rows if not r["pass"]]
        assert [r["op"] for r in failed] == ["broken_square"]


class TestGradcheckCoverage:
    def test_battery_runs_every_op_training_records(self, monkeypatch):
        recorded = T.record_op
        seen: set[str] = set()

        def spy(output, inputs, backward_fn, name="custom"):
            seen.add(name)
            return recorded(output, inputs, backward_fn, name)

        monkeypatch.setattr(T, "record_op", spy)
        g = generate_sbm([8, 8], 0.5, 0.05, 3, 0.5, 1)
        for mode in MODES:
            for metric in METRICS:
                for scorer_kind in SCORER_KINDS:
                    tc = TrainConfig(
                        prune=PruneConfig(reduction=0.5, seed=0),
                        mode=mode, k=3, hidden=4, epochs=2, lam=0.1,
                        metric=metric, scorer_kind=scorer_kind,
                    )
                    train_ingsl(g, tc)
        trained = set(seen)
        seen.clear()
        for _, check in default_battery(0):
            check()
        assert trained <= seen, sorted(trained - seen)


class TestDiagnoseRedundancy:
    def test_identical_feature_ring_profile_is_one(self, tmp_path):
        # Ring graph, identical features: aggregation is degree-regular so all
        # embeddings coincide and every profile entry is 1.0.
        n = 9
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges = [(min(a, b), max(a, b)) for a, b in edges]
        g = Graph(
            features=np.ones((n, 3)),
            labels=[i % 3 for i in range(n)],
            edges=sorted(edges),
            train_mask=[i % 3 == 0 for i in range(n)],
            val_mask=[i % 3 == 1 for i in range(n)],
            test_mask=[i % 3 == 2 for i in range(n)],
        )
        save_bundle(g, tmp_path / "ring")
        cfg = write_config(
            tmp_path, dataset={"bundle": str(tmp_path / "ring")}, k=3, epochs=3, seeds=[0]
        )
        out = tmp_path / "diag"
        code = main(
            ["diagnose-redundancy", "--config", str(cfg), "--out", str(out), "--k-values", "2,3"]
        )
        assert code == 0
        lines = (out / "redundancy.csv").read_text().splitlines()
        assert lines[0] == "k,mean_pairwise_cosine"
        assert len(lines) == 3
        for line in lines[1:]:
            assert abs(float(line.split(",")[1]) - 1.0) < 1e-9


class TestGenSbm:
    def test_bundle_roundtrip(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"sbm": SBM_SPEC}))
        out = tmp_path / "bundle"
        assert main(["gen-sbm", "--config", str(gen_cfg), "--out", str(out)]) == 0
        g = load_bundle(out)
        assert g.n == 24 and g.classes == 2
