import contextlib
import ctypes
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingsl
from ingsl import cli
from ingsl import tensor as T
from ingsl.analysis import redundancy_profile
from ingsl.cli import default_battery, main, parse_config, run_gradcheck_battery
from ingsl.errors import ConfigError
from ingsl.graph import Graph, generate_sbm, load_bundle, save_bundle
from ingsl.gsl import METRICS
from ingsl.pruning import MODES, SCORER_KINDS, TrainConfig, train_ingsl


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def experiment_config(name: str) -> dict:
    """The committed experiment config ``configs/<name>.json``."""
    return json.loads((CONFIGS / f"{name}.json").read_text())


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


def blas_thread_functions():
    """numpy's OpenBLAS thread-count setter, as the cell pool finds it, and
    the getter from the same library; skips when numpy's BLAS has no setter."""
    set_blas = cli._blas_thread_setter()
    if set_blas is None:
        pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
    get_blas = numpy_blas_function(
        ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"), ctypes.c_int
    )
    if get_blas is None:
        pytest.fail("numpy's OpenBLAS exports the setter but no openblas_get_num_threads")
    return set_blas, get_blas


def numpy_blas_function(names, restype):
    """The first of ``names``, a function of no arguments, that numpy's
    extension module resolves, as ``cli._blas_thread_setter`` opens it
    (dlsym also searches the libraries it links, its OpenBLAS among them),
    or None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


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
    ({"noise": {"del_ratio": 2}}, "del_ratio must lie in [0, 1]"),
    ({"dataset": {"sbm": [1]}}, "dataset.sbm must be a JSON object"),
    ({"dataset": {"sbm": dict(SBM_SPEC, p_in="x")}}, "dataset.sbm.p_in must be a finite number"),
    ({"dataset": {"sbm": {"seed": 1}}}, "dataset.sbm missing keys"),
    ({"dataset": {"bundle": 3}}, "dataset.bundle must be a string"),
    ({"hidden": 0}, "hidden must be >= 1"),
    ({"patience": 0}, "patience must be >= 1"),
    ({"batch_size": 7}, "unknown config keys: batch_size"),
    ({"residual_weight": 0.5}, "unknown config keys: residual_weight"),
    ({"beta": 1.5}, "beta must lie in [0, 1]"),
    ({"lambda": -0.1}, "lambda must be non-negative"),
    ({"metric": "euclid"}, "metric must be one of"),
    ({"scorer_kind": "deep"}, "scorer_kind must be one of"),
    ({"modes": []}, "modes must be non-empty"),
    ({"seeds": [0, 0]}, "seeds repeats an entry: 0 and 0"),
    ({"modes": ["ingsl", "ingsl"]}, "modes repeats an entry: 'ingsl' and 'ingsl'"),
    ({"reduction_levels": [0.5, 0.5]}, "reduction_levels repeats an entry: 0.5 and 0.5"),
    ({"reduction_levels": [0.1234561, 0.1234564]}, "repeats an entry: 0.1234561 and 0.1234564"),
    ({"reduction_levels": [0.0, -0.0]}, "reduction_levels repeats an entry: 0.0 and -0.0"),
]
MALFORMED_IDS = [json.dumps(o)[:40] for o, _ in MALFORMED]


# Pythons from 3.10.7 on refuse to convert an integer string of more than
# 4300 digits, and json.loads then raises a plain ValueError.
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)


def one_error_line(capsys, text):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and text in err[0], err


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config({"dataset": {"sbm": SBM_SPEC}})
        assert cfg.train.k == 30 and cfg.train.lr == 1e-2 and cfg.train.hidden == 128
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

    def test_documented_and_scripted_configs_parse(self):
        # A schema change must not silently break the README's example or
        # the committed experiment configs, and the README names each config.
        readme = (ROOT / "README.md").read_text()
        blocks = readme.split("```json\n")[1:]
        assert blocks
        for block in blocks:
            parse_config(json.loads(block.split("```", 1)[0]))
        names = sorted(path.stem for path in CONFIGS.glob("*.json"))
        assert names == ["ci_threads", "clean_r50", "edge_deletion", "feature_masking", "sweep"]
        for name in names:
            parse_config(experiment_config(name))
        assert sorted(set(re.findall(r"configs/(\w+)\.json", readme))) == names

    def test_readme_config_table_lists_every_key(self):
        # A config key and its README row cannot drift apart.
        readme = (ROOT / "README.md").read_text()
        table = readme.split("| key | type | range | default |\n", 1)[1].split("\n\n", 1)[0]
        assert sorted(re.findall(r"^\| `(\w+)` \|", table, flags=re.M)) == sorted(cli._SPEC)

    def test_train_config_carries_every_shared_field(self):
        cfg = parse_config(
            base_config(**{"lambda": 0.25, "lr": 0.02})
        )
        tc = cfg.train_config("no_reduction", 0.25, 9)
        assert (tc.mode, tc.reduction, tc.seed) == ("no_reduction", 0.25, 9)
        assert (tc.lam, tc.lr, tc.beta) == (0.25, 0.02, 0.5)
        assert (tc.k, tc.hidden, tc.epochs, tc.patience) == (5, 8, 12, 6)
        assert (tc.scorer_kind, tc.metric) == ("bilinear", "cosine")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
TOP_KEYS = [
    "dataset", "k", "reduction_levels", "beta", "lambda", "scorer_kind", "lr", "epochs",
    "patience", "seeds", "mode", "modes", "noise", "hidden", "metric",
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
                "reduction_levels": st.lists(
                    st.floats(0.0, 0.999), min_size=1, max_size=3, unique_by=lambda r: f"{r:g}"
                ),
                "beta": st.floats(0.0, 1.0),
                "lambda": st.floats(0.0, 1e3),
                "scorer_kind": st.sampled_from(SCORER_KINDS),
                "lr": st.floats(1e-5, 5e-2),
                "epochs": st.integers(1, 10**4),
                "patience": st.integers(1, 10**4),
                "seeds": st.lists(st.integers(0, 2**31), min_size=1, max_size=3, unique=True),
                "modes": st.lists(st.sampled_from(MODES), min_size=1, max_size=4, unique=True),
                "noise": st.none() | st.just(NOISE),
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
        # The keys come from dataclass fields; a new field must not slip in.
        assert set(report["config"]) == set(TOP_KEYS) - {"mode"}
        assert len(report["cells"]) == 2 * 1 * 2  # modes x levels x seeds
        for cell in report["cells"]:
            assert set(cell) == {
                "mode", "r", "seed", "test_acc", "val_acc", "best_epoch", "epochs_run",
                "edges_candidate", "edges_final", "edges_additional", "edge_multiple",
                "flops", "wall_time_s",
            }
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

    @staticmethod
    def assert_thread_counts_agree(tmp_path, monkeypatch, cfg):
        # Serial, a pool whose workers run BLAS at one thread, and a pool
        # left at the default BLAS threads (as on a BLAS with no setter).
        outs = {}
        for label, threads, setter in (
            ("serial", "1", cli._blas_thread_setter),
            ("pinned", "2", cli._blas_thread_setter),
            ("unpinned", "2", lambda: None),
        ):
            monkeypatch.setenv("INGSL_THREADS", threads)
            monkeypatch.setattr(cli, "_blas_thread_setter", setter)
            out = outs[label] = tmp_path / label
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        reports = {
            label: json.dumps(strip_wall_time(json.loads((out / "report.json").read_text())),
                              sort_keys=True)
            for label, out in outs.items()
        }
        assert reports["pinned"] == reports["serial"] == reports["unpinned"]
        cells = {(out / "cells.csv").read_text() for out in outs.values()}
        assert len(cells) == 1

    def test_thread_parallelism_matches_serial(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, seeds=[0, 1], modes=list(MODES))
        self.assert_thread_counts_agree(tmp_path, monkeypatch, cfg)

    def test_thread_parallelism_matches_serial_on_the_exact_path(self, tmp_path, monkeypatch):
        # 100 nodes with k = 2: the candidate sddmm runs the exact kernels,
        # and its scores come from the BLAS product the top-K ranked.
        sbm = dict(SBM_SPEC, block_sizes=[50, 50], p_in=0.1, p_out=0.01)
        assert not T._dense_pays(100, 100, 100 * 2)
        cfg = write_config(
            tmp_path, dataset={"sbm": sbm}, k=2, seeds=[0, 1], modes=list(MODES), epochs=6
        )
        self.assert_thread_counts_agree(tmp_path, monkeypatch, cfg)

    def test_pool_pins_blas_and_restores_the_caller(self, monkeypatch):
        set_blas, get_blas = blas_thread_functions()
        seen = []
        real_run_cell = cli.run_cell

        def run_cell(*args):
            seen.append(get_blas())
            return real_run_cell(*args)

        monkeypatch.setattr(cli, "run_cell", run_cell)
        monkeypatch.setenv("INGSL_THREADS", "2")
        prev = set_blas(2)
        try:
            cli.run_experiment(parse_config(base_config(seeds=[0, 1], epochs=2)))
            assert seen == [1, 1, 1, 1]
            assert get_blas() == 2
        finally:
            set_blas(prev)

    def test_serial_cells_run_at_one_blas_thread(self, monkeypatch):
        set_blas, get_blas = blas_thread_functions()
        seen = []
        real_run_cell = cli.run_cell

        def run_cell(*args):
            seen.append(get_blas())
            return real_run_cell(*args)

        monkeypatch.setattr(cli, "run_cell", run_cell)
        monkeypatch.setenv("INGSL_THREADS", "1")
        prev = set_blas(2)
        try:
            cli.run_experiment(parse_config(base_config(seeds=[0, 1], epochs=2)))
            assert seen == [1, 1, 1, 1]
            assert get_blas() == 2
        finally:
            set_blas(prev)

    def test_wide_cells_train_the_same_bits_serial_and_pooled(self, monkeypatch):
        # At hidden 400 OpenBLAS gives different GEMM bits at one and at two
        # threads, so the trained parameters agree only because every cell,
        # serial or pooled, runs BLAS at one thread.
        set_blas, _ = blas_thread_functions()
        sbm = {"block_sizes": [50] * 4, "p_in": 0.1, "p_out": 0.01, "feature_dim": 8,
               "feature_noise": 1.0, "seed": 0}
        cfg = parse_config(base_config(
            dataset={"sbm": sbm}, modes=["ingsl"], seeds=[0, 1], k=30, hidden=400,
            metric="cosine", epochs=3, patience=3,
        ))
        params = {}
        real_train = cli.train_ingsl

        def capture(g, tcfg):
            result = real_train(g, tcfg)
            params[threads, tcfg.seed] = {n: p.data.copy() for n, p in result.params.items()}
            return result

        monkeypatch.setattr(cli, "train_ingsl", capture)
        prev = set_blas(2)
        try:
            for threads in ("1", "2"):
                monkeypatch.setenv("INGSL_THREADS", threads)
                cli.run_experiment(cfg)
        finally:
            set_blas(prev)
        for seed in (0, 1):
            serial, pooled = params["1", seed], params["2", seed]
            assert serial.keys() == pooled.keys()
            for name in serial:
                assert np.array_equal(serial[name], pooled[name]), name

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

    @pytest.mark.parametrize(
        "threads,text",
        [("0", "must be >= 1, got '0'"), ("-2", "must be >= 1, got '-2'"),
         ("two", "must be an integer, got 'two'")],
    )
    def test_bad_thread_count_exit_one(self, tmp_path, monkeypatch, capsys, threads, text):
        monkeypatch.setenv("INGSL_THREADS", threads)
        out = tmp_path / "o"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 1
        one_error_line(capsys, f"INGSL_THREADS {text}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-lemmas", "gradcheck"])
    @pytest.mark.parametrize(
        "seed,trials,text", [("-1", "1", "--seed must be >= 0"), ("0", "0", "--trials must be >= 1")]
    )
    def test_bad_seed_or_trials_names_the_flag(self, capsys, command, seed, trials, text):
        assert main([command, "--seed", seed, "--trials", trials]) == 1
        one_error_line(capsys, text)

    @pytest.mark.parametrize(
        "k_values,built",
        [("", False), (",", False), ("2,x", False), ("2.5", False), ("0,2", False),
         ("2,24", True), ("2,500", True)],
    )
    def test_bad_k_values_fail_before_training(
        self, tmp_path, capsys, monkeypatch, k_values, built
    ):
        # Empty, non-integer and k < 1 lists fail before the dataset is
        # built; k >= n (24 here) once it is, and never after training.
        builds = []
        real_resolve = cli.resolve_dataset
        monkeypatch.setattr(cli, "resolve_dataset", lambda c: builds.append(c) or real_resolve(c))

        def no_training(*args):
            raise AssertionError("train_ingsl was called")

        monkeypatch.setattr(cli, "train_ingsl", no_training)
        cfg = write_config(tmp_path, seeds=[0])
        argv = ["diagnose-redundancy", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--k-values", k_values]
        assert main(argv) == 1
        one_error_line(capsys, "--k-values")
        assert bool(builds) == built

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_numeric_divergence_exit_two(self, tmp_path):
        g = Graph(
            features=np.full((6, 2), 1e308),
            labels=[0, 1, 0, 1, 0, 1],
            edges=[(0, 1), (2, 3), (4, 5), (1, 2)],
            train_mask=np.arange(6) < 2,
            val_mask=(np.arange(6) >= 2) & (np.arange(6) < 4),
            test_mask=np.arange(6) >= 4,
            classes=2,
        )
        save_bundle(g, tmp_path / "bad")
        cfg = write_config(
            tmp_path, dataset={"bundle": str(tmp_path / "bad")}, seeds=[0], modes=["ingsl"], k=2
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numeric_failure_is_the_only_stderr_line(self, tmp_path, threads):
        # In a fresh process, because pytest's warning capture would hide
        # numpy's overflow warnings from an in-process run.
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(**SBM_SPEC), bundle)
        (bundle / "features.csv").write_text("1e308,1e308,1e308,1e308\n" * 24)
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)}, seeds=[0], epochs=2)
        src = str(Path(ingsl.__file__).resolve().parents[1])
        env = {**os.environ, "INGSL_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]
        proc = subprocess.run([sys.executable, "-m", "ingsl.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: "), err

    def test_sweep_single_level_rejected(self, tmp_path):
        cfg = write_config(tmp_path, reduction_levels=[0.5])
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_sweep_repeated_level_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reduction_levels=[0.5, 0.5])
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "reduction_levels repeats an entry")

    @pytest.mark.parametrize(
        "meta",
        [
            '{"n": null, "d": 3, "classes": 2}',
            "7",
            '{"n": 24, "d": 4.5, "classes": 2}',
            "[" * 100000 + "]" * 100000,
        ],
        ids=["null-n", "bare-number", "float-d", "nested-100000-deep"],
    )
    def test_malformed_bundle_meta_exit_one(self, tmp_path, capsys, meta):
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(**SBM_SPEC), bundle)
        (bundle / "meta.json").write_text(meta)
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "meta.json")

    @pytest.mark.parametrize("command", ["train", "gen-sbm"])
    def test_deeply_nested_config_exit_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "config is not valid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", ["train", "gen-sbm"])
    def test_non_utf8_config_names_the_file(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        cfg.write_bytes(b"\xff" + cfg.read_bytes())
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, f"config file {cfg}: not UTF-8 text (byte 0)")

    @needs_int_digit_limit
    @pytest.mark.parametrize("command", ["train", "gen-sbm"])
    def test_overlong_integer_in_config_exit_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "long.json"
        cfg.write_text('{"k": ' + "9" * 5000 + "}")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "config is not valid JSON: Exceeds the limit")

    @needs_int_digit_limit
    def test_overlong_integer_in_bundle_meta_exit_one(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(**SBM_SPEC), bundle)
        (bundle / "meta.json").write_text('{"n": ' + "9" * 5000 + ', "d": 4, "classes": 2}')
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "meta.json: invalid JSON (Exceeds the limit")

    @pytest.mark.parametrize("bad", ["inf", "-inf", "1e999", "nan"])
    def test_non_finite_bundle_feature_exit_one(self, tmp_path, capsys, bad):
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(**SBM_SPEC), bundle)
        lines = (bundle / "features.csv").read_text().splitlines()
        lines[3] = f"{bad},0,0,0"
        (bundle / "features.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)}, seeds=[0], epochs=2)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "features.csv line 4: non-finite feature")

    def test_unallocatable_size_exit_one(self, tmp_path, capsys):
        # 10 x 10**15 float64 features is 71 PiB, past any address space, so
        # the allocation fails at once whatever the overcommit policy.
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"sbm": dict(SBM_SPEC, block_sizes=[5, 5], feature_dim=10**15)}))
        assert main(["gen-sbm", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
        one_error_line(capsys, "Unable to allocate")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "command,extra",
        [("train", []), ("gen-sbm", []), ("diagnose-redundancy", ["--k-values", "2"])],
    )
    def test_unwritable_output_exit_one(self, tmp_path, capsys, command, extra):
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = write_config(tmp_path, seeds=[0], modes=["ingsl"], epochs=2)
        if command == "gen-sbm":
            cfg.write_text(json.dumps({"sbm": SBM_SPEC}))
        argv = [command, "--config", str(cfg), "--out", str(afile / "o"), *extra]
        assert main(argv) == 1
        one_error_line(capsys, "Not a directory")

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
        # Negative controls: ops whose backward rule is deliberately wrong,
        # one by a factor and one NaN, which no comparison ranks.
        def corrupt_square_check(grad):
            x = T.parameter(np.array([1.0, 2.0, 3.0]))

            def broken_square(t):
                out = T.Tensor(t.data**2)
                return T.record_op(out, (t,), lambda g: (grad(t.data) * g,), "broken")

            return lambda: T.gradient_check(lambda p: T.sum_all(broken_square(p)), [x])

        rows, ok = run_gradcheck_battery(
            list(default_battery(0))
            + [
                ("broken_square", corrupt_square_check(lambda x: 3.0 * x)),
                ("nan_square", corrupt_square_check(lambda x: np.full_like(x, np.nan))),
            ]
        )
        assert not ok
        failed = [r for r in rows if not r["pass"]]
        assert [r["op"] for r in failed] == ["broken_square", "nan_square"]
        assert np.isnan(failed[1]["max_rel_err"])

    def test_trials_keep_each_ops_worst_row(self, tmp_path, monkeypatch, capsys):
        # "flaky" reads finite in trial 0 and NaN in trial 1, and NaN is the
        # worse. "tied" reads 0.0 and then -0.0, equal, so trial 0's row stays.
        errors = {"flaky": [1e-9, float("nan")], "tied": [0.0, -0.0]}
        monkeypatch.setattr(
            cli, "default_battery", lambda seed: [(op, lambda e=e[seed]: e) for op, e in errors.items()]
        )
        assert main(["gradcheck", "--seed", "0", "--trials", "2", "--out", str(tmp_path)]) == 3
        assert re.search(r"^flaky +nan +FAIL$", capsys.readouterr().out, re.M)
        text = (tmp_path / "gradcheck.json").read_text()
        flaky, tied = json.loads(text)["rows"]
        assert flaky["op"] == "flaky" and np.isnan(flaky["max_rel_err"]) and flaky["pass"] is False
        assert tied["op"] == "tied" and tied["pass"] is True
        assert '"max_rel_err": 0.0,' in text and "-0.0" not in text


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
                        mode=mode, reduction=0.5, seed=0, k=3, hidden=4, epochs=2, lam=0.1,
                        metric=metric, scorer_kind=scorer_kind,
                    )
                    train_ingsl(g, tc)
        trained = set(seen)
        seen.clear()
        for _, check in default_battery(0):
            check()
        assert trained <= seen, sorted(trained - seen)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_rows_equal_their_taped_objectives(self, monkeypatch, seed):
        # An op row's weights 1, 2, ... and a vector stage's weights of ones
        # give the bits of the objectives that wrap the output in tape ops.
        real = T.gradient_check
        calls = []
        monkeypatch.setattr(
            T, "gradient_check", lambda f, xs, weights=None: calls.append((f, xs, weights)) or real(f, xs, weights)
        )
        battery = default_battery(seed)
        for _, check in battery:
            check()
        assert len(calls) == len(battery)
        calls = dict(zip([name for name, _ in battery], calls))
        vectors = {"scorer_bilinear", "scorer_mlp", "prune", "prune_pipeline"}
        assert {name for name, (_, _, w) in calls.items() if w is None} == {"gcn_forward+task_loss", "mi_loss"}
        for name, (f, inputs, w) in calls.items():
            if w is None:
                continue
            if name in vectors:
                assert np.array_equal(w, np.ones(w.shape))
                wrapped = lambda *x, f=f: T.sum_all(f(*x))  # noqa: E731
            else:
                out = f(*inputs)
                assert np.array_equal(w, np.arange(1.0, out.size + 1).reshape(out.shape))
                wrapped = lambda *x, f=f, w=w: T.sum_all(T.mul(f(*x), T.constant(w)))  # noqa: E731
            bits = [np.float64(real(*args)).view(np.uint64) for args in [(f, inputs, w), (wrapped, inputs)]]
            assert bits[0] == bits[1], name

    def test_battery_checks_both_sparse_product_paths(self, monkeypatch):
        # The shapes, not a switch, put one spmm and one sddmm instance on
        # each side of the dense-path size rule.
        calls = []
        for name in ("_densify", "_scatter_add", "_edge_dot"):
            real = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
        kernels = {}
        for name, check in default_battery(0):
            if name.startswith(("spmm", "sddmm")):
                calls.clear()
                check()
                kernels[name] = set(calls)
        exact = {"_scatter_add", "_edge_dot"}
        assert kernels == {
            "spmm": {"_densify"}, "sddmm": {"_densify"}, "spmm_sparse": exact, "sddmm_sparse": exact,
        }


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
            classes=3,
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

    def test_diagnose_redundancy_leaves_out_zero_rows(self, tmp_path, capsys):
        # On the criterion-6 SBM, seed 0's encoder ends with all-zero rows;
        # the profile leaves them out and says how many.
        dataset = experiment_config("clean_r50")["dataset"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": dataset, "k": 30, "lambda": 0.3, "metric": "cosine"}))
        out = tmp_path / "diag"
        argv = ["diagnose-redundancy", "--config", str(cfg), "--out", str(out), "--seed", "0"]
        assert main(argv) == 0
        assert "embedding rows with zero norm" in capsys.readouterr().out
        lines = (out / "redundancy.csv").read_text().splitlines()
        assert lines[0] == "k,mean_pairwise_cosine" and len(lines) == 5

    def test_diagnose_redundancy_trains_on_the_noisy_graph(self, tmp_path):
        # The profile comes from the graph a train cell of the same seed
        # would see: noise applied, edges deleted and features masked.
        noise = {"del_ratio": 1.0, "feature_mask_ratio": 0.5}
        cfg_path = write_config(tmp_path, seeds=[3], epochs=4, noise=noise)
        out = tmp_path / "diag"
        argv = ["diagnose-redundancy", "--config", str(cfg_path), "--out", str(out),
                "--k-values", "2,5"]
        assert main(argv) == 0
        cfg = parse_config(json.loads(cfg_path.read_text()))
        noisy = cli._apply_noise(cli.resolve_dataset(cfg), noise, 3)
        result = train_ingsl(noisy, cfg.train_config("no_reduction", 0.0, 3))
        want = redundancy_profile(result.embeddings, [2, 5])
        lines = (out / "redundancy.csv").read_text().splitlines()
        assert lines[1:] == [f"{k},{v!r}" for k, v in want]

    def test_diagnose_redundancy_k_above_non_zero_rows(self, tmp_path, capsys, monkeypatch):
        real_train = cli.train_ingsl

        def train_with_zero_rows(*args):
            result = real_train(*args)
            result.embeddings[4:] = 0.0
            return result

        monkeypatch.setattr(cli, "train_ingsl", train_with_zero_rows)
        cfg = write_config(tmp_path, seeds=[0], epochs=2)
        argv = ["diagnose-redundancy", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--k-values", "2,4"]
        assert main(argv) == 1
        one_error_line(capsys, "--k-values")


BUNDLE_FILES = ["edges.tsv", "features.csv", "labels.csv", "masks.csv"]
JUNK = st.sampled_from(
    [b"", b"nan", b"inf", b"-inf", b"1e999", b"-1", b"99", b"0 0", b"1\t2\t3", b"1,2",
     b"train", b"val ", b"\xff\xfe", b"\xc3", b"\x00", b"\r"]
) | st.binary(max_size=8) | st.text(max_size=8).map(str.encode)
# (file, edit, position taken modulo the file's bytes or lines, junk bytes)
CORRUPTIONS = st.lists(
    st.tuples(
        st.sampled_from(BUNDLE_FILES),
        st.sampled_from(["truncate", "garble", "insert", "drop", "duplicate"]),
        st.integers(0, 10**6),
        JUNK,
    ),
    min_size=1,
    max_size=3,
)


def corrupt(data: bytes, edit: str, pos: int, junk: bytes) -> bytes:
    if edit == "truncate":
        return data[: pos % (len(data) + 1)]
    if edit == "insert":
        at = pos % (len(data) + 1)
        return data[:at] + junk + data[at:]
    lines = data.split(b"\n")
    i = pos % len(lines)
    if edit == "garble":
        lines[i] = junk
    elif edit == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return b"\n".join(lines)


class TestCorruptedBundles:
    @settings(max_examples=150, deadline=None)
    @given(CORRUPTIONS)
    def test_train_exits_with_a_code_and_one_line(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = Path(tmp) / "bundle"
            save_bundle(generate_sbm(**SBM_SPEC), bundle)
            for name, edit, pos, junk in edits:
                path = bundle / name
                path.write_bytes(corrupt(path.read_bytes(), edit, pos, junk))
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(base_config(
                dataset={"bundle": str(bundle)}, seeds=[0], modes=["ingsl"], k=3,
                epochs=2, patience=2, hidden=4,
            )))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["train", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), err.getvalue()


    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_non_utf8_file_names_the_file(self, tmp_path, capsys, name):
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(**SBM_SPEC), bundle)
        path = bundle / name
        path.write_bytes(b"\xff" + path.read_bytes())
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, f"{name}: not UTF-8 text (byte 0)")

    def test_line_number_is_the_editor_line(self, tmp_path, capsys):
        # \x1c is a line break to str.splitlines but not to an editor.
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(**SBM_SPEC), bundle)
        path = bundle / "masks.csv"
        lines = path.read_text().split("\n")
        lines[2] = "train\x1ctest"
        path.write_text("\n".join(lines))
        cfg = write_config(tmp_path, dataset={"bundle": str(bundle)})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        one_error_line(capsys, "masks.csv line 3: unknown split 'train\\x1ctest'")


class TestGenSbm:
    def test_bundle_roundtrip(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"sbm": SBM_SPEC}))
        out = tmp_path / "bundle"
        assert main(["gen-sbm", "--config", str(gen_cfg), "--out", str(out)]) == 0
        g = load_bundle(out)
        assert g.n == 24 and g.classes == 2
