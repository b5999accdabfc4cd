import hashlib
import json
import os
import stat
import threading

import numpy as np
import pytest

from reachmap import dataset_to_csv, load_dataset_csv, load_model
from reachmap import cli
from reachmap.cli import main, parse_args
from conftest import CSV_MUTATIONS, mutate_csv, random_dataset

REGIONAL_CFG = "effect_preset = regional\nnoise_sigma = 0.1\n"


class TestParseArgs:
    def test_gen_command(self):
        ns = parse_args(
            "gen --dgp regional.cfg --n0 1000 --n1 1000 --seed 3 --out d.csv".split()
        )
        assert vars(ns) == {"command": "gen", "dgp": "regional.cfg", "n0": 1000,
                            "n1": 1000, "seed": 3, "out": "d.csv"}

    def test_fit_command_without_seed_parses(self):
        ns = parse_args(
            "fit --data d.csv --model causal_tree --max-depth 6 --out m.json".split()
        )
        given = {k: v for k, v in vars(ns).items() if v is not None}
        assert given == {"command": "fit", "data": "d.csv", "model": "causal_tree",
                         "max_depth": 6, "out": "m.json"}
        assert ns.seed is None

    def test_predict_command(self):
        ns = parse_args("predict --model m.json --x 0.1 --y 0.2 --z 0.0".split())
        assert vars(ns) == {"command": "predict", "model": "m.json",
                            "x": 0.1, "y": 0.2, "z": 0.0}

    def test_bench_command(self):
        ns = parse_args("bench --config b.json --out t.csv".split())
        assert vars(ns) == {"command": "bench", "config": "b.json", "out": "t.csv"}

    def test_map_command(self):
        ns = parse_args(
            "map --model m.json --z-slice 0.1 --out-svg m.svg --out-csv m.csv".split()
        )
        assert vars(ns) == {"command": "map", "model": "m.json", "z_slice": 0.1,
                            "resolution": 0.05, "out_svg": "m.svg", "out_csv": "m.csv"}

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args("fit --bogus 1".split())
        assert exc.value.code == 2

    def test_flag_for_wrong_model_exits_2(self):
        argv = "fit --data d.csv --model t_knn --max-depth 3 --seed 1 --out m.json"
        with pytest.raises(SystemExit) as exc:
            parse_args(argv.split())
        assert exc.value.code == 2

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--help"])
        assert exc.value.code == 0

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_map_requires_an_output(self):
        with pytest.raises(SystemExit) as exc:
            parse_args("map --model m.json --z-slice 0.1".split())
        assert exc.value.code == 2


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "regional.cfg").write_text(REGIONAL_CFG)
    return tmp_path


def run(args):
    """``main``'s return code, or the code of the ``SystemExit`` a usage error raises."""
    try:
        return main([str(a) for a in args])
    except SystemExit as e:
        return e.code


SMALL_BENCH = {
    "dgp": {"effect_preset": "regional", "noise_sigma": 0.1},
    "models": [{"kind": "causal_tree", "max_depth": 2, "min_group_leaf": 2}, {"kind": "t_knn"}],
    "n_control": 60, "n_individual": 60,
    "runs": 2, "holdout_points": 20, "master_seed": 5,
}


def file_digests(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


class TestPipeline:
    def test_gen_fit_predict_map_bench(self, workdir, capsys):
        data = workdir / "d.csv"
        model = workdir / "m.json"

        assert run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 300,
                    "--n1", 300, "--seed", 3, "--out", data]) == 0
        assert data.exists()
        sidecar = workdir / "d.truth.cfg"
        assert sidecar.read_text().splitlines()[5] == "effect_preset = regional"
        assert len(load_dataset_csv(data)) == 600

        assert run(["fit", "--data", data, "--model", "causal_tree",
                    "--max-depth", 3, "--seed", 7, "--out", model]) == 0
        fitted = load_model(model)
        assert fitted.params.max_depth == 3

        capsys.readouterr()
        assert run(["predict", "--model", model, "--x", 0.1, "--y", 0.1, "--z", 0.3]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("tau_hat_s=")
        value_part, leaf_part = line.split(" ")
        float(value_part.split("=")[1])
        assert leaf_part.startswith("leaf_id=")
        assert int(leaf_part.split("=")[1]) >= 0

        svg = workdir / "m.svg"
        csv_out = workdir / "m.csv"
        assert run(["map", "--model", model, "--z-slice", 0.1,
                    "--out-svg", svg, "--out-csv", csv_out]) == 0
        assert svg.read_bytes().startswith(b"<?xml")
        assert csv_out.read_text().splitlines()[0] == "x_m,y_m,z_m,dist_m,tau_hat_s,leaf_id"

        bench_cfg = workdir / "bench.json"
        bench_cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional", "noise_sigma": 0.1},
            "models": [
                {"kind": "causal_tree", "max_depth": 2, "min_group_leaf": 2},
                {"kind": "t_knn"},
            ],
            "n_control": 80, "n_individual": 80,
            "runs": 3, "holdout_points": 50, "master_seed": 5,
        }))
        bench_out = workdir / "bench.csv"
        capsys.readouterr()
        assert run(["bench", "--config", bench_cfg, "--out", bench_out]) == 0
        table = capsys.readouterr().out
        lines = table.splitlines()
        assert lines[0].startswith("Model")
        assert any(l.startswith("causal_tree") and l.rstrip().endswith("--") for l in lines)
        assert bench_out.read_text().splitlines()[0] == "model,mean_r2,stderr_r2,p_vs_reference"
        assert len(bench_out.read_text().splitlines()) == 3

    def test_predict_t_learner_reports_no_leaf(self, workdir, capsys):
        data = workdir / "d.csv"
        model = workdir / "m.json"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 60, "--n1", 60,
             "--seed", 1, "--out", data])
        assert run(["fit", "--data", data, "--model", "t_knn", "--k", 3,
                    "--seed", 2, "--out", model]) == 0
        capsys.readouterr()
        run(["predict", "--model", model, "--x", 0, "--y", 0.1, "--z", 0.1])
        assert capsys.readouterr().out.strip().endswith("leaf_id=none")


class TestErrors:
    def test_missing_seed_is_domain_error(self, workdir, capsys):
        data = workdir / "d.csv"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 40, "--n1", 40,
             "--seed", 1, "--out", data])
        capsys.readouterr()
        code = run(["fit", "--data", data, "--model", "causal_tree",
                    "--out", workdir / "m.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: MissingSeed:")

    def test_fit_single_group_csv(self, workdir, capsys):
        d = random_dataset(np.random.default_rng(1), 10, 10)
        only_control = d.subset(np.nonzero(d.groups == 0)[0])
        data = workdir / "ctl.csv"
        data.write_text(dataset_to_csv(only_control))
        capsys.readouterr()
        code = run(["fit", "--data", data, "--model", "causal_tree",
                    "--seed", 1, "--out", workdir / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MissingGroup:")
        assert "\n" not in err.strip()

    def test_missing_input_file(self, workdir, capsys):
        code = run(["fit", "--data", workdir / "nope.csv", "--model", "causal_tree",
                    "--seed", 1, "--out", workdir / "m.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: IOError:")

    def test_malformed_model_document(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        code = run(["predict", "--model", bad, "--x", 0, "--y", 0, "--z", 0])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: MalformedModel:")

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("causal_tree", "threshold", float("nan")),
            ("causal_tree", "tau_hat", float("inf")),
            ("t_knn", "outcomes", float("-inf")),
            ("causal_tree", "threshold", 10**400),  # an integer beyond float range
        ],
        ids=["nan-threshold", "inf-tau_hat", "neg-inf-knn-outcome", "huge-int-threshold"],
    )
    def test_non_finite_model_number(self, workdir, capsys, kind, field, value):
        data, model = workdir / "d.csv", workdir / "m.json"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 60, "--n1", 60,
             "--seed", 1, "--out", data])
        run(["fit", "--data", data, "--model", kind, "--seed", 1, "--out", model])
        doc = json.loads(model.read_text())
        if kind == "t_knn":
            doc["model_control"]["outcomes"][0] = value
        else:
            node = doc["root"]
            while field not in node:  # the leftmost leaf holds tau_hat
                node = node["left"]
            node[field] = value
        model.write_text(json.dumps(doc))  # writes NaN, Infinity, -Infinity
        capsys.readouterr()
        code = run(["predict", "--model", model, "--x", 0.1, "--y", 0.2, "--z", 0.1])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedModel:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize(
        "edit, path",
        [({"leaf_ids": -7}, "$.root.left.left.leaf_id"),
         ({"feature_names": ["dist", "z", "y", "x"]}, "$.feature_names")],
        ids=["leaf-id", "feature-names"],
    )
    def test_model_contract_violations(self, workdir, capsys, edit, path):
        # a depth-2 tree: its first leaf in pre-order is the root's left-left one
        model = workdir / "m.json"
        data = workdir / "d.csv"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 200, "--n1", 200,
             "--seed", 1, "--out", data])
        run(["fit", "--data", data, "--model", "causal_tree", "--max-depth", 2,
             "--seed", 1, "--out", model])
        doc = json.loads(model.read_text())
        assert doc["root"]["left"]["left"]["kind"] == "leaf"
        if "leaf_ids" in edit:
            stack = [doc["root"]]
            while stack:
                node = stack.pop()
                if node["kind"] == "leaf":
                    node["leaf_id"] = edit["leaf_ids"]
                else:
                    stack += [node["left"], node["right"]]
        else:
            doc.update(edit)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["predict", "--x", 0.1, "--y", 0.2, "--z", 0.1],
                     ["map", "--z-slice", 0.2, "--out-csv", workdir / "map.csv"]):
            assert run([*argv, "--model", model]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: MalformedModel: {path}:")
            assert "\n" not in err.strip()
        assert not (workdir / "map.csv").exists()

    @pytest.mark.parametrize("edit", ["roots", "kind"])
    def test_t_forest_members_and_base_kind(self, workdir, capsys, edit):
        data, model, knn = workdir / "d.csv", workdir / "m.json", workdir / "knn.json"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 40, "--n1", 40,
             "--seed", 1, "--out", data])
        run(["fit", "--data", data, "--model", "t_forest", "--n-trees", 3, "--seed", 1,
             "--out", model])
        run(["fit", "--data", data, "--model", "t_knn", "--seed", 1, "--out", knn])
        doc = json.loads(model.read_text())
        if edit == "roots":
            doc["model_individual"]["roots"] *= 400  # 1,200 members, past MAX_TREES
        else:
            doc["model_individual"] = json.loads(knn.read_text())["model_individual"]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["predict", "--model", model, "--x", 0.1, "--y", 0.2, "--z", 0.1])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: MalformedModel: $.model_individual.{edit}:")

    def test_causal_forest_member_params(self, workdir, capsys):
        data, model = workdir / "d.csv", workdir / "m.json"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 300, "--n1", 300,
             "--seed", 3, "--out", data])
        run(["fit", "--data", data, "--model", "causal_forest", "--n-trees", 3, "--seed", 3,
             "--out", model])
        doc = json.loads(model.read_text())
        doc["trees"][1]["params"].update(max_depth=40, min_group_leaf=999, honest_fraction=0.01,
                                         seed=0)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["predict", "--model", model, "--x", 0.1, "--y", 0.2, "--z", 0.1]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: MalformedModel: $.trees[1].params: expected ")

    def test_malformed_dgp_config(self, workdir, capsys):
        cfg = workdir / "bad.cfg"
        cfg.write_text("effect_preset = haunted\n")
        code = run(["gen", "--dgp", cfg, "--n0", 10, "--n1", 10, "--seed", 1,
                    "--out", workdir / "d.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: MalformedConfig:")

    def test_map_grid_over_cell_bound(self, workdir, capsys):
        data, model = workdir / "d.csv", workdir / "m.json"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 30, "--n1", 30,
             "--seed", 1, "--out", data])
        run(["fit", "--data", data, "--model", "causal_tree", "--seed", 1,
             "--out", model])
        capsys.readouterr()
        code = run(["map", "--model", model, "--z-slice", 0.1, "--resolution", 1e-4,
                    "--out-csv", workdir / "map.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidResolution:")
        assert "\n" not in err.strip()
        assert not (workdir / "map.csv").exists()

    def test_deeply_nested_model_document(self, workdir, capsys):
        model = workdir / "deep.json"
        leaf = json.dumps({"kind": "leaf", "leaf_id": 0, "tau_hat": 0.0, "n_individual": 5,
                           "n_control": 5, "mean_individual": 1.0, "mean_control": 1.0})
        # an internal node whose left child is the next level, 3,000 levels deep
        node = ('{"kind": "internal", "feature_index": 0, "threshold": 0.0, "gain": 1.0, '
                f'"right": {leaf}, "left": ')
        model.write_text(
            '{"format_version": 1, "kind": "causal_tree", "feature_names": '
            '["x", "y", "z", "dist"], "params": {"max_depth": 6, "min_group_leaf": 5, '
            '"honest_fraction": 0.5, "seed": 0}, "root": '
            + node * 3000 + leaf + "}" * 3000 + "}"
        )
        code = run(["predict", "--model", model, "--x", 0, "--y", 0, "--z", 0])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedModel:")
        assert "\n" not in err.strip()

    def test_deeply_nested_bench_config(self, workdir, capsys):
        cfg = workdir / "bench.json"
        cfg.write_text(
            '{"dgp": {"effect_preset": "regional", "noise_sigma": '
            + "[" * 5000 + "]" * 5000
            + '}, "models": [{"kind": "t_knn"}], "n_control": 10, '
            '"n_individual": 10, "master_seed": 1}'
        )
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedConfig:")
        assert "\n" not in err.strip()

    def test_oversized_csv_field(self, workdir, capsys):
        data = workdir / "d.csv"
        text = dataset_to_csv(random_dataset(np.random.default_rng(2), 10, 10))
        data.write_text(text + "1" * 200_000 + ",0,0,0,0,1\n")
        code = run(["fit", "--data", data, "--model", "causal_tree", "--seed", 1,
                    "--out", workdir / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidSample:")
        assert "\n" not in err.strip()

    def test_predict_overflowing_dist(self, workdir, capsys):
        data, model = workdir / "d.csv", workdir / "m.json"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 30, "--n1", 30,
             "--seed", 1, "--out", data])
        run(["fit", "--data", data, "--model", "causal_tree", "--seed", 1,
             "--out", model])
        capsys.readouterr()
        code = run(["predict", "--model", model, "--x", 1e200, "--y", 0, "--z", 0])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidFeature:")
        assert "\n" not in captured.err.strip()

    def test_gen_over_sample_bound(self, workdir, capsys):
        code = run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 10**13,
                    "--n1", 10, "--seed", 1, "--out", workdir / "d.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidValue:")
        assert "\n" not in err.strip()
        assert not (workdir / "d.csv").exists()

    def test_bench_over_sample_bound(self, workdir, capsys):
        cfg = workdir / "bench.json"
        cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional"},
            "models": [{"kind": "t_knn"}],
            "n_control": 10, "n_individual": 10**13, "master_seed": 1,
        }))
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BenchmarkError:") and "at most" in err
        assert "\n" not in err.strip()
        assert not (workdir / "out.csv").exists()

    def test_bench_missing_master_seed(self, workdir, capsys):
        cfg = workdir / "bench.json"
        cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional"},
            "models": [{"kind": "causal_tree"}],
            "n_control": 10, "n_individual": 10,
        }))
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        assert "master_seed" in capsys.readouterr().err

    def test_bench_negative_master_seed(self, workdir, capsys):
        cfg = workdir / "bench.json"
        cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional"},
            "models": [{"kind": "causal_tree"}],
            "n_control": 10, "n_individual": 10, "master_seed": -5,
        }))
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: MalformedConfig: $.master_seed: expected a non-negative integer, got -5\n"
        )
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize(
        "model, dgp, where",
        [
            ({"kind": "t_forest", "n_trees": 2, "features_per_split": 2.0}, {},
             "$.models[0].features_per_split"),
            ({"kind": "t_knn", "k": 2.0}, {}, "$.models[0].k"),
            ({"kind": "causal_tree", "max_depth": 2.5}, {}, "$.models[0].max_depth"),
            ({"kind": "causal_tree", "max_depth": True}, {}, "$.models[0].max_depth"),
            ({"kind": "t_knn", "standardize": "no"}, {}, "$.models[0].standardize"),
            ({"kind": "causal_forest", "n_trees": 2.7}, {}, "$.models[0].n_trees"),
            ({"kind": "causal_tree"}, {"noise_sigma": float("nan")}, "$.dgp.noise_sigma"),
        ],
        ids=["features_per_split", "k", "max_depth-float", "max_depth-bool", "standardize",
             "forest-n_trees", "dgp-nan"],
    )
    def test_bench_config_value_of_wrong_type(self, workdir, capsys, model, dgp, where):
        cfg = workdir / "bench.json"
        cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional", **dgp}, "models": [model],
            "n_control": 20, "n_individual": 20, "runs": 2, "holdout_points": 10,
            "master_seed": 1,
        }))
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedConfig: {where}:")
        assert "\n" not in err.strip()
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize(
        "line, where",
        [("noise_sigma = nan", "$.noise_sigma"), ("baseline_a = nan", "$.baseline_a"),
         ("floor = inf", "$.floor"), ("baseline_w = 0", "baseline w must be > 0")],
    )
    def test_dgp_config_bad_value(self, workdir, capsys, line, where):
        cfg = workdir / "bad.cfg"
        cfg.write_text(f"effect_preset = regional\n{line}\n")
        code = run(["gen", "--dgp", cfg, "--n0", 10, "--n1", 10, "--seed", 1,
                    "--out", workdir / "d.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedConfig:") and where in err
        assert "\n" not in err.strip()
        assert not (workdir / "d.csv").exists()

    @pytest.mark.parametrize("model", ["causal_forest", "t_forest"])
    def test_fit_over_tree_bound(self, workdir, capsys, model):
        data = workdir / "d.csv"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 30, "--n1", 30,
             "--seed", 1, "--out", data])
        capsys.readouterr()
        code = run(["fit", "--data", data, "--model", model, "--n-trees", 1001,
                    "--seed", 1, "--out", workdir / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidValue: n_trees must be in 1..1000")
        assert "\n" not in err.strip()
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize(
        "change, where",
        [
            ({"runs": 1001}, "runs must be in 2..1000"),
            ({"holdout_points": 1_000_001}, "holdout_points must be in 2..1000000"),
            ({"models": [{"kind": "causal_forest", "n_trees": 1001}]},
             "$.models[0]: n_trees must be in 1..1000"),
            ({"models": [{"kind": "t_forest", "n_trees": 1001}]},
             "$.models[0]: n_trees must be in 1..1000"),
        ],
        ids=["runs", "holdout_points", "causal_forest", "t_forest"],
    )
    def test_bench_over_bound(self, workdir, capsys, change, where):
        cfg = workdir / "bench.json"
        cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional"}, "models": [{"kind": "t_knn"}],
            "n_control": 10, "n_individual": 10, "master_seed": 1, **change,
        }))
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedConfig:") and where in err
        assert "\n" not in err.strip()
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", 'a"b'],
                             ids=["comma", "newline", "carriage-return", "quote"])
    def test_bench_model_name_breaking_csv(self, workdir, capsys, name):
        cfg = workdir / "bench.json"
        cfg.write_text(json.dumps({
            "dgp": {"effect_preset": "regional"},
            "models": [{"kind": "t_knn"}, {"kind": "t_knn", "name": name}],
            "n_control": 10, "n_individual": 10, "runs": 2, "holdout_points": 10,
            "master_seed": 1,
        }))
        code = run(["bench", "--config", cfg, "--out", workdir / "out.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedConfig: $.models[1]:")
        assert "\n" not in err.strip()
        assert not (workdir / "out.csv").exists()


class TestDeterminism:
    def test_gen_and_fit_are_reproducible(self, workdir):
        out_a, out_b = workdir / "a.csv", workdir / "b.csv"
        for out in (out_a, out_b):
            run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 50, "--n1", 50,
                 "--seed", 9, "--out", out])
        assert out_a.read_bytes() == out_b.read_bytes()

        model_a, model_b = workdir / "a.json", workdir / "b.json"
        for data, model in ((out_a, model_a), (out_b, model_b)):
            run(["fit", "--data", data, "--model", "causal_tree", "--seed", 4,
                 "--out", model])
        assert model_a.read_bytes() == model_b.read_bytes()

    def test_bare_cr_line_endings_fit_like_lf(self, workdir):
        text = dataset_to_csv(random_dataset(np.random.default_rng(3), 30, 30, effect=0.4))
        models = []
        for name, ending in (("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n")):
            data, model = workdir / f"{name}.csv", workdir / f"{name}.json"
            data.write_bytes(text.replace("\n", ending).encode())
            assert run(["fit", "--data", data, "--model", "causal_tree", "--seed", 4,
                        "--out", model]) == 0
            models.append(model.read_bytes())
        assert models[1] == models[0] and models[2] == models[0]

    def test_inputs_never_mutated(self, workdir):
        (workdir / "bench.json").write_text(json.dumps(SMALL_BENCH))
        steps = [
            ("regional.cfg", ["gen", "--dgp", workdir / "regional.cfg", "--n0", 40, "--n1", 40,
                              "--seed", 1, "--out", workdir / "d.csv"]),
            ("d.csv", ["fit", "--data", workdir / "d.csv", "--model", "t_cart", "--seed", 3,
                       "--out", workdir / "m.json"]),
            ("m.json", ["predict", "--model", workdir / "m.json",
                        "--x", 0.1, "--y", 0.1, "--z", 0.1]),
            ("m.json", ["map", "--model", workdir / "m.json", "--z-slice", 0.1,
                        "--resolution", 0.1, "--out-svg", workdir / "m.svg"]),
            ("bench.json", ["bench", "--config", workdir / "bench.json",
                            "--out", workdir / "b.csv"]),
        ]
        for name, argv in steps:
            before = file_digests(workdir)[name]
            assert run(argv) == 0
            assert file_digests(workdir)[name] == before


@pytest.fixture
def inputs(workdir):
    """``workdir`` holding a DGP config, a dataset, a model and a bench config."""
    assert run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 40, "--n1", 40,
                "--seed", 1, "--out", workdir / "d.csv"]) == 0
    assert run(["fit", "--data", workdir / "d.csv", "--model", "causal_tree",
                "--max-depth", 2, "--seed", 2, "--out", workdir / "m.json"]) == 0
    (workdir / "bench.json").write_text(json.dumps(SMALL_BENCH))
    return workdir


class TestFileSafety:
    """Outputs take the mode ``open`` gives, and never overwrite an input or
    another output of the same command."""

    #: (argv, the error line): each output path names an input or another output
    CLASHES = [
        ("gen --dgp d.truth.cfg --n0 40 --n1 40 --seed 1 --out d.csv",
         "the --out sidecar and --dgp name the same file: d.truth.cfg"),
        ("gen --dgp regional.cfg --n0 40 --n1 40 --seed 1 --out regional.cfg",
         "--out and --dgp name the same file: regional.cfg"),
        ("fit --data d.csv --model causal_tree --seed 1 --out d.csv",
         "--out and --data name the same file: d.csv"),
        ("fit --data d.csv --model causal_tree --seed 1 --out ./sub/../d.csv",
         "--out and --data name the same file: ./sub/../d.csv"),
        ("fit --data d.csv --model causal_tree --seed 1 --out hard.csv",
         "--out and --data name the same file: hard.csv"),
        ("fit --data d.csv --model causal_tree --seed 1 --out link.csv",
         "--out and --data name the same file: link.csv"),
        ("map --model m.json --z-slice 0.1 --out-svg p --out-csv p",
         "--out-csv and --out-svg name the same file: p"),
        ("map --model m.json --z-slice 0.1 --out-csv m.json",
         "--out-csv and --model name the same file: m.json"),
        ("bench --config bench.json --out bench.json",
         "--out and --config name the same file: bench.json"),
    ]

    @pytest.mark.parametrize("argv, line", CLASHES, ids=[
        "gen-sidecar", "gen-out", "fit", "fit-dotted", "fit-hard-link", "fit-symlink",
        "map-outputs", "map-model", "bench"])
    def test_output_naming_an_input_or_output_is_refused(
            self, inputs, capsys, monkeypatch, argv, line):
        for cfg in ("regional.cfg", "d.truth.cfg"):
            text = (inputs / cfg).read_text()
            (inputs / cfg).write_text("# the user's own notes\n" + text)
        os.link(inputs / "d.csv", inputs / "hard.csv")
        os.symlink("d.csv", inputs / "link.csv")
        (inputs / "sub").mkdir()
        before = file_digests(inputs)
        monkeypatch.chdir(inputs)
        capsys.readouterr()
        assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"reachmap: error: {line}"
        assert file_digests(inputs) == before

    #: (argv, the error line): an output path names a directory or a link to one
    DIRECTORIES = [
        ("gen --dgp regional.cfg --n0 40 --n1 40 --seed 1 --out outdir",
         "--out names a directory: outdir"),
        ("gen --dgp regional.cfg --n0 40 --n1 40 --seed 1 --out dirlink",
         "--out names a directory: dirlink"),
        ("gen --dgp regional.cfg --n0 40 --n1 40 --seed 1 --out side.csv",
         "the --out sidecar names a directory: side.truth.cfg"),
        ("fit --data d.csv --model causal_tree --seed 1 --out outdir",
         "--out names a directory: outdir"),
        ("map --model m.json --z-slice 0.1 --out-svg dirlink",
         "--out-svg names a directory: dirlink"),
        ("map --model m.json --z-slice 0.1 --out-svg p.svg --out-csv outdir",
         "--out-csv names a directory: outdir"),
        ("bench --config bench.json --out outdir",
         "--out names a directory: outdir"),
    ]

    @pytest.mark.parametrize("argv, line", DIRECTORIES, ids=[
        "gen", "gen-link", "gen-sidecar", "fit", "map-svg-link", "map-csv", "bench"])
    def test_output_naming_a_directory_is_refused(self, inputs, capsys, monkeypatch, argv, line):
        (inputs / "outdir").mkdir()
        (inputs / "side.truth.cfg").mkdir()
        os.symlink("outdir", inputs / "dirlink")
        before = file_digests(inputs), sorted(inputs.rglob("*"))
        monkeypatch.chdir(inputs)

        def no_draws(*args):
            raise AssertionError("generate_dataset called")

        monkeypatch.setattr(cli, "generate_dataset", no_draws)
        capsys.readouterr()
        assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"reachmap: error: {line}"
        assert (file_digests(inputs), sorted(inputs.rglob("*"))) == before

    def test_outputs_are_written_through_symlinks(self, inputs, monkeypatch):
        monkeypatch.chdir(inputs)
        os.symlink("target.json", "link.json")  # dangling until the first fit
        fit = "fit --data d.csv --model causal_tree --max-depth 2 --seed 2 --out link.json"
        for _ in ("new", "overwrite"):
            assert run(fit.split()) == 0
            assert os.readlink("link.json") == "target.json"
            # m.json is the same fit, written directly
            assert (inputs / "target.json").read_bytes() == (inputs / "m.json").read_bytes()
            (inputs / "target.json").write_text("stale")

    @pytest.mark.parametrize("umask", [0o022, 0o007], ids=["umask-022", "umask-007"])
    def test_outputs_take_the_mode_open_gives(self, workdir, umask):
        old = os.umask(umask)
        try:
            with open(workdir / "sibling", "w"):
                pass
            expected = stat.S_IMODE(os.stat(workdir / "sibling").st_mode)
            (workdir / "bench.json").write_text(json.dumps(SMALL_BENCH))
            commands = [
                ["gen", "--dgp", workdir / "regional.cfg", "--n0", 40, "--n1", 40,
                 "--seed", 1, "--out", workdir / "d.csv"],
                ["fit", "--data", workdir / "d.csv", "--model", "causal_tree",
                 "--max-depth", 2, "--seed", 2, "--out", workdir / "m.json"],
                ["map", "--model", workdir / "m.json", "--z-slice", 0.1, "--resolution", 0.1,
                 "--out-svg", workdir / "m.svg", "--out-csv", workdir / "m.csv"],
                ["bench", "--config", workdir / "bench.json", "--out", workdir / "b.csv"],
            ]
            outputs = ["d.csv", "d.truth.cfg", "m.json", "m.svg", "m.csv", "b.csv"]
            for _ in ("new", "overwrite"):
                for argv in commands:
                    assert run(argv) == 0
                modes = {name: stat.S_IMODE(os.stat(workdir / name).st_mode) for name in outputs}
                assert modes == dict.fromkeys(outputs, expected)
        finally:
            os.umask(old)
        assert expected == 0o666 & ~umask


class TestDatasetInput:
    #: the mutations whose file the row parser accepts
    ACCEPTED = {
        "quoted", "quoted_newline", "spaces", "underscore", "crlf", "cr", "no_final_newline",
    }

    @pytest.mark.parametrize("kind", CSV_MUTATIONS)
    def test_mutated_dataset_exits_cleanly(self, workdir, capsys, kind):
        text = dataset_to_csv(random_dataset(np.random.default_rng(5), 40, 40, effect=0.4))
        data = workdir / "d.csv"
        data.write_bytes(mutate_csv(text, kind, 20))
        code = run(["fit", "--data", data, "--model", "causal_tree", "--seed", 1,
                    "--out", workdir / "m.json"])
        out, err = capsys.readouterr()
        assert code == (0 if kind in self.ACCEPTED else 1)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ")
            assert "\n" not in err.strip()
        assert "Traceback" not in out + err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_dataset_from_a_fifo_fits_as_the_file(self, workdir, ending):
        # a pipe cannot seek, so it must go straight to the row parser: a
        # CRLF text leaves the strict form at its header, and falling back
        # from there would rewind
        text = dataset_to_csv(random_dataset(np.random.default_rng(6), 1500, 1500, effect=0.4))
        raw = text.replace("\n", ending).encode()
        data, fifo = workdir / "d.csv", workdir / "d.fifo"
        data.write_bytes(raw)
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as f:
                f.write(raw)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            assert run(["fit", "--data", fifo, "--model", "causal_tree", "--seed", 2,
                        "--out", workdir / "fifo.json"]) == 0
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert run(["fit", "--data", data, "--model", "causal_tree", "--seed", 2,
                    "--out", workdir / "file.json"]) == 0
        assert (workdir / "fifo.json").read_bytes() == (workdir / "file.json").read_bytes()


class TestArgumentValidation:
    def test_non_finite_coordinate_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args("predict --model m.json --x nan --y 0 --z 0".split())
        assert exc.value.code == 2

    def test_non_finite_slice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args("map --model m.json --z-slice inf --out-svg a.svg".split())
        assert exc.value.code == 2

    def test_domain_value_errors_are_single_line(self, workdir, capsys):
        code = run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 0,
                    "--n1", 10, "--seed", 1, "--out", workdir / "d.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidValue:")
        assert "\n" not in err.strip()

    def test_bad_hyperparameter_value_single_line(self, workdir, capsys):
        data = workdir / "d.csv"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 30, "--n1", 30,
             "--seed", 1, "--out", data])
        capsys.readouterr()
        code = run(["fit", "--data", data, "--model", "causal_tree",
                    "--max-depth", -2, "--seed", 1, "--out", workdir / "m.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: InvalidValue:")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A 60 + 60 regional dataset and a causal tree fitted on it."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "regional.cfg").write_text(REGIONAL_CFG)
    assert run(["gen", "--dgp", d / "regional.cfg", "--n0", 60, "--n1", 60,
                      "--seed", 1, "--out", d / "d.csv"]) == 0
    assert run(["fit", "--data", d / "d.csv", "--model", "causal_tree",
                      "--seed", 2, "--out", d / "m.json"]) == 0
    return d


#: (command, flags, exit code).  ``gen`` draws 60 individual samples, ``fit``
#: reads the 60 + 60 dataset, ``predict`` queries (0, 0.1, 0.2) unless the
#: flags move it and ``map`` writes a CSV of the 0.2 m slice at 0.05 m unless
#: the flags say otherwise; a later flag overrides an earlier one.
FLAG_CASES = [
    ("fit", "--model t_knn --k 0", 1),
    ("fit", "--model t_knn --k -1", 1),
    ("fit", "--model t_knn --k 1e9", 2),
    ("fit", "--model t_knn --k 1000", 0),
    ("fit", "--model causal_tree --max-depth -1", 1),
    ("fit", "--model causal_tree --max-depth 0", 0),
    ("fit", "--model causal_tree --max-depth 100000", 0),
    ("fit", "--model t_cart --max-depth -1", 1),
    ("fit", "--model t_cart --max-depth 100000 --min-leaf 1", 0),
    ("fit", "--model causal_forest --n-trees 0", 1),
    ("fit", "--model causal_forest --n-trees 1001", 1),
    ("fit", "--model causal_forest --n-trees 1e8", 2),
    ("fit", "--model t_forest --n-trees 0", 1),
    ("fit", "--model t_forest --n-trees 1001", 1),
    ("fit", "--model t_forest --n-trees -1", 1),
    ("fit", "--model causal_tree --honest-fraction 0", 1),
    ("fit", "--model causal_tree --honest-fraction 1", 1),
    ("fit", "--model causal_tree --honest-fraction 1e-300", 1),
    ("fit", "--model causal_tree --honest-fraction -1e-3", 1),
    ("fit", "--model causal_tree --honest-fraction 5e-1", 0),
    ("fit", "--model causal_forest --subsample-ratio 1e-300", 1),
    ("fit", "--model causal_forest --subsample-ratio -1e-3", 1),
    ("fit", "--model causal_forest --subsample-ratio 1.5", 1),
    ("fit", "--model causal_tree --min-group-leaf 0", 1),
    ("fit", "--model causal_tree --min-group-leaf 1000000", 1),
    ("fit", "--model t_forest --features-per-split 0", 1),
    ("fit", "--model t_forest --features-per-split 5", 1),
    ("fit", "--model causal_tree --seed -5", 1),
    ("fit", f"--model causal_tree --seed {2**70}", 0),
    ("fit", "--model causal_tree --seed 1.5", 2),
    ("predict", "--x 1e308", 1),
    ("predict", "--x -1e308", 1),
    ("predict", "--x 1e200", 1),
    ("predict", "--x 1e400", 2),
    ("predict", "--x -1e-3", 0),
    ("predict", "--y -1E+2", 0),
    ("predict", "--z -.5", 0),
    ("predict", "--x --y 0.1", 2),
    ("predict", "--x -inf", 2),
    ("predict", "--z -NaN", 2),
    ("predict", "--x -1e-3x", 2),
    ("map", "--resolution 0", 1),
    ("map", "--resolution 1e-9", 1),
    ("map", "--resolution 0.3", 1),
    ("map", "--resolution 0.29", 0),
    ("map", "--resolution 1e308", 1),
    ("map", "--resolution -1e-3", 1),
    ("map", "--z-slice -1e-3", 1),
    ("map", "--z-slice 1e308", 1),
    ("gen", "--n0 0", 1),
    ("gen", "--n0 -1", 1),
    ("gen", "--n0 1000001", 1),
    ("gen", "--n0 1e3", 2),
    ("gen", "--seed -5", 1),
    ("gen", f"--seed {2**70}", 0),
]


@pytest.mark.parametrize("command,flags,code", FLAG_CASES,
                         ids=[f"{c} {f}" for c, f, _ in FLAG_CASES])
def test_flag_values_exit_cleanly(fitted, tmp_path, capsys, command, flags, code):
    """Every flag value ends in exit 0, 1 or 2 with no traceback, at most one
    ``error:`` line and, on failure, nothing on stdout."""
    base = {
        "gen": ["--dgp", fitted / "regional.cfg", "--n0", 60, "--n1", 60, "--seed", 3,
                "--out", tmp_path / "d.csv"],
        "fit": ["--data", fitted / "d.csv", "--seed", 4, "--out", tmp_path / "m.json"],
        "predict": ["--model", fitted / "m.json", "--x", 0, "--y", 0.1, "--z", 0.2],
        "map": ["--model", fitted / "m.json", "--z-slice", 0.2, "--out-csv", tmp_path / "m.csv"],
    }[command]
    capsys.readouterr()
    assert run([command, *base, *flags.split()]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == (code != 0)
    assert (out == "") == (code != 0)


@pytest.mark.parametrize("command", ["gen", "fit"])
def test_negative_seed_names_the_flag(fitted, tmp_path, capsys, command):
    base = {
        "gen": ["--dgp", fitted / "regional.cfg", "--n0", 60, "--n1", 60],
        "fit": ["--data", fitted / "d.csv", "--model", "causal_forest"],
    }[command]
    capsys.readouterr()
    assert run([command, *base, "--seed", -5, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr() == (
        "", "error: InvalidValue: --seed must be a non-negative integer, got -5\n"
    )
    assert not (tmp_path / "out").exists()


def test_negative_numbers_in_exponent_form(fitted, capsys):
    """``-1e-3`` is the number ``-0.001`` for every float flag, not a flag name."""
    def predict(x):
        capsys.readouterr()
        assert run(["predict", "--model", fitted / "m.json", "--x", x,
                          "--y", 0.1, "--z", 0.2]) == 0
        return capsys.readouterr().out

    assert predict("-1e-3") == predict("-0.001") == predict("-1E-3") == predict("-.1e-2")
    assert run(["map", "--model", fitted / "m.json", "--z-slice", "-1e-3",
                      "--out-csv", fitted / "never.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: SliceOutOfRange:") and err.count("\n") == 1
    assert not (fitted / "never.csv").exists()
