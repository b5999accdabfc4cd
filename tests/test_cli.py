import json

import numpy as np
import pytest

from reachmap import dataset_to_csv, load_dataset_csv, load_model
from reachmap.cli import main, parse_args
from conftest import random_dataset

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
    return main([str(a) for a in args])


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
        data = workdir / "d.csv"
        run(["gen", "--dgp", workdir / "regional.cfg", "--n0", 40, "--n1", 40,
             "--seed", 2, "--out", data])
        before = data.read_bytes()
        run(["fit", "--data", data, "--model", "t_cart", "--seed", 3,
             "--out", workdir / "m.json"])
        assert data.read_bytes() == before
        assert (workdir / "regional.cfg").read_text() == REGIONAL_CFG


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
