"""Byte identity of a fixed CLI session against a checked-in digest table.

The session generates a regional and a smooth dataset (300 + 300), fits all
five model kinds at their defaults plus two non-default ``t_forest``s (53
trees, two lockstep groups, one and four features per split), predicts at
four points, renders a map SVG and CSV at 0.05 m for every model, runs a
two-run, five-model ``bench`` and prints ``--help``.  Each output's sha256 must
equal ``GOLDEN``.  A change that is meant to keep every output byte passes
this test unchanged; a change that alters bytes on purpose updates the table
and names the changed outputs.

The digests depend on numpy's ``Generator`` streams, which numpy does not
freeze across versions, on the libm ``log2`` and ``exp`` that dataset
generation calls, and on argparse's help layout in the running Python.  An
upgrade of any of them may move digests without a change to this package.
"""

import contextlib
import hashlib
import io
import json

import pytest

from reachmap.cli import main

POINTS = ((0.1, 0.2, 0.1), (-0.2, 0.1, 0.3), (0.0, 0.25, 0.05), (0.15, 0.05, 0.35))

FITS = {
    "causal_tree": ("regional", ["--model", "causal_tree"]),
    "causal_forest": ("regional", ["--model", "causal_forest"]),
    "t_cart": ("regional", ["--model", "t_cart"]),
    "t_forest": ("regional", ["--model", "t_forest"]),
    "t_knn": ("regional", ["--model", "t_knn"]),
    "t_forest_f1": ("smooth", ["--model", "t_forest", "--n-trees", "53",
                               "--features-per-split", "1", "--min-leaf", "2"]),
    "t_forest_f4": ("smooth", ["--model", "t_forest", "--n-trees", "53",
                               "--features-per-split", "4", "--max-depth", "5"]),
}

BENCH = {
    "dgp": {"effect_preset": "smooth", "noise_sigma": 0.15},
    "models": [{"kind": k} for k in ("causal_tree", "causal_forest", "t_cart", "t_forest", "t_knn")],
    "n_control": 300,
    "n_individual": 300,
    "runs": 2,
    "holdout_points": 100,
    "master_seed": 23,
}

GOLDEN = {
    "bench.csv": "5be636672eab467991e14313e976763091bdb3bc41cdca8a123f71d04bf9959a",
    "bench.stdout": "f5021efc67cda88122029ba0dc401c13f515a7b8b14e953680364d4209ed310e",
    "causal_forest.json": "da98280c48d6f1111e52e8dc9543a93f7280ed426899c79067f89efd27eb9c66",
    "causal_forest.map.csv": "abd7c66c91ffa3a55bfa741b0bef86c16eeea9b8999e5df386303b489ca9ed06",
    "causal_forest.svg": "f82f37374dd009eb484b750627fa17da7f693cd6e058f5919c47753176b139b1",
    "causal_tree.json": "43f349d46ad61508ebbace4b7beb3d2b902e6f670c6965afaf7de5608c62b732",
    "causal_tree.map.csv": "cdfa61f985dc5808620fd76dfe600589aa15dd615c66b1c393df4e092b06153a",
    "causal_tree.svg": "0a01f50c0aee29d809bbd60fcf0f4257c1a5004228f9347572353b73f75d8101",
    "fit_causal_forest.stdout": "bda910afdb0f46d96dc0b345c1e30afc5c04d35e0a50419a3eda4291aa1dbb82",
    "fit_causal_tree.stdout": "70dd1aae3eaea0e95f53711f96d477efdd103bc06dddc542ead40ef58c251f4a",
    "fit_t_cart.stdout": "70246fe0a4d4abba33e9feacd71921b6a82d1b0b8fd99c201492ffa16bfbc16d",
    "fit_t_forest.stdout": "d50552a70b88bad400ffd89d6d963e6cee8b3db09e67db487352ca17f907ee78",
    "fit_t_forest_f1.stdout": "3ce529a85e7df8ca0d7da8b238ef86a8753a68ed1a49aed0810f0d494e6d1cda",
    "fit_t_forest_f4.stdout": "c759d6a75ff7ea7b78ea813e140ab7b0e179b419c0f099b1dc4ad0fddc855a98",
    "fit_t_knn.stdout": "c364cf69396a6f1b52b779928f1554d3296854c88fa73a00a9fce5fbfdfc4a73",
    "gen_regional.stdout": "5b9eaaa8e0e9a8314b00b5a479bb32dfa80134101617e20483849ec3bfef3a79",
    "gen_smooth.stdout": "c806c7c370da97fc3dee0c36636992ba068778d667084064a1951257f6d7d7cf",
    "help.stdout": "0615ac59fb4db2893be36e0d49e7e4bcd6a5650859f3d9a02e4e3f88668fe41c",
    "map_causal_forest.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "map_causal_tree.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "map_t_cart.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "map_t_forest.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "map_t_forest_f1.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "map_t_forest_f4.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "map_t_knn.stdout": "fd8eb921fcdadc6f8f472e596f424af5819abfc68600b68798e11447e5dffa86",
    "predict_causal_forest_0.stdout": "d3261f92730ef38ad34fa0f55d3cb0631101870ffab6756bab554b0bc17bbf22",
    "predict_causal_forest_1.stdout": "862e285f5746c44bcba4ff56a6cd3aed7dbd017a9080a44b8e614d9138186349",
    "predict_causal_forest_2.stdout": "72a1c1b2421065116730dfd663ea6262bb250c4f1272431651bc7bf3afd06988",
    "predict_causal_forest_3.stdout": "64b0f77f592b9c627ee1be83a3957079eb4c86e9990c7e45941ec362bb294e6e",
    "predict_causal_tree_0.stdout": "608514b8240068fefd69cf55732f7893bd17db5287a78c27ca7aff555e2a3932",
    "predict_causal_tree_1.stdout": "a131ec815df49a10633966af4ad5197829f6a02f33c3ea12ba77ba2689e52011",
    "predict_causal_tree_2.stdout": "8e4dfc3b46b2598e27262d9bac05674e7a7f27423e7e34c1bf4a95cf197eac4f",
    "predict_causal_tree_3.stdout": "4051d16b7f0b6474b093b223af240fd22baa684a29045690f571ee04ee8c0dec",
    "predict_t_cart_0.stdout": "909735c719861198e67f7e016f71e89c5e1c92167add124e1943603cd4b95cfd",
    "predict_t_cart_1.stdout": "7b6f53983fdd096d066685663ba743e52b179e85c3f0baff8df4e6d3f2f4db52",
    "predict_t_cart_2.stdout": "a7a229a77381868675f068875a2e9774bba93641607629efea1722d23e3593b8",
    "predict_t_cart_3.stdout": "24e7c7496c8f97cc571b991521b78c3ee75c1cc13372ef80f9c0f49235625cbb",
    "predict_t_forest_0.stdout": "a3d10ec930bb1ad271eaccb4404bf63cb6bfe62973b0697f1cc16af723301930",
    "predict_t_forest_1.stdout": "0f53807002b83aea8440e0ca15a92e9d9fc67cc21a0cd148b8bdd27a6d8d9e56",
    "predict_t_forest_2.stdout": "6b7f59da54eec90e21e478be0284c03602e706a0acc5b6ad3f6989fa3b28820a",
    "predict_t_forest_3.stdout": "bbcc0289a1deaf73e0ddceb91ca4cdfa40abf6f3d0669d442784246114a66761",
    "predict_t_forest_f1_0.stdout": "2129535bc10469164964e4b0c25be29ceaeebd32726db8a9069ee4123c6c1984",
    "predict_t_forest_f1_1.stdout": "3084102546517ae4585ab6edf8a427ae05df272413a3a053544902657fa5a82d",
    "predict_t_forest_f1_2.stdout": "8484d5235eb7f80fe23091e192da22bf488d4a3b3691f41c220f52a336c2b930",
    "predict_t_forest_f1_3.stdout": "0f12368c0636ff13f4ff503bfdb641bb0a85da1e746836acceff2cc232c9c35c",
    "predict_t_forest_f4_0.stdout": "63cd8802cc98e93e831a908862745865dcc72939383a0b84adc9f626529573fa",
    "predict_t_forest_f4_1.stdout": "4013eb5d72d5cf5b7f672a6f4597e8769b15163ed3fe4da5f3e8bc0918360eaa",
    "predict_t_forest_f4_2.stdout": "e79ede2239c59bc2e63a914a228fd5220505444609079cf9aa0ff52a897da4bf",
    "predict_t_forest_f4_3.stdout": "dde3d1816631bfd5870de35ab4d96ade0f391214af6e15ccf8cc5371795f0a72",
    "predict_t_knn_0.stdout": "8181c26c357f3d1b571b362b3f776e57dab1f720c29e241dc1c4e9cbf4ff43ac",
    "predict_t_knn_1.stdout": "e894abb0fad36b54c022d12dafac0d1b02e71006206800e9d9bed879bda96d9b",
    "predict_t_knn_2.stdout": "3018f41e96b69aca2f16125a273c69370f12743917c49f32b9e86c3cef45a01e",
    "predict_t_knn_3.stdout": "ca70acaa80b4d83396317ddb7879653751a6a5f910d174a129304853c055b23a",
    "regional.csv": "63a1601078d27aa50546f76ceb01c0113079ed19c6daa673c93b2bea8857b262",
    "regional.truth.cfg": "6c4057b4ed41afcf101eb332c25e0f40d02ee9edfe68ae134dbd985d28f8118b",
    "smooth.csv": "016b3fe0d70e387ddb576b9031375a9bce8abe59ec8ae8617b9065b05c7de499",
    "smooth.truth.cfg": "34b84afc2f377b66afa87696ebc83b9037567610a93278e0b5479115a7441e1c",
    "t_cart.json": "19ecb0e13af04f40af29714a7411cc08b792ca5076b9a204dfd74cf2a5cc1b4f",
    "t_cart.map.csv": "5459b245cdc9a055815fe2124d0d03484a57dca79200806dee8096152866afc9",
    "t_cart.svg": "e3b6d1c21c65f29bac52018610ddd51e288d6f048b97a49054d623aae5161f47",
    "t_forest.json": "31ab4a5e4cddc412de1ef0886983386cdacc9c1164091835db945a0b46516fa4",
    "t_forest.map.csv": "ab4b190225e2953033129f62e98f2d0e835d2503f7856c9530daa446179241fe",
    "t_forest.svg": "515d6b807f8df21dfbbfaa96f5d7e8dfae5a4735f4373e4f38a1dd9e878d24a9",
    "t_forest_f1.json": "bb43f58d7b3e854063fa3f3189bb09031a3c00b1955fac7c3c799df36e3da837",
    "t_forest_f1.map.csv": "6e3bd77ce67ed7d8a70b1e18ef047c4a73989c520f5295fff31249264349854f",
    "t_forest_f1.svg": "44ca384b12bb1ea1666c7a73c4976b161d1ddde13f374a941b6b6236b291e882",
    "t_forest_f4.json": "911168bb752a25dab6c1e6396c8d6846df7a0d0ac01bed979c0015d3d88b6892",
    "t_forest_f4.map.csv": "5c52f60584471a1606b20578e6453e6f07b22517e9cfcec59c750372feea3a4d",
    "t_forest_f4.svg": "06041e72446766bb8c4cf3118e77f2a03da9f1126c59552eb610c72e424d9c73",
    "t_knn.json": "dd5e2e5374440350c9d53b46cad0b0f9b5b38ef9a97dd0896dd33a05d47dc3a4",
    "t_knn.map.csv": "cf559cdb6c78eeff6847f6e4236a29ff4811b02eb072696c60b2bef7ae827257",
    "t_knn.svg": "44f695d2e689dd058a97d9627122fda0089f2afa333a5656430a679183a32569",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Name -> bytes of every output of the session."""
    work = tmp_path_factory.mktemp("golden")
    out = {}

    def cli(name, *args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main([str(a) for a in args])
            except SystemExit as e:  # --help
                code = e.code
        assert code == 0, (name, args)
        # the file names some commands echo sit under a fresh temporary directory
        out[name + ".stdout"] = buf.getvalue().replace(str(work), "WORK").encode()

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
        for preset in ("regional", "smooth"):
            (work / f"{preset}.cfg").write_text(f"effect_preset = {preset}\nnoise_sigma = 0.1\n")
            cli(f"gen_{preset}", "gen", "--dgp", work / f"{preset}.cfg", "--n0", 300,
                "--n1", 300, "--seed", 11, "--out", work / f"{preset}.csv")
            out[f"{preset}.csv"] = (work / f"{preset}.csv").read_bytes()
            out[f"{preset}.truth.cfg"] = (work / f"{preset}.truth.cfg").read_bytes()
        for name, (preset, flags) in FITS.items():
            model = work / f"{name}.json"
            cli(f"fit_{name}", "fit", "--data", work / f"{preset}.csv", *flags,
                "--seed", 5, "--out", model)
            out[f"{name}.json"] = model.read_bytes()
            for i, (x, y, z) in enumerate(POINTS):
                cli(f"predict_{name}_{i}", "predict", "--model", model,
                    "--x", x, "--y", y, "--z", z)
            cli(f"map_{name}", "map", "--model", model, "--z-slice", 0.2,
                "--resolution", 0.05, "--out-svg", work / f"{name}.svg",
                "--out-csv", work / f"{name}.map.csv")
            out[f"{name}.svg"] = (work / f"{name}.svg").read_bytes()
            out[f"{name}.map.csv"] = (work / f"{name}.map.csv").read_bytes()
        (work / "bench.json").write_text(json.dumps(BENCH))
        cli("bench", "bench", "--config", work / "bench.json", "--out", work / "bench.csv")
        out["bench.csv"] = (work / "bench.csv").read_bytes()
        cli("help", "--help")
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


def test_every_output_has_a_digest(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(outputs, name):
    assert outputs[name] == GOLDEN[name], f"{name!r}: {outputs[name]!r}"
