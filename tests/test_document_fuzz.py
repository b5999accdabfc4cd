"""Malformed input documents end in exit 0 or 1, never in a traceback.

Each example starts from a valid tiny document -- a bench config, a DGP text
config or a model document of each kind -- and either replaces one scalar
with a value of another type or deletes one key.  It then runs the command
that reads the document (``bench``, ``gen`` or ``predict``) in-process.  A
rejected document must exit 1 with exactly one ``error: `` line on stderr.
NaN, Infinity, ``[]`` and ``{}`` are valid nowhere, so they must be rejected.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from reachmap import model_entry, serialize_model
from reachmap.cli import main

REPLACEMENTS = (2.5, True, "x", None, math.nan, math.inf, [], {})

#: replacements no scalar of any document may take
NEVER_VALID = ("NaN", "Infinity", "[]", "{}")

BENCH = {
    "dgp": {"effect_preset": "regional", "noise_sigma": 0.1, "baseline_w": 0.05},
    "models": [
        {"kind": "causal_tree", "max_depth": 2, "min_group_leaf": 2, "honest_fraction": 0.5},
        {"kind": "causal_forest", "name": "cf", "n_trees": 2, "subsample_ratio": 0.8,
         "max_depth": 2},
        {"kind": "t_cart", "max_depth": 2, "min_leaf": 2},
        {"kind": "t_forest", "n_trees": 2, "max_depth": 2, "min_leaf": 2,
         "features_per_split": 2},
        {"kind": "t_knn", "k": 3, "standardize": False},
    ],
    "n_control": 20,
    "n_individual": 20,
    "runs": 2,
    "holdout_points": 10,
    "master_seed": 1,
}

DGP = {
    "effect_preset": "regional",
    "workspace_radius": 0.3,
    "workspace_height": 0.4,
    "baseline_a": 0.4,
    "baseline_b": 0.3,
    "baseline_w": 0.05,
    "noise_sigma": 0.1,
    "floor": 0.05,
}

SMALL = {
    "causal_tree": dict(max_depth=2, min_group_leaf=2),
    "causal_forest": dict(max_depth=1, min_group_leaf=2, n_trees=2),
    "t_cart": dict(max_depth=2, min_leaf=2),
    "t_forest": dict(max_depth=1, min_leaf=2, n_trees=2),
    "t_knn": dict(k=2),
}


def _model_doc(kind: str) -> dict:
    d = random_dataset(np.random.default_rng(5), 8, 8, effect=0.5)
    return json.loads(serialize_model(model_entry(kind, **SMALL[kind]).fit(d, 3)))


def _slots(doc, path=()):
    """Paths to every scalar (to replace) and every object key (to delete)."""
    scalars, keys = [], []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(doc, dict):
            keys.append(path + (k,))
        if isinstance(v, (dict, list)):
            s, ks = _slots(v, path + (k,))
            scalars += s
            keys += ks
        else:
            scalars.append(path + (k,))
    return scalars, keys


@st.composite
def mutated(draw, doc: dict):
    """(mutated copy of ``doc``, JSON text of the replacement or None for a deletion)."""
    doc = json.loads(json.dumps(doc))
    scalars, keys = _slots(doc)
    if draw(st.booleans()):
        *parent, last = draw(st.sampled_from(scalars))
        value = draw(st.sampled_from(REPLACEMENTS))
        token = json.dumps(value)
    else:
        *parent, last = draw(st.sampled_from(keys))
        token = None
    owner = doc
    for k in parent:
        owner = owner[k]
    if token is None:
        del owner[last]
    else:
        owner[last] = value
    return doc, token


def _run(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def _check(code: int, err: str, token) -> None:
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1, err
    if token in NEVER_VALID:
        assert code == 1, f"accepted {token}"


@settings(max_examples=60, deadline=None)
@given(case=mutated(BENCH))
def test_bench_config(case):
    doc, token = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bench.json"
        cfg.write_text(json.dumps(doc))
        _check(*_run(["bench", "--config", cfg, "--out", Path(tmp) / "out.csv"]), token)


@settings(max_examples=60, deadline=None)
@given(case=mutated(DGP))
def test_dgp_config(case):
    doc, token = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "dgp.cfg"
        cfg.write_text("".join(
            f"{k} = {v if isinstance(v, str) and k == 'effect_preset' else json.dumps(v)}\n"
            for k, v in doc.items()
        ))
        out = Path(tmp) / "d.csv"
        _check(*_run(["gen", "--dgp", cfg, "--n0", 5, "--n1", 5, "--seed", 1, "--out", out]),
               token)


@pytest.mark.parametrize("kind", list(SMALL))
def test_model_document(kind):
    doc = _model_doc(kind)

    @settings(max_examples=40, deadline=None)
    @given(case=mutated(doc))
    def check(case):
        mutated_doc, token = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps(mutated_doc))
            _check(*_run(["predict", "--model", path, "--x", 0.1, "--y", 0.1, "--z", 0.1]),
                   token)

    check()
