import copy
import functools
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import node_tuples, predict_one, random_dataset
from reachmap import (
    CartSpec,
    CausalForest,
    CausalTree,
    CausalTreeParams,
    ForestSpec,
    KnnSpec,
    features_from_xyz,
    fit_causal_forest,
    fit_causal_tree,
    fit_t_learner,
    load_model,
    parse_model,
    save_model,
    serialize_model,
)
from reachmap.baselines import CartRegressor, ForestRegressor, RegLeaf, TLearner
from reachmap.causal_tree import Leaf, Split, forest_member
from reachmap.domain import derived_seeds
from reachmap.errors import MalformedModel
from reachmap.model_io import _nodes_from_dict
from reference_loader import nodes_from_dict as reference_nodes_from_dict
from reference_predictors import predict_point
from reference_writer import reference_serialize


def random_points(seed, count=25):
    rng = np.random.default_rng(seed)
    return [features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0] for _ in range(count)]


def t_learner_doc(spec):
    d = random_dataset(np.random.default_rng(12), 20, 20, effect=0.3)
    return json.loads(serialize_model(fit_t_learner(d, spec)))


def fitted_tree(seed=1, max_depth=3):
    d = random_dataset(np.random.default_rng(seed), 30, 30, effect=0.5)
    return fit_causal_tree(d, CausalTreeParams(max_depth=max_depth, min_group_leaf=2, seed=seed))


class TestTreeRoundTrip:
    def test_single_leaf(self):
        tree = fitted_tree(max_depth=0)
        back = parse_model(serialize_model(tree))
        assert back == tree
        p = features_from_xyz(0.1, 0.1, 0.1)[0]
        assert predict_one(back, p) == predict_one(tree, p)

    def test_structural_equality_and_bitwise_predictions(self):
        tree = fitted_tree()
        back = parse_model(serialize_model(tree))
        assert back == tree
        for p in random_points(2):
            assert predict_one(back, p).tau_hat == predict_one(tree, p).tau_hat
            assert predict_one(back, p).leaf_id == predict_one(tree, p).leaf_id

    def test_document_shape(self):
        doc = json.loads(serialize_model(fitted_tree()))
        assert doc["format_version"] == 1
        assert doc["kind"] == "causal_tree"
        assert doc["feature_names"] == ["x", "y", "z", "dist"]
        assert set(doc["params"]) == {"max_depth", "min_group_leaf", "honest_fraction", "seed"}
        node = doc["root"]
        while node["kind"] == "internal":
            assert set(node) == {"kind", "feature_index", "threshold", "gain", "left", "right"}
            node = node["left"]
        assert set(node) == {
            "kind", "leaf_id", "tau_hat", "n_individual", "n_control",
            "mean_individual", "mean_control",
        }

    def test_serialization_is_deterministic(self):
        tree = fitted_tree()
        assert serialize_model(tree) == serialize_model(tree)


class TestForestRoundTrip:
    def test_predictions_bitwise(self):
        d = random_dataset(np.random.default_rng(3), 25, 25, effect=0.4)
        forest = fit_causal_forest(
            d, CausalTreeParams(max_depth=2, min_group_leaf=2, seed=4), 3, 0.8
        )
        back = parse_model(serialize_model(forest))
        assert back == forest
        for p in random_points(4):
            assert predict_one(back, p).tau_hat == predict_one(forest, p).tau_hat

    def test_size_is_the_member_count(self):
        d = random_dataset(np.random.default_rng(3), 25, 25, effect=0.4)
        forest = fit_causal_forest(
            d, CausalTreeParams(max_depth=2, min_group_leaf=2, seed=4), 5, 0.8
        )
        assert [f.name for f in fields(CausalForest)] == ["trees", "params", "subsample_ratio"]
        fewer = CausalForest(forest.trees[:3], forest.params, forest.subsample_ratio)
        text = serialize_model(fewer)
        assert json.loads(text)["n_trees"] == 3
        assert parse_model(text) == fewer


class TestTLearnerRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            CartSpec(max_depth=3, min_leaf=2, seed=5),
            ForestSpec(n_trees=4, max_depth=3, min_leaf=2, seed=5),
            KnnSpec(k=3, seed=5),
            KnnSpec(k=3, standardize=True, seed=5),
        ],
        ids=["cart", "forest", "knn", "knn-standardized"],
    )
    def test_predictions_bitwise(self, spec):
        d = random_dataset(np.random.default_rng(6), 20, 20, effect=0.3)
        model = fit_t_learner(d, spec)
        back = parse_model(serialize_model(model))
        assert back.spec == model.spec
        for p in random_points(7):
            assert predict_one(back, p).tau_hat == predict_one(model, p).tau_hat

    def test_kind_tags(self):
        d = random_dataset(np.random.default_rng(8), 15, 15)
        for spec, kind in [
            (CartSpec(min_leaf=2, seed=0), "t_cart"),
            (ForestSpec(n_trees=2, min_leaf=2, seed=0), "t_forest"),
            (KnnSpec(seed=0), "t_knn"),
        ]:
            doc = json.loads(serialize_model(fit_t_learner(d, spec)))
            assert doc["kind"] == kind


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        tree = fitted_tree()
        path = tmp_path / "model.json"
        save_model(tree, path)
        assert load_model(path) == tree


class TestMalformed:
    def test_truncated_document(self):
        text = serialize_model(fitted_tree())
        with pytest.raises(MalformedModel, match="invalid JSON"):
            parse_model(text[: len(text) // 2])

    def test_wrong_version(self):
        doc = json.loads(serialize_model(fitted_tree()))
        doc["format_version"] = 2
        with pytest.raises(MalformedModel, match="format_version"):
            parse_model(json.dumps(doc))

    def test_unknown_kind(self):
        doc = json.loads(serialize_model(fitted_tree()))
        doc["kind"] = "svm"
        with pytest.raises(MalformedModel, match="kind"):
            parse_model(json.dumps(doc))

    def test_missing_field_has_path(self):
        doc = json.loads(serialize_model(fitted_tree(max_depth=1)))
        del doc["root"]["left"]["tau_hat"]
        with pytest.raises(MalformedModel) as exc:
            parse_model(json.dumps(doc))
        assert "$.root.left" in str(exc.value)

    @pytest.mark.parametrize("value", [9, -1])
    @pytest.mark.parametrize("kind", ["causal_tree", "t_cart", "t_forest"])
    def test_bad_feature_index(self, kind, value):
        if kind == "causal_tree":
            doc = json.loads(serialize_model(fitted_tree(max_depth=1)))
            root = doc["root"]
        else:
            d = random_dataset(np.random.default_rng(9), 20, 20, effect=0.3)
            spec = {"t_cart": CartSpec, "t_forest": ForestSpec}[kind](
                max_depth=1, min_leaf=2, seed=5
            )
            doc = json.loads(serialize_model(fit_t_learner(d, spec)))
            reg = doc["model_control"]
            root = reg["root"] if kind == "t_cart" else reg["roots"][0]
        assert root["kind"] == "internal"
        root["feature_index"] = value
        with pytest.raises(MalformedModel, match="feature_index"):
            parse_model(json.dumps(doc))

    def test_bad_node_kind(self):
        doc = json.loads(serialize_model(fitted_tree(max_depth=1)))
        doc["root"]["left"]["kind"] = "twig"
        with pytest.raises(MalformedModel, match="leaf"):
            parse_model(json.dumps(doc))

    def test_non_numeric_value(self):
        doc = json.loads(serialize_model(fitted_tree(max_depth=1)))
        doc["root"]["threshold"] = "wide"
        with pytest.raises(MalformedModel, match="threshold"):
            parse_model(json.dumps(doc))

    def test_invalid_params_rejected(self):
        doc = json.loads(serialize_model(fitted_tree(max_depth=1)))
        doc["params"]["honest_fraction"] = 2.0
        with pytest.raises(MalformedModel, match="params"):
            parse_model(json.dumps(doc))

    def test_non_object_document(self):
        with pytest.raises(MalformedModel):
            parse_model("[1, 2, 3]")

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_knn_scale(self, value):
        d = random_dataset(np.random.default_rng(10), 15, 15)
        doc = json.loads(serialize_model(fit_t_learner(d, KnnSpec(seed=0))))
        doc["model_control"]["scale"][0] = value
        with pytest.raises(MalformedModel, match=r"model_control\.scale"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, index, value",
        [("features", (0, 0), True), ("outcomes", (1,), False),
         ("shift", (2,), True), ("scale", (3,), True), ("scale", (0,), "2")],
        ids=["features", "outcomes", "shift", "scale", "scale-string"],
    )
    def test_non_number_in_knn_array(self, field, index, value):
        d = random_dataset(np.random.default_rng(10), 15, 15)
        doc = json.loads(serialize_model(fit_t_learner(d, KnnSpec(seed=0))))
        target = doc["model_control"][field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
        with pytest.raises(MalformedModel, match=rf"model_control\.{field}: expected numbers"):
            parse_model(json.dumps(doc))

    def test_forest_over_tree_bound(self):
        d = random_dataset(np.random.default_rng(11), 15, 15)
        params = CausalTreeParams(max_depth=1, min_group_leaf=2, seed=1)
        forest = fit_causal_forest(d, params, 2, 0.9)
        doc = json.loads(serialize_model(forest))
        doc["n_trees"] = 1001
        with pytest.raises(MalformedModel, match=r"\$: n_trees must be in 1\.\.1000"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("side, count", [("model_individual", 1200), ("model_control", 1)])
    def test_forest_roots_hold_n_trees_members(self, side, count):
        doc = t_learner_doc(ForestSpec(n_trees=3, max_depth=2, min_leaf=2, seed=5))
        doc[side]["roots"] = (doc[side]["roots"] * count)[:count]
        with pytest.raises(MalformedModel,
                           match=rf"^\$\.{side}\.roots: expected a list of 3 trees"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "spec, other, expected",
        [(ForestSpec(n_trees=3, seed=5), KnnSpec(seed=5), "forest"),
         (CartSpec(seed=5), ForestSpec(n_trees=3, seed=5), "cart"),
         (KnnSpec(seed=5), CartSpec(seed=5), "knn")],
        ids=["t_forest", "t_cart", "t_knn"],
    )
    def test_nested_kind_is_the_document_kind(self, spec, other, expected):
        doc = t_learner_doc(spec)
        doc["model_control"] = t_learner_doc(other)["model_control"]
        with pytest.raises(MalformedModel,
                           match=rf"^\$\.model_control\.kind: expected '{expected}'"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("side", ["model_individual", "model_control"])
    @pytest.mark.parametrize(
        "field, value",
        [("seed", 5), ("max_depth", 7), ("n_trees", 3)],
    )
    def test_nested_spec_is_the_top_spec_with_its_seed(self, side, field, value):
        doc = t_learner_doc(ForestSpec(n_trees=2, max_depth=3, min_leaf=2, seed=5))
        doc[side]["spec"][field] = value
        if field == "n_trees":
            doc[side]["roots"] = (doc[side]["roots"] * 2)[:3]
        with pytest.raises(MalformedModel, match=rf"^\$\.{side}\.spec: expected "):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("field, value", [("max_depth", 3), ("seed", 0)])
    def test_forest_member_params_are_the_forest_params_with_its_seed(self, field, value):
        d = random_dataset(np.random.default_rng(11), 15, 15)
        forest = fit_causal_forest(d, CausalTreeParams(max_depth=2, min_group_leaf=2, seed=3), 3, 0.9)
        doc = json.loads(serialize_model(forest))
        doc["trees"][1]["params"][field] = value
        with pytest.raises(MalformedModel, match=r"^\$\.trees\[1\]\.params: expected "
                                                 r"CausalTreeParams\(max_depth=2, "):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["causal_tree", "t_cart", "t_forest"])
    def test_tree_deeper_than_max_depth(self, kind):
        if kind == "causal_tree":
            doc = json.loads(serialize_model(fitted_tree(max_depth=3)))
            doc["params"]["max_depth"] = 1
            where = r"\$\.root\.(left|right)"
        else:
            spec = (CartSpec if kind == "t_cart" else ForestSpec)(max_depth=3, min_leaf=2, seed=5)
            doc = t_learner_doc(spec)
            for part in (doc["spec"], doc["model_individual"]["spec"], doc["model_control"]["spec"]):
                part["max_depth"] = 1
            where = r"\$\.model_individual\.root"
        with pytest.raises(MalformedModel, match=rf"^{where}[.a-z\[\]0-9]*: a split at depth 1; "
                                                 r"max_depth is 1"):
            parse_model(json.dumps(doc))

    #: the leaves of ``fitted_tree(seed=2, max_depth=2)`` in pre-order
    LEAF_PATHS = ("root.left.left", "root.left.right", "root.right")

    @pytest.mark.parametrize(
        "ids, at, got",
        [([-7, -7, -7], 0, "-7"), ([0, 0, 1], 1, "0"), ([1, 0, 2], 0, "1"),
         ([0, True, 2], 1, "True")],
        ids=["negative", "duplicate", "swap", "true"],
    )
    def test_leaf_id_is_pre_order_rank(self, ids, at, got):
        doc = json.loads(serialize_model(fitted_tree(seed=2, max_depth=2)))
        for path, leaf_id in zip(self.LEAF_PATHS, ids):
            node = doc
            for key in path.split("."):
                node = node[key]
            assert node["kind"] == "leaf"
            node["leaf_id"] = leaf_id
        with pytest.raises(MalformedModel,
                           match=rf"^{re.escape('$.' + self.LEAF_PATHS[at])}\.leaf_id: "
                                 rf"expected {at}\b.* got {got}$"):
            parse_model(json.dumps(doc))

    def test_feature_names_are_fixed(self):
        doc = json.loads(serialize_model(fitted_tree(max_depth=1)))
        doc["feature_names"] = ["dist", "z", "y", "x"]
        with pytest.raises(MalformedModel, match=r"^\$\.feature_names: expected \['x', 'y'"):
            parse_model(json.dumps(doc))

    def test_forest_member_feature_names_are_fixed(self):
        d = random_dataset(np.random.default_rng(11), 15, 15)
        forest = fit_causal_forest(d, CausalTreeParams(max_depth=1, min_group_leaf=2, seed=1), 2, 0.9)
        doc = json.loads(serialize_model(forest))
        doc["trees"][1]["feature_names"] = ["x", "y", "z", "reach"]
        with pytest.raises(MalformedModel, match=r"^\$\.trees\[1\]\.feature_names: expected"):
            parse_model(json.dumps(doc))

    def test_t_forest_spec_over_tree_bound(self):
        d = random_dataset(np.random.default_rng(12), 15, 15)
        model = fit_t_learner(d, ForestSpec(n_trees=2, min_leaf=2, seed=0))
        doc = json.loads(serialize_model(model))
        doc["spec"]["n_trees"] = 1001
        with pytest.raises(MalformedModel, match=r"\$\.spec: n_trees must be in 1\.\.1000"):
            parse_model(json.dumps(doc))


# --- node-level reader messages ---------------------------------------------------


def _shaped_nodes(leaf) -> tuple:
    """A depth-3 tree: root, left split, left.right split; leaves
    left.left (rank 0), left.right.left (1), left.right.right (2), right (3)."""
    return (Split(0, 0.0, 1.0), Split(1, 0.1, 0.5), leaf(0), Split(2, 0.2, 0.25), leaf(1),
            leaf(2), leaf(3))


def _message_docs() -> dict:
    """A 4-member causal forest and a t_forest of 2 members per side, all
    of depth 3, as the documents ``json.loads`` gives."""
    params = CausalTreeParams(max_depth=3, min_group_leaf=2, seed=0)
    nodes = _shaped_nodes(lambda i: Leaf(0.5 + i, 3, 4, 1.5 + i, 1.0))
    trees = tuple(CausalTree(nodes, forest_member(params, i)[1]) for i in range(4))
    forest = CausalForest(trees=trees, params=params, subsample_ratio=0.7)
    spec = ForestSpec(n_trees=2, max_depth=3, seed=0)
    ctl_seed, ind_seed = derived_seeds(spec.seed, 2)
    members = (_shaped_nodes(lambda i: RegLeaf(1.0 + i, 3)),) * 2
    t_forest = TLearner(ForestRegressor(members, replace(spec, seed=ind_seed)),
                        ForestRegressor(members, replace(spec, seed=ctl_seed)), spec)
    return {"causal_forest": json.loads(serialize_model(forest)),
            "t_forest": json.loads(serialize_model(t_forest))}


def _at(doc: dict, path: str):
    node = doc
    for key, index in re.findall(r"\.(\w+)|\[(\d+)\]", path):
        node = node[key] if key else node[int(index)]
    return node


CF = "$.trees[3].root.left.right"  # a split at depth 2 of the last causal-forest member
CF_LEAF = f"{CF}.left"  # a leaf at depth 3, rank 1
TF = "$.model_control.roots[1].left.right"  # a split at depth 2 of a t_forest member
TF_LEAF = f"{TF}.right"
DEEP_SPLIT = {"kind": "internal", "feature_index": 0, "threshold": 0.0, "gain": 0.0,
              "left": {"kind": "leaf"}, "right": {"kind": "leaf"}}

#: (document, faults as (node path, key or None for the node itself, new value
#: or DELETE), the exact MalformedModel text)
DELETE = object()
NODE_FAULTS = [
    ("causal_forest", [(CF, "threshold", DELETE)], f"{CF}.threshold: missing required field"),
    ("causal_forest", [(CF, "kind", DELETE)], f"{CF}.kind: missing required field"),
    ("causal_forest", [(CF, "left", DELETE)], f"{CF}.left: missing required field"),
    ("causal_forest", [(CF, "right", DELETE)], f"{CF}.right: missing required field"),
    ("causal_forest", [(CF, "left", DELETE), (CF, "right", DELETE)],
     f"{CF}.right: missing required field"),
    ("causal_forest", [(CF_LEAF, "n_control", DELETE)], f"{CF_LEAF}.n_control: missing required field"),
    ("causal_forest", [(CF_LEAF, "leaf_id", DELETE)], f"{CF_LEAF}.leaf_id: missing required field"),
    ("causal_forest", [(CF, "feature_index", True)], f"{CF}.feature_index: expected an integer, got True"),
    ("causal_forest", [(CF_LEAF, "n_individual", True)],
     f"{CF_LEAF}.n_individual: expected an integer, got True"),
    ("causal_forest", [(CF_LEAF, "n_control", 2.0)], f"{CF_LEAF}.n_control: expected an integer, got 2.0"),
    ("causal_forest", [(CF_LEAF, "leaf_id", True)],
     f"{CF_LEAF}.leaf_id: expected 1, the leaf's rank, got True"),
    ("causal_forest", [(CF, "threshold", "0.5")], f"{CF}.threshold: expected a number, got '0.5'"),
    ("causal_forest", [(CF, "gain", True)], f"{CF}.gain: expected a number, got True"),
    ("causal_forest", [(CF, "gain", None)], f"{CF}.gain: expected a number, got None"),
    ("causal_forest", [(CF_LEAF, "tau_hat", float("nan"))],
     f"{CF_LEAF}.tau_hat: expected a finite number, got nan"),
    ("causal_forest", [(CF, "threshold", float("-inf"))],
     f"{CF}.threshold: expected a finite number, got -inf"),
    ("causal_forest", [(CF_LEAF, "mean_control", 10**400)],
     f"{CF_LEAF}.mean_control: expected a finite number, got {10**400!r}"),
    ("causal_forest", [(CF, "feature_index", 4)], f"{CF}.feature_index: out of range: 4"),
    ("causal_forest", [(CF, "feature_index", -1)], f"{CF}.feature_index: out of range: -1"),
    ("causal_forest", [(CF_LEAF, "leaf_id", 7)], f"{CF_LEAF}.leaf_id: expected 1, the leaf's rank, got 7"),
    ("causal_forest", [(CF_LEAF, None, DEEP_SPLIT)], f"{CF_LEAF}: a split at depth 3; max_depth is 3"),
    ("causal_forest", [(CF, "kind", "branch")], f"{CF}.kind: expected 'leaf' or 'internal', got 'branch'"),
    ("causal_forest", [(CF_LEAF, None, [1])], f"{CF_LEAF}: expected an object, got list"),
    ("causal_forest", [(CF_LEAF, None, None)], f"{CF_LEAF}: expected an object, got NoneType"),
    # within a node, fields in their dataclass order, then the checks that combine them
    ("causal_forest", [(CF, "gain", "x"), (CF, "threshold", float("nan"))],
     f"{CF}.threshold: expected a finite number, got nan"),
    ("causal_forest", [(CF_LEAF, "mean_control", "x"), (CF_LEAF, "tau_hat", "y")],
     f"{CF_LEAF}.tau_hat: expected a number, got 'y'"),
    ("causal_forest", [(CF_LEAF, "leaf_id", 9), (CF_LEAF, "mean_control", "x")],
     f"{CF_LEAF}.mean_control: expected a number, got 'x'"),
    ("causal_forest", [(CF, "feature_index", 5), (CF, "right", DELETE)],
     f"{CF}.feature_index: out of range: 5"),
    ("causal_forest", [(CF_LEAF, None, {**DEEP_SPLIT, "feature_index": 8})],
     f"{CF_LEAF}.feature_index: out of range: 8"),
    ("causal_forest", [(CF_LEAF, None, {k: v for k, v in DEEP_SPLIT.items() if k != "right"})],
     f"{CF_LEAF}: a split at depth 3; max_depth is 3"),
    # the first faulty node in pre-order
    ("causal_forest", [("$.trees[3].root.right", "tau_hat", "x"), (CF_LEAF, "tau_hat", "y")],
     f"{CF_LEAF}.tau_hat: expected a number, got 'y'"),
    ("causal_forest", [(CF_LEAF, "tau_hat", "y"), ("$.trees[3].root.left", "right", DELETE)],
     "$.trees[3].root.left.right: missing required field"),
    ("causal_forest", [(CF_LEAF, "tau_hat", "y"), ("$.trees[1].root.right", "n_control", -1.5)],
     "$.trees[1].root.right.n_control: expected an integer, got -1.5"),
    ("t_forest", [(TF_LEAF, "n", DELETE)], f"{TF_LEAF}.n: missing required field"),
    ("t_forest", [(TF, "left", DELETE)], f"{TF}.left: missing required field"),
    ("t_forest", [(TF, "right", DELETE)], f"{TF}.right: missing required field"),
    ("t_forest", [(TF_LEAF, "n", True)], f"{TF_LEAF}.n: expected an integer, got True"),
    ("t_forest", [(TF_LEAF, "value", "1")], f"{TF_LEAF}.value: expected a number, got '1'"),
    ("t_forest", [(TF_LEAF, "value", float("nan"))], f"{TF_LEAF}.value: expected a finite number, got nan"),
    ("t_forest", [(TF, "feature_index", 9)], f"{TF}.feature_index: out of range: 9"),
    ("t_forest", [(TF_LEAF, None, DEEP_SPLIT)], f"{TF_LEAF}: a split at depth 3; max_depth is 3"),
    ("t_forest", [(TF, "kind", None)], f"{TF}.kind: expected 'leaf' or 'internal', got None"),
    ("t_forest", [(TF, None, "node")], f"{TF}: expected an object, got str"),
    ("t_forest", [(TF_LEAF, "leaf_id", 5), (TF_LEAF, "value", 2)], None),  # both allowed in a CART leaf
    ("t_forest", [(TF_LEAF, "n", "x"), ("$.model_individual.roots[0].right", "n", "y")],
     "$.model_individual.roots[0].right.n: expected an integer, got 'y'"),
]


@pytest.mark.parametrize("kind, faults, message", NODE_FAULTS,
                         ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(NODE_FAULTS)])
def test_node_fault_messages(kind, faults, message):
    doc = _message_docs()[kind]
    for path, key, value in faults:
        if key is None:
            parent, last = re.fullmatch(r"(.*)\.(\w+)", path).groups()
            _at(doc, parent)[last] = value
        elif value is DELETE:
            del _at(doc, path)[key]
        else:
            _at(doc, path)[key] = value
    text = json.dumps(doc)
    if message is None:
        parse_model(text)
        return
    with pytest.raises(MalformedModel) as exc:
        parse_model(text)
    assert str(exc.value) == message


# --- the node loader against the reference loader --------------------------------


@functools.cache
def _loader_roots() -> dict:
    """The root dicts of a fitted causal tree and a fitted CART, as
    ``json.loads`` gives them."""
    d = random_dataset(np.random.default_rng(41), 40, 40, effect=0.5)
    tree = fit_causal_tree(d, CausalTreeParams(max_depth=4, min_group_leaf=2, seed=4))
    cart = fit_t_learner(d, CartSpec(max_depth=4, min_leaf=3, seed=4))
    return {"causal": json.loads(serialize_model(tree))["root"],
            "cart": json.loads(serialize_model(cart))["model_control"]["root"]}


def _node_dicts(root: dict) -> list:
    """The node dicts of the nested tree ``root`` in pre-order, each with its depth."""
    out, stack = [], [(root, 0)]
    while stack:
        d, depth = stack.pop()
        out.append((d, depth))
        if d["kind"] == "internal":
            stack += [(d["right"], depth + 1), (d["left"], depth + 1)]
    return out


#: values a mutation writes into a node: bools, ints and floats in and out
#: of range, NaN, the infinities, an int beyond float range, wrong kinds and
#: children that are no object
MUTANT_VALUES = st.sampled_from([
    True, False, 0, 1, -1, 3, 4, 7, 2.5, -0.0, float("nan"), float("inf"), float("-inf"),
    10**400, "x", None, [1], {}, "leaf", "internal", "branch",
])
NODE_KEYS = ("kind", "feature_index", "threshold", "gain", "left", "right", "leaf_id",
             "tau_hat", "n_individual", "n_control", "mean_individual", "mean_control",
             "value", "n")


@st.composite
def mutated_trees(draw) -> tuple:
    """A fitted tree's root dict with one to three node mutations, the leaf
    class to read it as, and a depth limit at or below its depth."""
    source = draw(st.sampled_from(["causal", "cart"]))
    leaf_cls = {"causal": Leaf, "cart": RegLeaf}[source]
    if draw(st.integers(0, 4)) == 0:  # a causal tree read as a CART, or the reverse
        leaf_cls = {Leaf: RegLeaf, RegLeaf: Leaf}[leaf_cls]
    root = copy.deepcopy(_loader_roots()[source])
    nodes = _node_dicts(root)
    depth = max(depth for _, depth in nodes)
    for _ in range(draw(st.integers(1, 3))):
        d, _ = draw(st.sampled_from(nodes))
        key = draw(st.sampled_from(NODE_KEYS))
        op = draw(st.sampled_from(["delete", "set", "int", "off_by_one", "deepen", "extra"]))
        if op == "delete":
            d.pop(key, None)
        elif op == "set":
            d[key] = draw(MUTANT_VALUES)
        elif op == "int" and isinstance(d.get(key), float) and math.isfinite(d[key]):
            d[key] = round(d[key])  # a number written as an integer
        elif op == "off_by_one" and type(d.get("leaf_id")) is int:
            d["leaf_id"] += draw(st.sampled_from([-1, 1]))
        elif op == "deepen" and d.get("kind") == "leaf":
            leaf = dict(d)
            d.clear()
            d.update(kind="internal", feature_index=draw(st.integers(-1, 4)), threshold=0.0,
                     gain=0.0, left=dict(leaf), right=dict(leaf))
        elif op == "extra":
            d["note"] = draw(MUTANT_VALUES)
    max_depth = draw(st.one_of(st.sampled_from([depth, depth + 1]), st.integers(0, depth)))
    return root, leaf_cls, max_depth


def _load_result(load, root, leaf_cls, max_depth):
    """The reprs of the nodes ``load`` reads, or its MalformedModel path and reason."""
    try:
        return [repr(node) for node in load(root, "$.root", leaf_cls, max_depth)]
    except MalformedModel as e:
        return e.path, e.reason


@settings(max_examples=400, deadline=None)
@given(case=mutated_trees())
def test_loader_matches_reference_loader(case):
    root, leaf_cls, max_depth = case
    assert (_load_result(_nodes_from_dict, root, leaf_cls, max_depth)
            == _load_result(reference_nodes_from_dict, root, leaf_cls, max_depth))


def test_loader_reads_unmutated_trees_as_the_reference_does():
    for source, leaf_cls in (("causal", Leaf), ("cart", RegLeaf)):
        root = _loader_roots()[source]
        nodes = _load_result(_nodes_from_dict, root, leaf_cls, 4)
        assert isinstance(nodes, list) and len(nodes) > 7
        assert nodes == _load_result(reference_nodes_from_dict, root, leaf_cls, 4)


# --- round trip of random trees --------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: signed zeros, subnormals, the extremes of float64, and any finite float
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    FINITE,
)
SPLITS = st.builds(Split, st.integers(0, 3), EDGE_FLOATS, FINITE)
#: leaf sizes, and integers beyond int64 and float precision
COUNTS = st.one_of(st.integers(0, 10**6), st.sampled_from([2**53 + 1, 2**64, 10**30]))
CAUSAL_LEAVES = st.builds(Leaf, EDGE_FLOATS, COUNTS, COUNTS, EDGE_FLOATS, EDGE_FLOATS)
REG_LEAVES = st.builds(RegLeaf, EDGE_FLOATS, COUNTS)


@st.composite
def preorder_trees(draw, leaves) -> tuple:
    """Pre-order nodes of a random tree: a chain of up to 100 splits, each
    with one leaf child, or a bushy tree of up to about 40 splits."""
    if draw(st.booleans()):
        nodes = [draw(leaves)]
        depth = draw(st.integers(1, 100))
        levels = st.lists(st.tuples(SPLITS, leaves, st.booleans()), min_size=depth, max_size=depth)
        for split, leaf, leaf_left in draw(levels):
            nodes = [split, leaf, *nodes] if leaf_left else [split, *nodes, leaf]
        return tuple(nodes)
    nodes, open_subtrees = [], 1
    while open_subtrees:
        if len(nodes) < 40 and draw(st.booleans()):
            nodes.append(draw(SPLITS))
            open_subtrees += 1
        else:
            nodes.append(draw(leaves))
            open_subtrees -= 1
    return tuple(nodes)


def tree_depth(nodes: tuple) -> int:
    deepest, pending = 0, [0]
    for node in nodes:
        d = pending.pop()
        if isinstance(node, Split):
            pending += [d + 1, d + 1]
        deepest = max(deepest, d)
    return deepest


@st.composite
def random_models(draw, kind: str):
    """A random model whose spec allows its trees' depth and whose forest
    members and T-learner sides carry the params or spec with their derived
    seeds, as the reader requires."""
    if kind == "causal_tree":
        nodes = draw(preorder_trees(CAUSAL_LEAVES))
        return CausalTree(nodes, CausalTreeParams(max_depth=tree_depth(nodes), seed=0))
    if kind == "causal_forest":
        members = draw(st.lists(preorder_trees(CAUSAL_LEAVES), min_size=1, max_size=2))
        params = CausalTreeParams(max_depth=max(map(tree_depth, members)), seed=0)
        trees = tuple(CausalTree(nodes, forest_member(params, i)[1])
                      for i, nodes in enumerate(members))
        return CausalForest(trees, params, 0.7)
    n_trees = 1 if kind == "t_cart" else draw(st.integers(1, 2))
    members = st.lists(preorder_trees(REG_LEAVES), min_size=n_trees, max_size=n_trees)
    sides = [draw(members) for _ in range(2)]
    max_depth = max(tree_depth(nodes) for side in sides for nodes in side)
    if kind == "t_cart":
        spec = CartSpec(max_depth=max_depth, seed=0)
    else:
        spec = ForestSpec(n_trees=n_trees, max_depth=max_depth, seed=0)
    ctl_seed, ind_seed = derived_seeds(spec.seed, 2)
    ind, ctl = replace(spec, seed=ind_seed), replace(spec, seed=ctl_seed)
    if kind == "t_cart":
        return TLearner(CartRegressor(sides[0][0], ind), CartRegressor(sides[1][0], ctl), spec)
    return TLearner(ForestRegressor(tuple(sides[0]), ind), ForestRegressor(tuple(sides[1]), ctl), spec)


#: random trees draw hundreds of floats, so shrinking a failure could take
#: minutes; a failure is reported as first found
RANDOM_TREES = settings(max_examples=30, deadline=None,
                        phases=(Phase.explicit, Phase.reuse, Phase.generate))


@pytest.mark.parametrize("kind", ["causal_tree", "t_cart", "t_forest"])
@given(data=st.data())
@RANDOM_TREES
def test_random_tree_round_trip(kind, data):
    model = data.draw(random_models(kind))
    text = serialize_model(model)
    back = parse_model(text)
    assert back == model
    assert serialize_model(back) == text

    # query values include every threshold, so points land exactly on them
    thresholds = [n.threshold for nodes in node_tuples(model) for n in nodes if isinstance(n, Split)]
    values = st.one_of(st.sampled_from(thresholds or [0.0]), EDGE_FLOATS)
    rows = data.draw(st.lists(st.tuples(values, values, values, values), min_size=1, max_size=20))
    X = np.array(rows, dtype=np.float64)
    doc = json.loads(text)
    ref = [predict_point(doc, row) for row in X]
    with np.errstate(over="ignore", invalid="ignore"):  # sums of +-1e308 leaves
        est = back.predict(X)
    assert est.tau_hat.tobytes() == np.array([tau for tau, _ in ref]).tobytes()
    if kind == "causal_tree":
        assert est.leaf_id.tolist() == [leaf_id for _, leaf_id in ref]


# --- the writer against the reference encoder -------------------------------------


@pytest.mark.parametrize("kind", ["causal_tree", "causal_forest", "t_cart", "t_forest"])
@given(data=st.data())
@RANDOM_TREES
def test_writer_matches_reference_encoder(kind, data):
    model = data.draw(random_models(kind))
    assert serialize_model(model) == reference_serialize(model)


@pytest.mark.parametrize("spec", [
    None,
    CausalTreeParams(max_depth=4, min_group_leaf=2, seed=3),
    CartSpec(max_depth=4, min_leaf=2, seed=3),
    ForestSpec(n_trees=3, max_depth=4, min_leaf=2, seed=3),
    KnnSpec(k=3, standardize=True, seed=3),
], ids=["causal_forest", "causal_tree", "t_cart", "t_forest", "t_knn"])
def test_fitted_documents_match_reference_encoder(spec):
    d = random_dataset(np.random.default_rng(31), 40, 40, effect=0.4)
    if spec is None:
        model = fit_causal_forest(d, CausalTreeParams(max_depth=3, min_group_leaf=2, seed=3), 3, 0.8)
    elif isinstance(spec, CausalTreeParams):
        model = fit_causal_tree(d, spec)
    else:
        model = fit_t_learner(d, spec)
    assert serialize_model(model) == reference_serialize(model)


def test_writer_spells_numbers_as_json_does():
    """Values a fitted model never holds still get ``json``'s spelling:
    NaN and the infinities, numpy scalars, and an int in a float field."""
    nodes = (Split(np.int64(2).item(), np.float64(0.25), float("nan")),
             Leaf(float("inf"), 3, 4, np.float64(-0.0), float("-inf")),
             Split(1, 7, np.float64(1e-320)), Leaf(-1e308, 2**70, 0, 5e-324, 1.0),
             Leaf(0.1, 1, 1, 2.5, 2))
    model = CausalTree(nodes, CausalTreeParams(max_depth=2, seed=0))
    assert serialize_model(model) == reference_serialize(model)
