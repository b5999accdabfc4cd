import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_dataset
from reachmap import (
    Dataset,
    GroupLabel,
    TaskFeatures,
    Workspace,
    dataset_from_csv,
    dataset_to_csv,
    features_from_xyz,
    load_dataset_csv,
    save_dataset_csv,
    stratified_honest_split,
    validate_dataset,
)
from reachmap.errors import (
    DegenerateSplit,
    EmptyDataset,
    InvalidFeature,
    InvalidSample,
    MissingGroup,
)
from reachmap.fileio import write_chunks_atomic

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestFeatures:
    def test_axis_case(self):
        assert features_from_xyz(0.3, 0, 0).dist == pytest.approx(0.3, abs=1e-9)

    def test_origin(self):
        assert features_from_xyz(0, 0, 0).dist == 0.0

    def test_pythagorean(self):
        assert features_from_xyz(0.1, 0.2, 0.2).dist == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidFeature):
            features_from_xyz(bad, 0, 0)
        with pytest.raises(InvalidFeature):
            features_from_xyz(0, bad, 0)
        with pytest.raises(InvalidFeature):
            features_from_xyz(0, 0, bad)

    @pytest.mark.parametrize("xyz", [(1e200, 0, 0), (0, -1e200, 0), (0, 0, 1e155), (1e154, 1e154, 1e154)])
    def test_overflowing_dist_rejected(self, xyz):
        with pytest.raises(InvalidFeature, match="dist"):
            features_from_xyz(*xyz)

    @given(finite, finite, finite)
    def test_dist_matches_euclidean_norm(self, x, y, z):
        p = features_from_xyz(x, y, z)
        assert abs(p.dist - math.sqrt(x * x + y * y + z * z)) <= 1e-9


class TestWorkspace:
    def test_defaults(self):
        ws = Workspace()
        assert ws.radius == 0.30 and ws.height == 0.40

    @pytest.mark.parametrize(
        "point,inside",
        [
            ((0.0, 0.1, 0.2), True),
            ((0.3, 0.0, 0.0), True),          # on the rim
            ((0.25, 0.25, 0.1), False),       # outside the semicircle
            ((0.1, -0.01, 0.1), False),       # behind the home line
            ((0.0, 0.1, 0.41), False),        # above the workspace
            ((0.0, 0.1, -0.01), False),       # below the table
        ],
    )
    def test_contains(self, point, inside):
        assert Workspace().contains(features_from_xyz(*point)) is inside

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Workspace(radius=0.0)
        with pytest.raises(ValueError):
            Workspace(height=-1.0)


def _pair_dataset(n_control=2, n_individual=2):
    feats = [features_from_xyz(0.1 * (i + 1), 0, 0).as_array() for i in range(n_control)]
    feats += [features_from_xyz(0, 0.1 * (i + 1), 0).as_array() for i in range(n_individual)]
    groups = [GroupLabel.CONTROL] * n_control + [GroupLabel.INDIVIDUAL] * n_individual
    return make_dataset(feats, groups, [1.0] * n_control + [1.5] * n_individual)


class TestValidateDataset:
    def test_ok_and_counts(self):
        assert validate_dataset(_pair_dataset(2, 2)) == (2, 2)

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(make_dataset(np.empty((0, 4)), [], []))

    def test_missing_group(self):
        with pytest.raises(MissingGroup, match="Individual"):
            validate_dataset(_pair_dataset(3, 0))

    def test_single_group_allowed_when_not_required(self):
        assert validate_dataset(_pair_dataset(3, 0), require_both_groups=False) == (3, 0)

    def test_nonpositive_outcome(self):
        d = make_dataset([[0.1, 0, 0, 0.1], [0.2, 0, 0, 0.2]], [0, 1], [1.0, 0.0])
        with pytest.raises(InvalidSample) as exc:
            validate_dataset(d)
        assert exc.value.index == 1

    def test_non_finite_feature(self):
        d = make_dataset([[np.inf, 0, 0, 0.1], [0.2, 0, 0, 0.2]], [0, 1], [1.0, 1.0])
        with pytest.raises(InvalidSample) as exc:
            validate_dataset(d)
        assert exc.value.index == 0

    def test_unknown_group_value(self):
        d = make_dataset([[0.1, 0, 0, 0.1], [0.2, 0, 0, 0.2]], [0, 2], [1.0, 1.0])
        with pytest.raises(InvalidSample, match="group"):
            validate_dataset(d)


class TestHonestSplit:
    def test_stratified_counts(self):
        d = random_dataset(np.random.default_rng(0), 6, 4)
        split, est = stratified_honest_split(d, 0.5, seed=3)
        assert split.group_counts() == (3, 2)
        assert est.group_counts() == (3, 2)

    def test_deterministic(self):
        d = random_dataset(np.random.default_rng(1), 8, 8)
        a = stratified_honest_split(d, 0.5, seed=7)
        b = stratified_honest_split(d, 0.5, seed=7)
        for half_a, half_b in zip(a, b):
            assert np.array_equal(half_a.features, half_b.features)
            assert np.array_equal(half_a.outcomes, half_b.outcomes)

    def test_partition_is_input_multiset(self):
        d = random_dataset(np.random.default_rng(2), 5, 7)
        split, est = stratified_honest_split(d, 0.5, seed=11)
        combined = sorted(
            tuple(row) + (int(g), o)
            for row, g, o in [
                *zip(split.features.tolist(), split.groups, split.outcomes),
                *zip(est.features.tolist(), est.groups, est.outcomes),
            ]
        )
        original = sorted(
            tuple(row) + (int(g), o)
            for row, g, o in zip(d.features.tolist(), d.groups, d.outcomes)
        )
        assert combined == original

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_both_halves_keep_both_groups_at_half_fraction(self, n0, n1, seed):
        d = random_dataset(np.random.default_rng(seed), n0, n1)
        split, est = stratified_honest_split(d, 0.5, seed=seed)
        assert min(split.group_counts()) >= 1
        assert min(est.group_counts()) >= 1

    @given(st.integers(min_value=0, max_value=10_000), st.permutations(list(range(9))))
    @settings(max_examples=40, deadline=None)
    def test_order_invariance(self, seed, perm):
        d = random_dataset(np.random.default_rng(5), 4, 5)
        shuffled = d.subset(np.array(perm))
        halves = stratified_honest_split(d, 0.5, seed=seed)
        halves_shuffled = stratified_honest_split(shuffled, 0.5, seed=seed)
        for a, b in zip(halves, halves_shuffled):
            rows_a = sorted(map(tuple, np.column_stack([a.features, a.groups, a.outcomes]).tolist()))
            rows_b = sorted(map(tuple, np.column_stack([b.features, b.groups, b.outcomes]).tolist()))
            assert rows_a == rows_b

    def test_degenerate_single_sample_group(self):
        d = random_dataset(np.random.default_rng(3), 4, 1)
        with pytest.raises(DegenerateSplit):
            stratified_honest_split(d, 0.5, seed=0)

    def test_missing_group(self):
        d = _pair_dataset(4, 0)
        with pytest.raises(MissingGroup):
            stratified_honest_split(d, 0.5, seed=0)

    def test_bad_fraction(self):
        d = random_dataset(np.random.default_rng(4), 4, 4)
        with pytest.raises(ValueError):
            stratified_honest_split(d, 1.0, seed=0)


class TestCsv:
    def test_round_trip(self):
        d = random_dataset(np.random.default_rng(6), 5, 5)
        back = dataset_from_csv(dataset_to_csv(d))
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.groups, d.groups)
        assert np.array_equal(back.outcomes, d.outcomes)

    def test_saved_file_is_the_text_across_pieces(self, tmp_path):
        # more rows than one piece of the streamed writer, and a partial last piece
        d = random_dataset(np.random.default_rng(8), 5000, 3000)
        save_dataset_csv(d, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == dataset_to_csv(d).encode("utf-8")
        back = load_dataset_csv(tmp_path / "d.csv")
        assert back.features.tobytes() == d.features.tobytes()
        assert back.outcomes.tobytes() == d.outcomes.tobytes()

    def test_failed_streamed_write_leaves_target_unchanged(self, tmp_path):
        target = tmp_path / "d.csv"
        target.write_bytes(b"before")

        def pieces():
            yield b"partial"
            raise RuntimeError("write failed")

        with pytest.raises(RuntimeError):
            write_chunks_atomic(target, pieces())
        assert target.read_bytes() == b"before"
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_header_exact(self):
        d = random_dataset(np.random.default_rng(7), 2, 2)
        assert dataset_to_csv(d).splitlines()[0] == "x_m,y_m,z_m,dist_m,group,time_s"

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidSample):
            dataset_from_csv("x,y,z,dist,group,time\n0,0,0,0,0,1\n")

    def test_blank_field_rejected(self):
        text = "x_m,y_m,z_m,dist_m,group,time_s\n0.1,0.0,0.0,,0,1.0\n"
        with pytest.raises(InvalidSample) as exc:
            dataset_from_csv(text)
        assert exc.value.index == 0

    def test_bad_group_rejected(self):
        text = "x_m,y_m,z_m,dist_m,group,time_s\n0.1,0.0,0.0,0.1,7,1.0\n"
        with pytest.raises(InvalidSample, match="group"):
            dataset_from_csv(text)

    def test_unparseable_number_points_at_row(self):
        text = (
            "x_m,y_m,z_m,dist_m,group,time_s\n"
            "0.1,0.0,0.0,0.1,0,1.0\n"
            "oops,0.0,0.0,0.1,1,1.0\n"
        )
        with pytest.raises(InvalidSample) as exc:
            dataset_from_csv(text)
        assert exc.value.index == 1

    def test_empty_body_rejected(self):
        with pytest.raises(EmptyDataset):
            dataset_from_csv("x_m,y_m,z_m,dist_m,group,time_s\n")
