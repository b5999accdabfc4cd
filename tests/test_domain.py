import io
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CSV_MUTATIONS, make_dataset, mutate_csv, random_dataset
from reachmap import (
    CartSpec,
    CausalTreeParams,
    Dataset,
    GroupLabel,
    Workspace,
    dataset_from_csv,
    dataset_to_csv,
    features_from_xyz,
    fit_causal_tree,
    fit_t_learner,
    load_dataset_csv,
    save_dataset_csv,
    stratified_honest_split,
    validate_dataset,
)
from reachmap import domain
from reachmap.domain import (
    MAX_OUTCOME_S,
    _parse_csv,
    _parse_strict,
    canonical_order,
    derived_seeds,
)
from reachmap.errors import (
    DegenerateSplit,
    EmptyDataset,
    InvalidFeature,
    InvalidSample,
    MissingGroup,
    ReachmapError,
)
from reachmap.fileio import write_chunks_atomic

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestFeatures:
    def test_axis_case(self):
        [[x, y, z, dist]] = features_from_xyz(0.3, 0, 0)
        assert (x, y, z) == (0.3, 0.0, 0.0)
        assert dist == pytest.approx(0.3, abs=1e-9)

    def test_origin(self):
        assert features_from_xyz(0, 0, 0).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_pythagorean(self):
        assert features_from_xyz(0.1, 0.2, 0.2)[0, 3] == pytest.approx(0.3, abs=1e-9)

    def test_one_row_per_point(self):
        X = features_from_xyz([0.3, 0.0, 0.1], [0.0, 0.0, 0.2], 0.2)
        assert X.shape == (3, 4) and X.dtype == np.float64
        assert X[:, :3].tolist() == [[0.3, 0.0, 0.2], [0.0, 0.0, 0.2], [0.1, 0.2, 0.2]]
        for x, y, z, dist in X.tolist():
            assert dist == math.sqrt(x * x + y * y + z * z)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidFeature):
            features_from_xyz(bad, 0, 0)
        with pytest.raises(InvalidFeature):
            features_from_xyz(0, bad, 0)
        with pytest.raises(InvalidFeature):
            features_from_xyz(0, 0, bad)
        # rows 1 and 2 are both bad; row 1's y is reported
        with pytest.raises(InvalidFeature, match=f"^y must be finite, got {bad!r}$"):
            features_from_xyz([0.1, 0.2, bad], [0.0, bad, 0.0], 0.0)

    @pytest.mark.parametrize("xyz", [(1e200, 0, 0), (0, -1e200, 0), (0, 0, 1e155), (1e154, 1e154, 1e154)])
    def test_overflowing_dist_rejected(self, xyz):
        with pytest.raises(InvalidFeature, match="dist"):
            features_from_xyz(*xyz)
        # row 1 overflows before row 2's non-finite x
        with pytest.raises(InvalidFeature, match=r"^dist of \("):
            features_from_xyz(*np.array([(0.1, 0.1, 0.1), xyz, (math.nan, 0, 0)]).T)

    @given(finite, finite, finite)
    def test_dist_matches_euclidean_norm(self, x, y, z):
        [[_, _, _, dist]] = features_from_xyz(x, y, z)
        assert abs(dist - math.sqrt(x * x + y * y + z * z)) <= 1e-9


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
        ws = Workspace()
        assert ws.contains(features_from_xyz(*point)).tolist() == [inside]
        rows = features_from_xyz(*np.array([(0.0, 0.1, 0.2), point, (0.1, 0.1, 0.1)]).T)
        assert ws.contains(rows).tolist() == [True, inside, True]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Workspace(radius=0.0)
        with pytest.raises(ValueError):
            Workspace(height=-1.0)


def _pair_dataset(n_control=2, n_individual=2):
    xs = [0.1 * (i + 1) for i in range(n_control)] + [0.0] * n_individual
    ys = [0.0] * n_control + [0.1 * (i + 1) for i in range(n_individual)]
    feats = features_from_xyz(xs, ys, 0.0)
    groups = [GroupLabel.CONTROL] * n_control + [GroupLabel.INDIVIDUAL] * n_individual
    return make_dataset(feats, groups, [1.0] * n_control + [1.5] * n_individual)


class TestDataset:
    """A Dataset holds frozen copies of the arrays it is given."""

    def test_callers_arrays_stay_writeable_and_apart(self):
        X, g, y = np.zeros((3, 4)), np.array([0, 1, 1], dtype=np.int8), np.ones(3)
        d = Dataset(X, g, y)
        for given, held in ((X, d.features), (g, d.groups), (y, d.outcomes)):
            assert given.flags.writeable and not held.flags.writeable
        X[0, 0], g[0], y[0] = 5.0, 1, 9.0
        assert (d.features[0, 0], d.groups[0], d.outcomes[0]) == (0.0, 0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            d.features[0, 0] = 5.0

    def test_base_of_a_contiguous_view_is_apart(self):
        X, y = np.zeros((5, 4)), np.ones(5)
        d = Dataset(X[:3], np.zeros(3, dtype=np.int8), y[:3])
        X[0, 0], y[0] = 5.0, 9.0
        assert (d.features[0, 0], d.outcomes[0]) == (0.0, 1.0)


class TestValidateDataset:
    def test_ok_and_counts(self):
        assert validate_dataset(_pair_dataset(2, 2)) == (2, 2)

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(make_dataset(np.empty((0, 4)), [], []))

    def test_missing_group(self):
        with pytest.raises(MissingGroup, match="Individual"):
            validate_dataset(_pair_dataset(3, 0))

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

    def test_outcome_bound(self):
        at_bound = make_dataset([[0.1, 0, 0, 0.1], [0.2, 0, 0, 0.2]], [0, 1], [1.0, MAX_OUTCOME_S])
        assert validate_dataset(at_bound) == (1, 1)
        beyond = make_dataset([[0.1, 0, 0, 0.1], [0.2, 0, 0, 0.2]], [0, 1],
                              [1.0, np.nextafter(MAX_OUTCOME_S, np.inf)])
        with pytest.raises(InvalidSample, match="outcome must be in") as exc:
            validate_dataset(beyond)
        assert exc.value.index == 1


def _scaled_steps(scale):
    """8 rows: outcomes scale * [1, 1, 1, 1, 3, 3, 3, 3] along x, in both groups."""
    x = np.arange(8) / 10.0
    feats = np.column_stack([x, np.zeros(8), np.zeros(8), x])
    return make_dataset(np.vstack([feats, feats]), [0] * 8 + [1] * 8,
                        np.tile(scale * np.array([1.0] * 4 + [3.0] * 4), 2))


class TestHugeOutcomes:
    """Squared centred outcomes overflow past about 1e154.  Such outcomes
    are rejected, so a fit never sees a NaN or infinite gain."""

    def test_cart_beyond_bound_is_rejected_not_left_unsplit(self):
        # at 1e160 every float gain is NaN, which would leave the CART unsplit
        with pytest.raises(InvalidSample, match="outcome"):
            fit_t_learner(_scaled_steps(1e160), CartSpec(min_leaf=1, seed=0))

    def test_causal_tree_beyond_bound_is_rejected_not_overflowing(self):
        # at 1e160 an exact gain is beyond float range: float() of it overflows
        d = random_dataset(np.random.default_rng(0), 40, 40)
        outcomes = 1e160 * (1.0 + d.groups * (d.features[:, 0] > 0.1))
        with pytest.raises(InvalidSample, match="outcome"):
            fit_causal_tree(make_dataset(d.features, d.groups, outcomes),
                            CausalTreeParams(min_group_leaf=2, seed=0))

    @pytest.mark.parametrize("scale", [1.0, MAX_OUTCOME_S / 3])
    def test_cart_splits_steps_up_to_the_bound(self, scale):
        model = fit_t_learner(_scaled_steps(scale), CartSpec(min_leaf=1, seed=0))
        for side in (model.model_individual, model.model_control):
            split, low, high = side.nodes
            assert (split.feature_index, split.threshold) == (0, 0.5 * (0.3 + 0.4))
            assert (low.n, high.n) == (4, 4) and low.value < high.value


#: heavy ties, both signed zeros, NaN, and any float
ORDER_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.1, 5e-324, math.nan]), st.floats())


class TestCanonicalOrder:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort(self, data):
        n = data.draw(st.integers(0, 30))
        rows = data.draw(st.lists(st.tuples(*[ORDER_VALUES] * 5, st.sampled_from([0, 1])),
                                  min_size=n, max_size=n))
        table = np.array(rows, dtype=np.float64).reshape(n, 6)
        d = make_dataset(table[:, :4], table[:, 5], table[:, 4])
        if data.draw(st.booleans()):  # pre-sorted input
            d = d.subset(self.lexsort(d))
        assert canonical_order(d).tolist() == self.lexsort(d).tolist()

    @staticmethod
    def lexsort(d):
        """The documented order: by group, x, y, z, outcome, then dist."""
        return np.lexsort((d.features[:, 3], d.outcomes, d.features[:, 2], d.features[:, 1],
                           d.features[:, 0], d.groups))

    def test_sorted_rows_with_signed_zeros_keep_their_order(self):
        d = make_dataset([[0.0, 0.1, 0.1, 0.2], [-0.0, 0.1, 0.1, 0.2], [0.0, 0.1, 0.1, 0.2]],
                         [0, 0, 1], [1.0, 1.0, 1.0])
        assert canonical_order(d).tolist() == [0, 1, 2]
        assert canonical_order(d.subset(np.array([2, 1, 0]))).tolist() == [1, 2, 0]


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


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_derived_seeds_key_i_is_spawned_child_i(seed):
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(5)):
        assert derived_seeds(seed, 2, (i,)) == [int(s) for s in child.generate_state(2)]


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

    def test_write_goes_through_a_symlink(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "d.csv").write_bytes(b"before")
        os.symlink("sub/d.csv", tmp_path / "link.csv")
        beside = []

        def pieces():  # the temporary file sits beside the file the link names
            beside.extend(p.name for p in (tmp_path / "sub").iterdir())
            yield b"after"

        write_chunks_atomic(tmp_path / "link.csv", pieces())
        assert os.readlink(tmp_path / "link.csv") == "sub/d.csv"
        assert (tmp_path / "sub" / "d.csv").read_bytes() == b"after"
        assert len(beside) == 2 and any(n.startswith(".d.csv.") for n in beside)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "sub"]
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["d.csv"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        os.symlink("d.csv", tmp_path / "link.csv")
        write_chunks_atomic(tmp_path / "link.csv", [b"new"])
        assert os.path.islink(tmp_path / "link.csv")
        assert (tmp_path / "d.csv").read_bytes() == b"new"

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


def _outcome(read):
    """What ``read()`` gives: the Dataset's dtypes and bits, or the error's
    type, index and message."""
    try:
        d = read()
    except (ReachmapError, ValueError) as e:
        return type(e), getattr(e, "index", None), str(e)
    return tuple((a.dtype, a.shape, a.tobytes()) for a in (d.features, d.groups, d.outcomes))


def _row_parsed_text(text):
    return _outcome(lambda: _parse_csv(io.StringIO(text, newline="")))


def _row_parsed_file(path):
    def read():
        with open(path, "r", encoding="utf-8", newline="") as f:
            return _parse_csv(f)

    return _outcome(read)


def _assert_readers_agree(data: bytes, path):
    """load_dataset_csv of the file ``data`` and, when it is UTF-8,
    dataset_from_csv of its text give what the row parser gives alone."""
    path.write_bytes(data)
    assert _outcome(lambda: load_dataset_csv(path)) == _row_parsed_file(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert _outcome(lambda: dataset_from_csv(text)) == _row_parsed_text(text)


#: cell spellings of a float: dataset_to_csv's repr and three it never writes
_SPELLINGS = (repr, "{:.17g}".format, "{:.17e}".format, "{:.6E}".format)

_csv_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308]),
)


@st.composite
def csv_text(draw):
    """A dataset CSV text in strict form: dataset_to_csv's output, with each
    number cell respelled in one of _SPELLINGS."""
    n = draw(st.integers(1, 12))
    groups = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    values = draw(st.lists(_csv_value, min_size=5 * n, max_size=5 * n))
    d = make_dataset(
        [v for i in range(n) for v in values[5 * i:5 * i + 4]], groups, values[4::5]
    )
    lines = dataset_to_csv(d).split("\n")
    for i in range(1, n + 1):
        cells = lines[i].split(",")
        for j in (0, 1, 2, 3, 5):
            cells[j] = draw(st.sampled_from(_SPELLINGS))(float(cells[j]))
        lines[i] = ",".join(cells)
    return "\n".join(lines)


class TestCsvFastLane:
    """load_dataset_csv and dataset_from_csv read a text in strict form a chunk
    at a time; every text gives the Dataset bits, or the error type, index and
    message, of the row parser alone."""

    @given(text=csv_text(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_texts_read_as_the_row_parser_reads_them(self, tmp_path_factory, text, data):
        kind = data.draw(st.sampled_from((None, *CSV_MUTATIONS)))
        row = data.draw(st.integers(0, text.count("\n") - 2))
        raw = text.encode("utf-8") if kind is None else mutate_csv(text, kind, row)
        chunk = data.draw(st.sampled_from([1, 40, 200, domain._STRICT_CHUNK]))
        with mock.patch.object(domain, "_STRICT_CHUNK", chunk):
            if kind is None:  # the fast lane takes the strict form
                assert _parse_strict(io.StringIO(text, newline="")) is not None
            _assert_readers_agree(raw, tmp_path_factory.mktemp("csv") / "d.csv")

    #: mutations that keep the text in strict form: float() reads " 1.5 " and
    #: "1_0", and the last line may lack its LF
    STRICT = {"spaces", "underscore", "no_final_newline"}

    @pytest.mark.parametrize("kind", sorted(set(CSV_MUTATIONS) - STRICT))
    def test_other_forms_leave_the_fast_lane(self, tmp_path, kind):
        text = dataset_to_csv(random_dataset(np.random.default_rng(30), 20, 20))
        path = tmp_path / "d.csv"
        path.write_bytes(mutate_csv(text, kind, 10))
        with open(path, "r", encoding="utf-8", newline="") as f:
            assert _parse_strict(f) is None

    def test_a_lone_cr_ends_a_row(self, tmp_path):
        # the row parser ends row 1 at the CR, with a blank last cell; split
        # at commas and LFs alone, "\r0.2" would parse and the rows would
        # lose their alignment
        text = (
            "x_m,y_m,z_m,dist_m,group,time_s\n"
            "0.1,0.1,0.1,0.2,0,1.5\n"
            "0.1,0.1,0.1,0.2,1,\r0.2,0.2,0.2,0.3,1,1\n"
        )
        with pytest.raises(InvalidSample, match="blank field") as exc:
            dataset_from_csv(text)
        assert exc.value.index == 1
        _assert_readers_agree(text.encode("utf-8"), tmp_path / "d.csv")

    @pytest.mark.parametrize("kind", CSV_MUTATIONS)
    def test_a_fault_in_a_later_chunk(self, tmp_path, kind):
        text = dataset_to_csv(random_dataset(np.random.default_rng(31), 3000, 2000))
        row = 4990
        assert text.index(text.split("\n")[row + 1]) > domain._STRICT_CHUNK  # past the first chunk
        _assert_readers_agree(mutate_csv(text, kind, row), tmp_path / "d.csv")

    def test_a_long_strict_text_takes_the_fast_lane(self, tmp_path):
        d = random_dataset(np.random.default_rng(32), 3000, 2000)
        text = dataset_to_csv(d)
        assert len(text) > domain._STRICT_CHUNK  # two chunks
        assert _parse_strict(io.StringIO(text, newline="")) is not None
        _assert_readers_agree(text.encode("utf-8"), tmp_path / "d.csv")
        assert load_dataset_csv(tmp_path / "d.csv").outcomes.tobytes() == d.outcomes.tobytes()
