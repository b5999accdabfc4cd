import csv
import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_render
from conftest import predict_one, random_dataset
from reachmap import (
    CausalTreeParams,
    Workspace,
    build_grid,
    difficulty_map,
    export_map_csv,
    extract_regions,
    fit_causal_tree,
    fit_t_learner,
    render_svg_slice,
    KnnSpec,
)
from reachmap.causal_tree import CausalTree, Leaf, Split
from reachmap.mapgen import _CENTER, _NEGATIVE, _POSITIVE, DifficultyMap, _colors
from reachmap.errors import (
    InvalidResolution,
    NoLeafIds,
    NotASlice,
    SliceOutOfRange,
)


def oracle_grid_count(radius, resolution, n_layers=1):
    """Independent center enumeration for one slice, times the layer count."""
    count = 0
    i = 0
    while -radius + resolution / 2 + i * resolution < radius:
        x = -radius + resolution / 2 + i * resolution
        j = 0
        while resolution / 2 + j * resolution < radius:
            y = resolution / 2 + j * resolution
            if x * x + y * y <= radius * radius:
                count += 1
            j += 1
        i += 1
    return count * n_layers


def leaf(tau):
    return Leaf(tau, 5, 5, tau + 1.0, 1.0)


def manual_tree(nodes):
    return CausalTree(nodes, CausalTreeParams(seed=0))


class TestBuildGrid:
    def test_default_slice_has_56_cells(self):
        grid = build_grid(Workspace(), 0.05, z_slice=0.1)
        assert len(grid) == 56
        assert oracle_grid_count(0.3, 0.05) == 56

    @pytest.mark.parametrize("resolution", [0.03, 0.05, 0.07, 0.11])
    def test_matches_enumeration_oracle(self, resolution):
        grid = build_grid(Workspace(), resolution, z_slice=0.2)
        assert len(grid) == oracle_grid_count(0.3, resolution)

    def test_all_points_inside_workspace(self):
        ws = Workspace()
        assert ws.contains(build_grid(ws, 0.04, z_slice=0.05).features).all()
        assert ws.contains(build_grid(ws, 0.09).features).all()

    def test_layered_grid(self):
        ws = Workspace()
        grid = build_grid(ws, 0.1)
        # layers at z = 0.05, 0.15, 0.25, 0.35
        assert sorted(set(grid.features[:, 2].tolist())) == pytest.approx([0.05, 0.15, 0.25, 0.35])
        assert len(grid) == oracle_grid_count(0.3, 0.1, n_layers=4)

    def test_slice_metadata(self):
        grid = build_grid(Workspace(), 0.05, z_slice=0.1)
        assert grid.z_slice == 0.1 and grid.resolution == 0.05

    def test_grid_order_is_z_y_x(self):
        grid = build_grid(Workspace(), 0.1)
        keys = [(z, y, x) for x, y, z, _ in grid.features.tolist()]
        assert keys == sorted(keys)

    def test_dist_is_derived(self):
        for x, y, z, dist in build_grid(Workspace(), 0.07, z_slice=0.3).features.tolist():
            assert dist == pytest.approx(math.sqrt(x**2 + y**2 + z**2), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.3, 0.5])
    def test_invalid_resolution(self, bad):
        with pytest.raises(InvalidResolution):
            build_grid(Workspace(), bad, z_slice=0.1)

    @pytest.mark.parametrize("bad", [-0.01, 0.41])
    def test_slice_out_of_range(self, bad):
        with pytest.raises(SliceOutOfRange):
            build_grid(Workspace(), 0.05, z_slice=bad)


class TestDifficultyMap:
    def test_single_leaf_constant(self):
        tree = manual_tree((leaf(0.4),))
        grid = build_grid(Workspace(), 0.05, z_slice=0.1)
        m = difficulty_map(tree, grid)
        assert len(m) == len(grid)
        assert set(m.tau_hat.tolist()) == {0.4}
        assert set(m.leaf_id.tolist()) == {0}

    def test_grid_order_preserved(self):
        tree = manual_tree((leaf(0.4),))
        grid = build_grid(Workspace(), 0.07, z_slice=0.2)
        m = difficulty_map(tree, grid)
        assert np.array_equal(m.features, grid.features)

    def test_two_leaf_tree_two_values(self):
        tree = manual_tree((Split(3, 0.2, 1.0), leaf(0.0), leaf(1.0)))
        grid = build_grid(Workspace(), 0.05, z_slice=0.1)
        m = difficulty_map(tree, grid)
        assert sorted(set(m.tau_hat.tolist())) == [0.0, 1.0]

    def test_values_match_model_predictions(self):
        d = random_dataset(np.random.default_rng(1), 40, 40, effect=0.6)
        tree = fit_causal_tree(d, CausalTreeParams(max_depth=3, min_group_leaf=2, seed=2))
        grid = build_grid(Workspace(), 0.06, z_slice=0.15)
        m = difficulty_map(tree, grid)
        for row, tau, leaf_id in zip(m.features.tolist(), m.tau_hat.tolist(), m.leaf_id.tolist()):
            direct = predict_one(tree, row)
            assert tau == direct.tau_hat and leaf_id == direct.leaf_id


class TestExtractRegions:
    def test_constant_map_single_connected_region(self):
        m = difficulty_map(manual_tree((leaf(0.4),)), build_grid(Workspace(), 0.05, z_slice=0.1))
        [region] = extract_regions(m)
        assert region.connected is True
        assert len(region.cells) == 56

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        grid = build_grid(Workspace(), 0.05, z_slice=0.1)
        for trial in range(20):
            d = random_dataset(rng, 30, 30, effect=float(rng.uniform(-1, 1)))
            tree = fit_causal_tree(
                d, CausalTreeParams(max_depth=3, min_group_leaf=2, seed=trial)
            )
            m = difficulty_map(tree, grid)
            regions = extract_regions(m)
            seen = [i for r in regions for i in r.cells]
            assert sorted(seen) == list(range(len(m)))
            assert len(regions) <= tree.n_leaves()

    def test_disconnected_pockets_detected(self):
        # y < 0.1 and reach distance >= 0.28 carves two opposite corners of
        # the semicircle; the connecting arc lies in the excluded y >= 0.1 band
        pocket_tree = manual_tree(
            (Split(1, 0.1, 1.0), Split(3, 0.28, 1.0), leaf(0.0), leaf(2.0), leaf(0.5))
        )
        m = difficulty_map(pocket_tree, build_grid(Workspace(), 0.05, z_slice=0.1))
        regions = {r.leaf_id: r for r in extract_regions(m)}
        pocket = regions[1]
        assert pocket.connected is False
        assert regions[0].connected is True
        assert regions[2].connected is True
        # flood-fill oracle: count 4-neighbourhood components over cell centers
        cells = {
            (round(m.features[i, 0] / 0.025), round(m.features[i, 1] / 0.025))
            for i in pocket.cells
        }
        components = 0
        remaining = set(cells)
        while remaining:
            components += 1
            stack = [remaining.pop()]
            while stack:
                cx, cy = stack.pop()
                for nb in ((cx - 2, cy), (cx + 2, cy), (cx, cy - 2), (cx, cy + 2)):
                    if nb in remaining:
                        remaining.remove(nb)
                        stack.append(nb)
        assert components == 2
        # one pocket per side of the workspace
        assert {1 if x > 0 else -1 for x, _ in cells} == {-1, 1}

    def test_sorted_by_descending_magnitude(self):
        tree = manual_tree((Split(0, 0.0, 1.0), leaf(-0.7), leaf(0.3)))
        m = difficulty_map(tree, build_grid(Workspace(), 0.05, z_slice=0.1))
        regions = extract_regions(m)
        assert [r.leaf_id for r in regions] == [0, 1]

    def test_no_leaf_ids(self):
        d = random_dataset(np.random.default_rng(5), 12, 12)
        t = fit_t_learner(d, KnnSpec(seed=0))
        m = difficulty_map(t, build_grid(Workspace(), 0.1, z_slice=0.1))
        with pytest.raises(NoLeafIds):
            extract_regions(m)


class TestRenderSvg:
    def grid_map(self, tau_left=-0.4, tau_right=0.8):
        tree = manual_tree((Split(0, 0.0, 1.0), leaf(tau_left), leaf(tau_right)))
        return difficulty_map(tree, build_grid(Workspace(), 0.05, z_slice=0.1))

    def test_well_formed_xml_with_svg_root(self):
        data = render_svg_slice(self.grid_map())
        root = ET.fromstring(data.decode("utf-8"))
        assert root.tag.endswith("svg")

    def test_batches_do_not_change_bytes(self, monkeypatch):
        m = self.grid_map()
        whole = render_svg_slice(m)
        monkeypatch.setattr("reachmap.mapgen._SVG_CHUNK", 5)  # 56 cells in 12 batches
        assert render_svg_slice(m) == whole

    def test_byte_deterministic(self):
        m = self.grid_map()
        assert render_svg_slice(m) == render_svg_slice(m)

    def test_all_cells_rendered(self):
        data = render_svg_slice(self.grid_map()).decode("utf-8")
        assert data.count("<rect") == 56 + 1 + 3  # cells + background + legend

    def test_constant_zero_map_uses_center_color(self):
        m = difficulty_map(
            manual_tree((leaf(0.0),)), build_grid(Workspace(), 0.05, z_slice=0.1)
        )
        data = render_svg_slice(m).decode("utf-8")
        assert data.count('fill="#f7f7f7"') >= 56

    def test_title_carries_slice_height(self):
        data = render_svg_slice(self.grid_map()).decode("utf-8")
        assert "z = 0.100 m" in data

    def test_layered_map_rejected(self):
        tree = manual_tree((leaf(0.1),))
        m = difficulty_map(tree, build_grid(Workspace(), 0.1))
        with pytest.raises(NotASlice):
            render_svg_slice(m)

    def test_palette_interpolation(self):
        assert _colors(np.array([0.0, 1.0, -1.0, 2.0])) == [
            0xf7f7f7, 0xb2182b, 0x2166ac, 0xb2182b]  # 2.0 is clamped

    def test_colors_match_the_scalar_palette(self):
        # u = 0.5 puts four channels exactly on a half step
        t = np.concatenate([
            [1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 2.0, -2.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
             np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)],
            np.arange(-128, 129) / 64.0,
            np.random.default_rng(5).uniform(-1.2, 1.2, 2000),
        ])
        assert [f"#{c:06x}" for c in _colors(t)] == [scalar_color(v) for v in t.tolist()]


def scalar_color(t: float) -> str:
    """The renderer's colour of one value, as it was computed per cell."""
    t = max(-1.0, min(1.0, t))
    hi = _POSITIVE if t >= 0 else _NEGATIVE
    u = abs(t)
    rgb = tuple(round(a + (b - a) * u) for a, b in zip(_CENTER, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


class TestExportCsv:
    def tree_map(self):
        tree = manual_tree((Split(3, 0.2, 1.0), leaf(0.125), leaf(1.0 / 3.0)))
        return difficulty_map(tree, build_grid(Workspace(), 0.05, z_slice=0.1))

    def test_header_and_row_count(self):
        m = self.tree_map()
        lines = export_map_csv(m).decode("utf-8").splitlines()
        assert lines[0] == "x_m,y_m,z_m,dist_m,tau_hat_s,leaf_id"
        assert len(lines) == len(m) + 1

    def test_round_trip_within_1e9(self):
        m = self.tree_map()
        reader = csv.DictReader(io.StringIO(export_map_csv(m).decode("utf-8")))
        for row, x, tau, leaf_id in zip(
            reader, m.features[:, 0].tolist(), m.tau_hat.tolist(), m.leaf_id.tolist()
        ):
            assert abs(float(row["tau_hat_s"]) - tau) <= 1e-9
            assert abs(float(row["x_m"]) - x) <= 1e-9
            assert int(row["leaf_id"]) == leaf_id

    def test_leaf_id_blank_without_leaves(self):
        d = random_dataset(np.random.default_rng(8), 12, 12)
        t = fit_t_learner(d, KnnSpec(seed=0))
        m = difficulty_map(t, build_grid(Workspace(), 0.1, z_slice=0.1))
        rows = export_map_csv(m).decode("utf-8").splitlines()[1:]
        assert all(row.endswith(",") for row in rows)

    def test_single_leaf_constant_column(self):
        m = difficulty_map(
            manual_tree((leaf(0.25),)), build_grid(Workspace(), 0.1, z_slice=0.2)
        )
        reader = csv.DictReader(io.StringIO(export_map_csv(m).decode("utf-8")))
        assert {row["tau_hat_s"] for row in reader} == {"0.250000000"}


#: effects a map cell may hold: signed zeros, tiny and rounding-edge values
TAUS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-9, 0.00005, -0.00015, 1.0, -2.5]),
    st.floats(-5.0, 5.0),
)


@st.composite
def maps(draw) -> DifficultyMap:
    """A slice or layered map of the standard workspace with effects drawn
    from a few values (one for a constant map) and leaf ids or none; some
    cells may have x written as 0.0 or -0.0."""
    layered = draw(st.booleans())
    res = draw(st.floats(0.04, 0.29) if layered else st.floats(0.01, 0.29))
    grid = build_grid(Workspace(), res, None if layered else draw(st.floats(0.0, 0.4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(grid)
    tau = rng.choice(np.array(draw(st.lists(TAUS, min_size=1, max_size=6))), n)
    features = grid.features.copy()
    if draw(st.booleans()):
        features[rng.integers(0, n, 4), 0] = [0.0, -0.0, -0.0, 0.0]
    leaf_id = rng.integers(0, 64, n) if draw(st.booleans()) else None
    return DifficultyMap(features, tau, leaf_id, grid.resolution, grid.z_slice)


@settings(max_examples=60, deadline=None)
@given(m=maps())
def test_render_matches_per_cell_reference(m):
    assert export_map_csv(m) == reference_render.export_map_csv(m)
    if m.z_slice is not None:
        assert render_svg_slice(m) == reference_render.render_svg_slice(m)
