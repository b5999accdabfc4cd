import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachmap import (
    BaselineParams,
    DgpSpec,
    EffectPreset,
    Workspace,
    baseline_time,
    dgp_from_config,
    dgp_to_config,
    features_from_xyz,
    generate_dataset,
    leaf_estimate,
    true_tau,
    validate_dataset,
)
from reachmap.domain import Dataset
from reachmap.errors import MalformedConfig, OutOfWorkspace
from reachmap.synth import MAX_GROUP_SAMPLES, MAX_WORKSPACE_M, _draw_features
from reference_synth import draw_features as reference_draw_features


def dgp(preset=EffectPreset.NULL, **kw):
    return DgpSpec(effect_preset=preset, **kw)


class TestSampleWorkspacePoint:
    def test_points_always_inside(self):
        ws = Workspace()
        X, noise = _draw_features(ws, np.random.default_rng(1), 500)
        assert ws.contains(X).all()
        assert noise.shape == (0,)

    def test_same_seed_same_sequence(self):
        ws = Workspace()
        a, _ = _draw_features(ws, np.random.default_rng(9), 10)
        b, _ = _draw_features(ws, np.random.default_rng(9), 10)
        assert np.array_equal(a, b)
        assert len({tuple(row) for row in a[:, :3].tolist()}) == 10  # sequence advances

    def test_rejected_candidate_is_retried(self):
        # scripted unit draws: x = -0.3 + 0.6 * u and y = 0.3 * u put (0.75,
        # 0.9) at (0.15, 0.27), outside x^2 + y^2 <= 0.09, so that pair is
        # discarded; the next pair is accepted, then z = 0.4 * u is drawn,
        # then the noise
        class Scripted:
            def __init__(self, units, normals):
                self.units, self.normals = list(units), list(normals)

            def random(self):
                return self.units.pop(0)

            def standard_normal(self):
                return self.normals.pop(0)

        ws = Workspace()
        assert not ws.contains(features_from_xyz(-0.3 + 0.6 * 0.75, 0.3 * 0.9, 0.1))[0]
        rng = Scripted([0.75, 0.9, 0.5, 0.5, 0.25], [-1.5])
        X, noise = _draw_features(ws, rng, 1, noise_sigma=2.0)
        assert X[0, :3].tolist() == [0.0, 0.15, 0.1]
        assert noise.tolist() == [-3.0]
        assert rng.units == [] and rng.normals == []

    @given(
        radius=st.floats(1e-3, MAX_WORKSPACE_M),
        height=st.floats(1e-3, MAX_WORKSPACE_M),
        sigma=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e3)),
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**63),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_match_the_uniform_and_normal_reference(self, radius, height, sigma, n, seed):
        ws = Workspace(radius, height)
        X, noise = _draw_features(ws, np.random.default_rng(seed), n, sigma)
        X_ref, noise_ref = reference_draw_features(ws, np.random.default_rng(seed), n, sigma)
        assert X.tobytes() == X_ref.tobytes()
        assert noise.tobytes() == noise_ref.tobytes()

    def test_numpy_uniform_and_normal_formulas(self):
        # _draw_features relies on these two identities of numpy's samplers;
        # a numpy whose formulas differ must fail here, not drift silently
        def bits(values):
            return np.array(values, dtype=np.float64).tobytes()

        n = 100_000
        lo, hi, s = -0.3, 0.3, 0.15
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        assert bits([a.uniform(lo, hi) for _ in range(n)]) == bits(
            [lo + (hi - lo) * b.random() for _ in range(n)]
        )
        assert bits([a.normal(0.0, s) for _ in range(n)]) == bits(
            [0.0 + s * b.standard_normal() for _ in range(n)]
        )
        assert a.random() == b.random()  # both consumed the same stream


def rows(*points):
    """Feature rows of the given (x, y, z) points."""
    return features_from_xyz(*np.array(points, dtype=np.float64).T)


class TestTrueTau:
    def test_null_everywhere(self):
        spec = dgp(EffectPreset.NULL)
        X, _ = _draw_features(spec.workspace, np.random.default_rng(2), 50)
        assert true_tau(spec, X).tolist() == [0.0] * 50

    def test_regional_values(self):
        spec = dgp(EffectPreset.REGIONAL)
        X = rows((0.1, 0.1, 0.3), (-0.2, 0.1, 0.0), (-0.1, 0.1, 0.0), (0.1, 0.1, 0.1))
        # dist 0.224 and 0.141 on the left side
        assert true_tau(spec, X).tolist() == [1.0, 0.5, 0.0, 0.0]

    def test_smooth_peak_and_decay(self):
        spec = dgp(EffectPreset.SMOOTH)
        peak, off = true_tau(spec, rows((0.15, 0.15, 0.10), (0.15, 0.15, 0.20)))
        assert peak == 0.8
        assert off == pytest.approx(0.8 * math.exp(-0.5), rel=1e-12)

    def test_outside_workspace_rejected(self):
        spec = dgp()
        with pytest.raises(OutOfWorkspace):
            true_tau(spec, rows((0.25, 0.25, 0.1)))
        # rows 1 and 2 are both outside; row 1 is reported
        with pytest.raises(OutOfWorkspace, match=r"^point \(0\.25, 0\.25, 0\.1\) "):
            true_tau(spec, rows((0.1, 0.1, 0.1), (0.25, 0.25, 0.1), (0.0, 0.1, 0.5)))


class TestBaseline:
    def test_fitts_formula_at_one_doubling(self):
        [t] = baseline_time(dgp(), features_from_xyz(0.05, 0.0, 0.0))
        assert t == pytest.approx(0.7, abs=1e-15)

    def test_monotone_in_distance(self):
        times = baseline_time(dgp(), features_from_xyz(np.linspace(0.0, 0.3, 40), 0, 0))
        assert np.all(np.diff(times) > 0)


class TestGenerateDataset:
    def test_sizes_and_labels(self):
        d, truth = generate_dataset(dgp(), 7, 5, seed=1)
        assert d.group_counts() == (7, 5)
        assert truth.spec.effect_preset is EffectPreset.NULL
        assert validate_dataset(d) == (7, 5)

    @staticmethod
    def oracle_tau(preset, x, y, z, dist):
        """The effect as the synth module docstring states it, for one point."""
        if preset is EffectPreset.NULL:
            return 0.0
        if preset is EffectPreset.REGIONAL:
            if x >= 0.0 and z >= 0.2:
                return 1.0
            return 0.5 if x < 0.0 and dist >= 0.2 else 0.0
        d2 = (x - 0.15) ** 2 + (y - 0.15) ** 2 + (z - 0.10) ** 2
        return 0.8 * math.exp(-d2 / (2.0 * 0.1**2))

    def test_zero_noise_outcomes_are_exact(self):
        # numpy's log2 and square differ from libm's log2 and float ** at a
        # few inputs in 10,000, so a smaller draw may not tell them apart
        for preset in EffectPreset:
            spec = dgp(preset, noise_sigma=0.0)
            d, _ = generate_dataset(spec, 10_000, 10_000, seed=3)
            b = spec.baseline
            for row, group, outcome in zip(d.features.tolist(), d.groups.tolist(), d.outcomes.tolist()):
                want = b.a + b.b * math.log2(1.0 + row[3] / b.w)
                if group == 1:
                    want += self.oracle_tau(preset, *row)
                assert outcome == max(spec.floor, want), (preset, row)

    def test_floor_clamps(self):
        spec = dgp(baseline=BaselineParams(a=0.0, b=0.0), noise_sigma=0.0)
        d, _ = generate_dataset(spec, 5, 5, seed=4)
        assert np.all(d.outcomes == spec.floor)

    def test_deterministic(self):
        a, _ = generate_dataset(dgp(), 10, 10, seed=5)
        b, _ = generate_dataset(dgp(), 10, 10, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(dgp(), 0, 5, seed=1)

    @pytest.mark.parametrize("n0, n1", [(MAX_GROUP_SAMPLES + 1, 5), (5, MAX_GROUP_SAMPLES + 1)])
    def test_group_size_bound(self, n0, n1):
        with pytest.raises(ValueError, match="at most"):
            generate_dataset(dgp(), n0, n1, seed=1)

    def test_regional_leaf_recovery_with_paired_points(self):
        # same task points offered to both groups, no noise: the two-mean
        # estimate over any within-region subset recovers tau exactly
        spec = dgp(EffectPreset.REGIONAL, noise_sigma=0.0)
        X, _ = _draw_features(spec.workspace, np.random.default_rng(6), 400)
        X = X[(X[:, 0] >= 0) & (X[:, 2] >= 0.2)][:30]  # keep to the tau = 1.0 pocket
        assert len(X) == 30
        mu = baseline_time(spec, X)
        d = Dataset(np.vstack([X, X]), np.repeat(np.int8([0, 1]), 30), np.concatenate([mu, mu + 1.0]))
        assert leaf_estimate(d).tau_hat == pytest.approx(1.0, abs=1e-12)


class TestDgpConfig:
    def test_round_trip(self):
        spec = dgp(
            EffectPreset.SMOOTH,
            workspace=Workspace(radius=0.25, height=0.35),
            baseline=BaselineParams(a=0.5, b=0.2, w=0.04),
            noise_sigma=0.12,
            floor=0.06,
        )
        assert dgp_from_config(dgp_to_config(spec)) == spec

    def test_defaults_applied(self):
        spec = dgp_from_config("effect_preset = regional\n")
        assert spec == dgp(EffectPreset.REGIONAL)

    def test_comments_and_blanks_ok(self):
        text = "# reaching bench\n\neffect_preset = null  # no effect\nnoise_sigma = 0.2\n"
        spec = dgp_from_config(text)
        assert spec.effect_preset is EffectPreset.NULL
        assert spec.noise_sigma == 0.2

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedConfig, match="unknown key"):
            dgp_from_config("effect_preset = null\nbogus = 1\n")

    def test_missing_preset_rejected(self):
        with pytest.raises(MalformedConfig, match="effect_preset"):
            dgp_from_config("noise_sigma = 0.1\n")

    def test_bad_number_rejected(self):
        with pytest.raises(MalformedConfig, match="unparseable"):
            dgp_from_config("effect_preset = null\nnoise_sigma = lots\n")

    def test_bad_preset_rejected(self):
        with pytest.raises(MalformedConfig, match="effect_preset"):
            dgp_from_config("effect_preset = bogus\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(MalformedConfig, match="duplicate"):
            dgp_from_config("effect_preset = null\neffect_preset = smooth\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(MalformedConfig):
            dgp_from_config("effect_preset = null\nfloor = 0\n")


    @pytest.mark.parametrize(
        "line, where",
        [("noise_sigma = nan", "$.noise_sigma"), ("baseline_a = nan", "$.baseline_a"),
         ("floor = inf", "$.floor"), ("workspace_radius = -inf", "$.workspace_radius"),
         ("baseline_b = 1e400", "$.baseline_b")],
    )
    def test_non_finite_rejected(self, line, where):
        with pytest.raises(MalformedConfig, match=rf"^\{where}: expected a finite number"):
            dgp_from_config(f"effect_preset = null\n{line}\n")

    def test_text_lists_every_key_in_order(self):
        assert dgp_to_config(dgp(EffectPreset.SMOOTH)) == (
            "workspace_radius = 0.3\nworkspace_height = 0.4\nbaseline_a = 0.4\n"
            "baseline_b = 0.3\nbaseline_w = 0.05\neffect_preset = smooth\n"
            "noise_sigma = 0.1\nfloor = 0.05\n"
        )


class TestDgpSpecValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            dgp(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            dgp(floor=0.0)
        with pytest.raises(ValueError):
            DgpSpec(baseline=BaselineParams(a=-1), effect_preset=EffectPreset.NULL)

    def test_zero_baseline_width_rejected(self):
        # baseline_time divides by w
        with pytest.raises(ValueError, match="w must be > 0"):
            BaselineParams(w=0.0)

    @pytest.mark.parametrize(
        "line",
        ["baseline_a = 1001", "baseline_b = 1e4", "noise_sigma = 2000", "floor = 1e5",
         "baseline_w = 1e-9", "workspace_radius = 11", "workspace_height = 100"],
    )
    def test_limits_keep_outcomes_in_bound(self, line):
        # beyond a limit, gen could write outcomes that fit rejects
        with pytest.raises(MalformedConfig):
            dgp_from_config(f"effect_preset = regional\n{line}\n")

    def test_outcomes_at_the_limits_pass_validation(self):
        extreme = dgp_from_config(
            "effect_preset = regional\nbaseline_a = 1000\nbaseline_b = 1000\n"
            "baseline_w = 1e-6\nworkspace_radius = 10\nworkspace_height = 10\n"
            "noise_sigma = 1000\nfloor = 1000\n"
        )
        d, _ = generate_dataset(extreme, 200, 200, seed=3)
        assert validate_dataset(d) == (200, 200)
        assert d.outcomes.max() < 1e5
