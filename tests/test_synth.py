import math

import numpy as np
import pytest

from reachmap import (
    BaselineParams,
    DgpSpec,
    EffectPreset,
    TaskFeatures,
    Workspace,
    baseline_time,
    dgp_from_config,
    dgp_to_config,
    features_from_xyz,
    generate_dataset,
    leaf_estimate,
    sample_workspace_point,
    true_tau,
    validate_dataset,
)
from reachmap.domain import Dataset
from reachmap.errors import MalformedConfig, OutOfWorkspace
from reachmap.synth import MAX_GROUP_SAMPLES


def dgp(preset=EffectPreset.NULL, **kw):
    return DgpSpec(effect_preset=preset, **kw)


class TestSampleWorkspacePoint:
    def test_points_always_inside(self):
        ws = Workspace()
        rng = np.random.default_rng(1)
        for _ in range(500):
            assert ws.contains(sample_workspace_point(ws, rng))

    def test_same_seed_same_sequence(self):
        ws = Workspace()
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        a = [sample_workspace_point(ws, rng_a) for _ in range(10)]
        b = [sample_workspace_point(ws, rng_b) for _ in range(10)]
        assert a == b
        assert len({(p.x, p.y, p.z) for p in a}) == 10  # sequence advances

    def test_rejected_candidate_is_retried(self):
        # scripted draws: (0.25, 0.25) violates x^2 + y^2 <= 0.09 and must be
        # discarded; the next (x, y) pair is accepted, then z is drawn
        class Scripted:
            def __init__(self, values):
                self.values = list(values)

            def uniform(self, lo, hi):
                return self.values.pop(0)

        ws = Workspace()
        assert not ws.contains(features_from_xyz(0.25, 0.25, 0.1))
        p = sample_workspace_point(ws, Scripted([0.25, 0.25, -0.1, 0.2, 0.3]))
        assert (p.x, p.y, p.z) == (-0.1, 0.2, 0.3)


class TestTrueTau:
    def test_null_everywhere(self):
        rng = np.random.default_rng(2)
        spec = dgp(EffectPreset.NULL)
        for _ in range(50):
            assert true_tau(spec, sample_workspace_point(spec.workspace, rng)) == 0.0

    def test_regional_values(self):
        spec = dgp(EffectPreset.REGIONAL)
        assert true_tau(spec, features_from_xyz(0.1, 0.1, 0.3)) == 1.0
        assert true_tau(spec, features_from_xyz(-0.2, 0.1, 0.0)) == 0.5  # dist 0.224
        assert true_tau(spec, features_from_xyz(-0.1, 0.1, 0.0)) == 0.0  # dist 0.141
        assert true_tau(spec, features_from_xyz(0.1, 0.1, 0.1)) == 0.0

    def test_smooth_peak_and_decay(self):
        spec = dgp(EffectPreset.SMOOTH)
        assert true_tau(spec, features_from_xyz(0.15, 0.15, 0.10)) == 0.8
        off = true_tau(spec, features_from_xyz(0.15, 0.15, 0.20))
        assert off == pytest.approx(0.8 * math.exp(-0.5), rel=1e-12)

    def test_outside_workspace_rejected(self):
        spec = dgp()
        with pytest.raises(OutOfWorkspace):
            true_tau(spec, features_from_xyz(0.25, 0.25, 0.1))


class TestBaseline:
    def test_fitts_formula_at_one_doubling(self):
        p = features_from_xyz(0.05, 0.0, 0.0)
        assert baseline_time(dgp(), p) == pytest.approx(0.7, abs=1e-15)

    def test_monotone_in_distance(self):
        spec = dgp()
        dists = np.linspace(0.0, 0.3, 40)
        times = [baseline_time(spec, features_from_xyz(d, 0, 0)) for d in dists]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestGenerateDataset:
    def test_sizes_and_labels(self):
        d, truth = generate_dataset(dgp(), 7, 5, seed=1)
        assert d.group_counts() == (7, 5)
        assert truth.spec.effect_preset is EffectPreset.NULL
        assert validate_dataset(d) == (7, 5)

    def test_zero_noise_outcomes_are_exact(self):
        spec = dgp(EffectPreset.REGIONAL, noise_sigma=0.0)
        d, _ = generate_dataset(spec, 40, 40, seed=3)
        for row, group, outcome in zip(d.features.tolist(), d.groups.tolist(), d.outcomes.tolist()):
            p = TaskFeatures(*row)
            want = baseline_time(spec, p)
            if group == 1:
                want += true_tau(spec, p)
            assert outcome == max(spec.floor, want)

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
        rng = np.random.default_rng(6)
        feats, groups, outcomes = [], [], []
        while len(feats) < 60:
            p = sample_workspace_point(spec.workspace, rng)
            if not (p.x >= 0 and p.z >= 0.2):  # keep to the tau = 1.0 pocket
                continue
            mu = baseline_time(spec, p)
            feats.append(p.as_array()); groups.append(0); outcomes.append(mu)
            feats.append(p.as_array()); groups.append(1); outcomes.append(mu + 1.0)
        d = Dataset(np.array(feats), np.array(groups, dtype=np.int8), np.array(outcomes))
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


class TestDgpSpecValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            dgp(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            dgp(floor=0.0)
        with pytest.raises(ValueError):
            DgpSpec(baseline=BaselineParams(a=-1), effect_preset=EffectPreset.NULL)
