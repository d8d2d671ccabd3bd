import numpy as np
import pytest

from metamine.data_model import validate_tables
from metamine.synth import (SynthConfig, SynthMode, centered_scores, generate)


class TestConfigValidation:
    def test_sizes_below_three_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            SynthConfig(n=2)

    def test_latent_t_bound(self):
        with pytest.raises(ValueError, match="latent_t"):
            SynthConfig(d=4, l=3, latent_t=4)

    def test_outcome_mode_needs_instances(self):
        with pytest.raises(ValueError, match="instance"):
            SynthConfig(mode=SynthMode.OUTCOME_LEVEL, instances_per_dataset=0)

    def test_mode_value_builds_its_member(self):
        config = SynthConfig(n=4, m=3, d=3, l=3, latent_t=2, mode="outcome",
                             instances_per_dataset=10)
        assert config.mode is SynthMode.OUTCOME_LEVEL
        assert generate(config).cube is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            SynthConfig(mode="bogus")

    @pytest.mark.parametrize("sigma", [1e-300, 0.3])
    def test_noise_in_exact_mode_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma applies to the "
                                             "noisy and outcome modes only"):
            SynthConfig(noise_sigma=sigma, mode=SynthMode.EXACT_BILINEAR)
        assert SynthConfig(noise_sigma=0.0).mode is SynthMode.EXACT_BILINEAR


class TestGenerate:
    def test_outputs_pass_validation(self):
        for mode in SynthMode:
            sigma = 0.0 if mode is SynthMode.EXACT_BILINEAR else 0.3
            res = generate(SynthConfig(n=5, m=4, d=4, l=3, latent_t=2,
                                       noise_sigma=sigma, seed=1, mode=mode,
                                       instances_per_dataset=40))
            assert validate_tables(res.x, res.a, res.performance).passed
            assert res.preferences.invariant_violations() == []

    def test_exact_mode_preferences_follow_score_order(self):
        res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=2))
        for i in range(6):
            s = res.scores[i]
            r = res.preferences.scores[i]
            for k in range(5):
                for j in range(5):
                    if s[k] > s[j]:
                        assert r[k] >= r[j]

    def test_sigma_zero_equals_exact_mode(self):
        exact = generate(SynthConfig(n=5, m=4, d=4, l=3, latent_t=2, seed=3,
                                     mode=SynthMode.EXACT_BILINEAR))
        noisy = generate(SynthConfig(n=5, m=4, d=4, l=3, latent_t=2, seed=3,
                                     noise_sigma=0.0,
                                     mode=SynthMode.NOISY_BILINEAR))
        np.testing.assert_array_equal(exact.scores, noisy.scores)
        np.testing.assert_array_equal(exact.preferences.scores,
                                      noisy.preferences.scores)

    def test_same_seed_reproducible(self):
        cfg = SynthConfig(n=5, m=4, d=4, l=3, latent_t=2, seed=4,
                          mode=SynthMode.OUTCOME_LEVEL, instances_per_dataset=30)
        a = generate(cfg)
        b = generate(cfg)
        np.testing.assert_array_equal(a.preferences.scores, b.preferences.scores)
        for ma, mb in zip(a.cube.matrices, b.cube.matrices):
            np.testing.assert_array_equal(ma, mb)

    def test_performance_in_squash_range(self):
        res = generate(SynthConfig(n=5, m=4, d=4, l=3, latent_t=2, seed=5))
        assert res.performance.values.min() >= 0.5
        assert res.performance.values.max() <= 0.95

    def test_outcome_mode_exercises_mcnemar_path(self):
        res = generate(SynthConfig(n=4, m=4, d=4, l=3, latent_t=2, seed=6,
                                   mode=SynthMode.OUTCOME_LEVEL,
                                   instances_per_dataset=120))
        assert res.cube is not None
        from metamine.preference import build_preference_matrix
        rebuilt = build_preference_matrix(res.cube)
        np.testing.assert_array_equal(rebuilt.scores, res.preferences.scores)


class TestOutcomeDrawOracle:
    """generate draws every dataset's correctness in one call; it must
    equal the per-dataset loop of draws bit for bit, so a change of the
    draw order changes every outcome cube and fails here."""

    @staticmethod
    def loop_cube(config, perf):
        """The outcome matrices of one draw per dataset, in dataset order,
        after the draws generate makes before them."""
        rng = np.random.default_rng(config.seed)
        n, m = config.n, config.m
        rng.standard_normal((n, config.d))
        rng.standard_normal((m, config.l))
        rng.standard_normal((config.d, config.latent_t))
        rng.standard_normal((config.l, config.latent_t))
        if config.noise_sigma > 0:
            rng.standard_normal((n, m))
        return [(rng.random((config.instances_per_dataset, m)) < perf[i])
                .astype(float) for i in range(n)]

    @pytest.mark.parametrize("n, m, instances, seed, sigma", [
        (3, 3, 1, 0, 0.0), (5, 4, 40, 1, 0.3), (7, 9, 13, 2, 0.0),
        (12, 5, 200, 3, 1.5)])
    def test_cube_equals_per_dataset_draws(self, n, m, instances, seed, sigma):
        config = SynthConfig(n=n, m=m, d=4, l=3, latent_t=2, seed=seed,
                             noise_sigma=sigma, mode=SynthMode.OUTCOME_LEVEL,
                             instances_per_dataset=instances)
        res = generate(config)
        cube, expected = res.cube, self.loop_cube(config, res.performance.values)
        assert len(cube.matrices) == len(expected)
        for got, want in zip(cube.matrices, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


class TestCenteredScores:
    def test_doubly_centered(self):
        res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=7))
        c = centered_scores(res)
        np.testing.assert_allclose(c.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(c.sum(axis=1), 0.0, atol=1e-10)

    def test_exactly_bilinear_in_standardized_features(self):
        from metamine.data_model import standardize
        res = generate(SynthConfig(n=8, m=6, d=4, l=3, latent_t=2, seed=8))
        c = centered_scores(res)
        xs, xrec = standardize(res.x)
        as_, arec = standardize(res.a)
        # map the true factors through the standardization scaling
        u = res.u_true * xrec.scale[:, None]
        v = res.v_true * arec.scale[:, None]
        np.testing.assert_allclose(xs.features @ u @ v.T @ as_.features.T, c,
                                   atol=1e-10)
