"""Degree distributions, MLE fits, model selection, rank correlation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from simplicent import (
    FitResult,
    correlation_table,
    degree_distribution,
    fit_all,
    fit_mle,
    generate_P,
    generate_S,
    select_model,
    spearman,
)


class TestDegreeDistribution:
    def test_s_family_point_mass(self):
        dd = degree_distribution(generate_S(6, 2), 2)
        assert dd.values.tolist() == [5]
        assert dd.pdf.tolist() == [1.0]
        assert dd.ccdf.tolist() == [1.0]

    @pytest.mark.parametrize("l", [3, 5, 10])
    def test_p_family_two_values(self, l):
        dd = degree_distribution(generate_P(l, 2), 2)
        assert dd.values.tolist() == [1, 2]
        assert dd.pdf[0] == pytest.approx(2 / l)
        assert dd.pdf[1] == pytest.approx((l - 2) / l)

    def test_nine_node_level2(self, fig):
        dd = degree_distribution(fig, 2)
        pdf = dict(zip(dd.values.tolist(), dd.pdf.tolist()))
        assert pdf[0] == pytest.approx(3 / 7)
        assert pdf[1] == pytest.approx(3 / 7)
        assert pdf[3] == pytest.approx(1 / 7)

    def test_pdf_sums_to_one_and_ccdf_monotone(self, fig):
        for k in range(3):
            dd = degree_distribution(fig, k)
            assert dd.pdf.sum() == pytest.approx(1.0)
            assert dd.ccdf[0] == pytest.approx(1.0)
            assert (np.diff(dd.ccdf) <= 1e-12).all()
            assert np.allclose(dd.ccdf, dd.pdf[::-1].cumsum()[::-1])

    def test_empty_level_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            degree_distribution(generate_S(3, 1), 2)


class TestFitMle:
    def test_exponential_recovers_mean(self):
        rng = np.random.default_rng(11)
        sample = rng.exponential(2.0, size=500)
        fit = fit_mle(sample, "exponential")
        assert fit.success
        assert fit.params["mean"] == pytest.approx(2.0, rel=0.10)
        assert fit.params["mean"] == pytest.approx(sample.mean())

    def test_gen_pareto_recovers_shape(self):
        rng = np.random.default_rng(5)
        sample = spstats.genpareto.rvs(c=0.5, scale=15.0, size=2000, random_state=rng)
        fit = fit_mle(sample, "gen-pareto")
        assert fit.success
        assert abs(fit.params["k"] - 0.5) <= 0.15
        # continuous samples pin the threshold at the minimum
        assert fit.params["theta"] == pytest.approx(sample.min())

    def test_integer_sample_location_is_half_below_min(self):
        degrees = np.repeat([1, 2, 3, 5, 9, 17], 10)
        gp = fit_mle(degrees, "gen-pareto")
        gev = fit_mle(degrees, "gev")
        assert gp.params["theta"] == pytest.approx(0.5)
        assert gev.params["mu"] == pytest.approx(0.5)
        assert gev.n_params == 2

    def test_continuous_gev_estimates_location(self):
        rng = np.random.default_rng(6)
        sample = spstats.genextreme.rvs(c=-0.3, loc=12.0, scale=4.0, size=2000, random_state=rng)
        fit = fit_mle(sample, "gev")
        assert fit.success and fit.n_params == 3
        assert fit.params["mu"] == pytest.approx(12.0, abs=1.0)
        assert fit.params["k"] == pytest.approx(0.3, abs=0.15)

    def test_constant_sample_degenerate(self):
        sample = np.full(50, 3.0)
        for family in ("gamma", "normal", "lognormal", "gen-pareto", "gev"):
            fit = fit_mle(sample, family)
            assert not fit.success
            assert "degenerate" in fit.message

    def test_small_sample_is_na(self):
        fit = fit_mle([1, 2, 3], "normal")
        assert not fit.success
        assert "insufficient" in fit.message

    def test_aic_bic_identities_exact(self):
        rng = np.random.default_rng(2)
        sample = rng.gamma(2.0, 3.0, size=300)
        for fit in fit_all(sample):
            if not fit.success:
                continue
            assert fit.aic == 2 * fit.n_params - 2 * fit.loglik
            assert fit.bic == fit.n_params * math.log(fit.n) - 2 * fit.loglik

    def test_shift_recorded_for_positive_support(self):
        sample = np.concatenate([np.zeros(10), np.arange(1, 41)])
        for family in ("gamma", "lognormal"):
            fit = fit_mle(sample, family)
            assert fit.success
            assert fit.shift == 0.5

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            fit_mle(np.arange(20), "weibull")

    def test_normal_closed_form(self):
        rng = np.random.default_rng(8)
        sample = rng.normal(4.0, 1.5, size=400)
        fit = fit_mle(sample, "normal")
        assert fit.params["mu"] == pytest.approx(sample.mean())
        assert fit.params["sigma"] == pytest.approx(sample.std())


class TestSelectModel:
    @staticmethod
    def _fit(family, aic, bic):
        return FitResult(family, {}, 2, loglik=0.0, aic=aic, bic=bic, n=100, success=True)

    def test_decisive_by_aic(self):
        sel = select_model([self._fit("a", 204.0, 210.0), self._fit("b", 214.0, 220.0)])
        assert sel.delta_aic[1] == pytest.approx(math.exp(-5.0))
        assert sel.delta_aic[1] < 0.01
        assert sel.winner == "a" and sel.stars == "" and sel.label == "a"

    def test_indecisive_everywhere_is_na(self):
        sel = select_model([self._fit("a", 204.0, 206.0), self._fit("b", 204.5, 207.0)])
        assert sel.winner is None
        assert sel.label == "NA"
        assert sel.delta_bic == pytest.approx(1.0)

    def test_bic_strong_band(self):
        sel = select_model([self._fit("a", 204.0, 206.0), self._fit("b", 205.0, 213.0)])
        assert sel.winner == "a"
        assert sel.stars == "*"
        assert sel.delta_bic == pytest.approx(7.0)
        assert "strong" in sel.verdict and "very" not in sel.verdict

    def test_bic_very_strong_band(self):
        sel = select_model([self._fit("a", 204.0, 206.0), self._fit("b", 205.0, 218.0)])
        assert sel.stars == "*" and "very strong" in sel.verdict

    def test_bic_positive_band_reports_both(self):
        sel = select_model([self._fit("a", 204.0, 206.0), self._fit("b", 204.8, 209.0)])
        assert sel.stars == "**"
        assert sel.label == "a/b**"
        assert sel.winner == "a"

    def test_all_failed_is_na(self):
        sel = select_model([FitResult("a", n=5), FitResult("b", n=5)])
        assert sel.winner is None and "failed" in sel.verdict

    def test_delta_aic_in_unit_interval(self):
        fits = [self._fit(str(i), 100.0 + 3 * i, 100.0 + 3 * i) for i in range(5)]
        sel = select_model(fits)
        assert sel.delta_aic[0] == 1.0
        assert all(0 < d <= 1 for d in sel.delta_aic)


class TestSpearman:
    def test_identical_is_one(self):
        assert spearman([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_tied_case_matches_hand_computation(self):
        x = np.array([1.0, 2.0, 2.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        rx = [Fraction(1), Fraction(5, 2), Fraction(5, 2), Fraction(4)]
        ry = [Fraction(1), Fraction(3), Fraction(2), Fraction(4)]
        mean_rx = sum(rx) / 4
        mean_ry = sum(ry) / 4
        cov = sum((a - mean_rx) * (b - mean_ry) for a, b in zip(rx, ry))
        var_x = sum((a - mean_rx) ** 2 for a in rx)
        var_y = sum((b - mean_ry) ** 2 for b in ry)
        want = float(cov) / math.sqrt(float(var_x) * float(var_y))
        assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_rounding_noise_on_tied_scores_is_ignored(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.choice([1.0, 2.5, 1e-3, 7e5], size=30)  # four tied groups
        y = rng.normal(size=30)
        noisy = x.copy()
        for i in rng.choice(30, size=15, replace=False):
            noisy[i] = np.nextafter(noisy[i], np.inf if rng.random() < 0.5 else -np.inf)
        assert (noisy != x).sum() == 15
        assert spearman(noisy, y) == spearman(x, y)
        assert spearman(y, noisy) == spearman(y, x)

    def test_zero_variance_is_nan(self):
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=3, max_size=24
        ),
        scale=st.integers(1, 5),
        offset=st.integers(-10, 10),
    )
    def test_invariant_under_monotone_transform(self, values, scale, offset):
        x = np.array([a for a, _ in values], dtype=float)
        y = np.array([b for _, b in values], dtype=float)
        base = spearman(x, y)
        transformed = spearman(scale * x**3 + offset, y)
        if math.isnan(base):
            assert math.isnan(transformed)
        else:
            assert transformed == pytest.approx(base, abs=1e-12)


class TestRecovery:
    """Simulating from a family and ranking by AIC recovers that family.

    The exponential is a boundary member of both gamma (shape 1) and the
    threshold-pinned generalized Pareto (shape 0), so on exponential data any
    of those three carries the generating distribution and AIC cannot be
    expected to separate them; the other families must win outright.
    """

    CASES = {
        "gen-pareto": lambda rng: spstats.genpareto.rvs(c=0.5, scale=15.0, size=2000, random_state=rng),
        "gamma": lambda rng: spstats.gamma.rvs(2.5, scale=1.7, size=2000, random_state=rng),
        "exponential": lambda rng: spstats.expon.rvs(scale=2.0, size=2000, random_state=rng),
        "lognormal": lambda rng: spstats.lognorm.rvs(0.8, scale=5.0, size=2000, random_state=rng),
        "normal": lambda rng: spstats.norm.rvs(20.0, 2.0, size=2000, random_state=rng),
        "gev": lambda rng: spstats.genextreme.rvs(c=-0.5, loc=10.0, scale=15.0, size=2000, random_state=rng),
    }
    ACCEPT = {"exponential": {"exponential", "gamma", "gen-pareto"}}

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_true_family_wins_most_seeds(self, family):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(1234 + seed)
            sample = self.CASES[family](rng)
            ranked = select_model(fit_all(sample)).ranked
            accept = self.ACCEPT.get(family, {family})
            wins += ranked[0].family in accept
        assert wins >= 9


class TestCorrelationTable:
    def test_diagonal_is_one(self, fig):
        table = correlation_table(fig, measures=("degree", "subgraph"), levels=(0, 1))
        assert np.allclose(np.diag(table.matrix), 1.0)

    def test_constant_vectors_give_na(self):
        c = generate_S(6, 2)
        table = correlation_table(c, measures=("degree", "closeness"), levels=(2,))
        off = table.matrix[0, 1]
        assert math.isnan(off)
        assert math.isnan(table.averages[2, 2])

    def test_symmetry_and_average_blocks(self, fig):
        table = correlation_table(fig, measures=("degree", "subgraph", "closeness"), levels=(0, 1))
        m = table.matrix
        assert np.allclose(m, m.T, equal_nan=True)
        block = [m[i, j] for i in range(3) for j in range(3, 6)]
        assert table.averages[0, 1] == pytest.approx(float(np.mean(block)))
        intra = [m[0, 1], m[0, 2], m[1, 2]]
        assert table.averages[0, 0] == pytest.approx(float(np.mean(intra)))

    def test_inter_level_uses_node_projection(self, fig):
        from simplicent import degree_centrality, project_to_nodes, spearman as rho

        table = correlation_table(fig, measures=("degree",), levels=(0, 2))
        node_deg = degree_centrality(fig, 0)
        tri_deg_nodes = project_to_nodes(fig, degree_centrality(fig, 2))
        want = rho(node_deg, tri_deg_nodes)
        assert table.matrix[0, 1] == pytest.approx(want, abs=1e-12)
