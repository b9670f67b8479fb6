import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from edm_rulex.errors import NumericError, ValidationError
from edm_rulex.psychostats import (
    anova_oneway,
    anova_row_from_summary,
    cronbach_alpha,
    format_loadings,
    levene_w,
    manova_wilks,
    p_value_f,
    p_value_t,
    partial_r,
    pca_varimax,
    pearson_r,
    reg_inc_beta,
    significance_label,
    mean_sd,
    t_test,
    t_test_from_summary,
    varimax_rotate,
)

# ---------------------------------------------------------------------------
# incomplete beta and p-values


def test_reg_inc_beta_uniform_case():
    for x in (0.0, 0.3, 1.0):
        assert abs(reg_inc_beta(x, 1, 1) - x) <= 1e-12


def test_reg_inc_beta_symmetry_point():
    for a in (1.0, 2.5, 7.0):
        assert abs(reg_inc_beta(0.5, a, a) - 0.5) <= 1e-12


def test_reg_inc_beta_against_scipy():
    rng = np.random.default_rng(123)
    for _ in range(300):
        a = float(rng.uniform(0.1, 60))
        b = float(rng.uniform(0.1, 60))
        x = float(rng.random())
        assert abs(reg_inc_beta(x, a, b) - scipy.special.betainc(a, b, x)) < 1e-12


def test_reg_inc_beta_domain():
    with pytest.raises(ValidationError):
        reg_inc_beta(1.5, 1, 1)
    with pytest.raises(ValidationError):
        reg_inc_beta(0.5, 0, 1)


def test_p_value_t_matches_integration_oracle():
    # two-tailed p by 10^6-step trapezoidal integration of the t density
    t, df = 3.98, 77.5
    xs = np.linspace(t, 120.0, 10**6)
    log_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    pdf = np.exp(log_norm - (df + 1) / 2 * np.log1p(xs**2 / df))
    tail = 2.0 * np.trapezoid(pdf, xs)
    p = p_value_t(t, df)
    assert p < 0.001
    assert abs(p - tail) < 1e-9


def test_p_value_f_edges():
    assert p_value_f(0.0, 3, 10) == 1.0
    assert p_value_f(100.0, 3, 10) < 1e-6
    assert significance_label(0.003) == "0.01"
    assert significance_label(0.03) == "0.05"
    assert significance_label(0.3) == "not"


# ---------------------------------------------------------------------------
# t tests


def test_t_identical_samples():
    res = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.t == 0.0 and res.p == 1.0


def test_t_hand_example_pooled():
    res = t_test([1, 2, 3], [4, 5, 6], method="pooled")
    assert math.isclose(res.t, 3.0 / math.sqrt(2.0 / 3.0), rel_tol=1e-12)
    assert abs(res.t - 3.674) < 1e-3
    assert res.df == 4


def test_t_from_summary_reference_cohort():
    welch = t_test_from_summary(11.84, 2.86, 49, 13.73, 1.67, 48, method="welch")
    assert abs(welch.t - 3.99) <= 0.05
    assert welch.p < 0.01
    pooled = t_test_from_summary(11.84, 2.86, 49, 13.73, 1.67, 48, method="pooled")
    assert abs(pooled.t - 3.96) < 0.005  # the non-matching method
    assert pooled.df == 95


def test_t_equal_means_zero():
    res = t_test_from_summary(5.0, 1.0, 10, 5.0, 2.0, 12)
    assert res.t == 0.0


def test_t_zero_variance_both():
    with pytest.raises(NumericError, match="zero variance"):
        t_test([2.0, 2.0], [3.0, 3.0])


def test_t_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=8)
        b = rng.normal(loc=0.5, size=11)
        for method in ("pooled", "welch"):
            ab = t_test(a, b, method)
            ba = t_test(b, a, method)
            assert math.isclose(ab.t, -ba.t, rel_tol=1e-12)
            assert math.isclose(ab.p, ba.p, rel_tol=1e-12)


def test_t_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=12)
        b = rng.normal(loc=0.3, scale=2.0, size=9)
        ours = t_test(a, b, "welch")
        ref = scipy.stats.ttest_ind(b, a, equal_var=False)
        assert math.isclose(ours.t, ref.statistic, rel_tol=1e-10)
        assert math.isclose(ours.p, ref.pvalue, rel_tol=1e-10)
        ours = t_test(a, b, "pooled")
        ref = scipy.stats.ttest_ind(b, a, equal_var=True)
        assert math.isclose(ours.t, ref.statistic, rel_tol=1e-10)
        assert math.isclose(ours.p, ref.pvalue, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# correlation


def test_pearson_edges():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, x) == 1.0
    assert pearson_r(x, [-v for v in x]) == -1.0
    assert math.isclose(pearson_r([1, 2, 3, 4], [2, 1, 4, 3]), 0.6, rel_tol=1e-12)
    with pytest.raises(NumericError):
        pearson_r([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValidationError):
        pearson_r([1, 2], [3, 4])


def test_pearson_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.normal(size=15)
        y = rng.normal(size=15) + 0.4 * x
        assert math.isclose(pearson_r(x, y), scipy.stats.pearsonr(x, y).statistic, rel_tol=1e-10)


def test_partial_collapses_without_control():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0]
    z = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0]  # orthogonal to both
    assert math.isclose(partial_r(x, y, z), pearson_r(x, y), abs_tol=1e-12)


def test_partial_hand_example():
    assert math.isclose(partial_r([1, 2, 3, 4], [2, 1, 4, 3], [1, 1, 2, 2]), -1.0, abs_tol=1e-12)


def residual_partial(x, y, z):
    # independent oracle: correlate the two regression residuals on z
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    design = np.column_stack([np.ones_like(z), z])
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))


def test_partial_matches_residual_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = rng.normal(size=20)
        x = 0.6 * z + rng.normal(size=20)
        y = -0.3 * z + rng.normal(size=20)
        assert abs(partial_r(x, y, z) - residual_partial(x, y, z)) <= 1e-10


def test_partial_degenerate_control():
    x = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(NumericError, match="degenerate"):
        partial_r(x, [2, 1, 4, 3], x)


# ---------------------------------------------------------------------------
# reliability


def test_alpha_identical_items():
    items = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert math.isclose(cronbach_alpha(items), 1.0, rel_tol=1e-12)


def test_alpha_uncorrelated_items():
    items = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert abs(cronbach_alpha(items)) <= 1e-12


def test_alpha_negative_not_clamped():
    items = np.array([[1.0, 1.0, 3.0], [2.0, 2.0, 2.0], [3.0, 3.0, 1.0]])
    assert math.isclose(cronbach_alpha(items), -3.0, rel_tol=1e-12)


def test_alpha_scale_invariant():
    rng = np.random.default_rng(2)
    items = rng.normal(size=(30, 6))
    base = cronbach_alpha(items)
    assert abs(cronbach_alpha(items * 7.3) - base) <= 1e-12


def test_alpha_errors():
    with pytest.raises(ValidationError):
        cronbach_alpha(np.ones((5, 1)))
    with pytest.raises(NumericError):
        cronbach_alpha(np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]]))


# ---------------------------------------------------------------------------
# variance analysis


def test_levene_equal_deviations():
    res = levene_w([[1.0, 3.0], [5.0, 7.0]])
    assert res.w == 0.0 and res.p == 1.0


def test_levene_hand_example():
    res = levene_w([[1.0, 2.0, 9.0], [4.0, 5.0, 6.0]])
    assert math.isclose(res.w, 8.0, rel_tol=1e-12)
    assert res.df == (1, 4)


def test_levene_scale_sensitivity():
    base = levene_w([[1.0, 2.0, 3.0, 2.5], [1.2, 2.1, 2.9, 2.4]])
    scaled = levene_w([[10.0, 20.0, 30.0, 25.0], [1.2, 2.1, 2.9, 2.4]])
    assert scaled.w > base.w


def test_levene_against_scipy():
    rng = np.random.default_rng(9)
    groups = [rng.normal(scale=s, size=14) for s in (1.0, 2.5, 0.7)]
    ours = levene_w(groups)
    ref = scipy.stats.levene(*groups, center="mean")
    assert math.isclose(ours.w, ref.statistic, rel_tol=1e-10)
    assert math.isclose(ours.p, ref.pvalue, rel_tol=1e-10)


@pytest.mark.parametrize("test, name", [(levene_w, "Levene test"), (anova_oneway, "ANOVA")])
@pytest.mark.parametrize(
    "groups, problem",
    [
        ([[1.0, 2.0, 3.0]], "needs at least 2 groups"),
        ([[1.0, 2.0], [3.0]], "every group needs at least 2 values"),
    ],
)
def test_group_check_names_the_test(test, name, groups, problem):
    with pytest.raises(ValidationError, match=f"^{name}:? {problem}$"):
        test(groups)


def test_anova_reference_row():
    # study-time row of the learning-skills variance table
    row = anova_row_from_summary(114.19, 669.36, 1, 95)
    assert abs(row.f - 16.21) < 0.01
    assert abs(row.eta_squared - 0.146) < 0.001
    assert abs(row.f - 16.2) <= 0.1 and abs(row.eta_squared - 0.15) <= 0.01


def test_anova_hand_example():
    row = anova_oneway([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert math.isclose(row.ss_hypothesis, 13.5, rel_tol=1e-12)
    assert math.isclose(row.ss_error, 4.0, rel_tol=1e-12)
    assert math.isclose(row.f, 13.5, rel_tol=1e-12)
    assert math.isclose(row.eta_squared, 13.5 / 17.5, rel_tol=1e-12)


def test_anova_identical_groups():
    row = anova_oneway([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert row.f == 0.0 and row.eta_squared == 0.0


def test_anova_zero_error_ss():
    with pytest.raises(NumericError):
        anova_oneway([[1.0, 1.0], [2.0, 2.0]])


def test_anova_against_scipy():
    rng = np.random.default_rng(15)
    groups = [rng.normal(loc=m, size=12) for m in (0.0, 0.5, 1.1)]
    ours = anova_oneway(groups)
    ref = scipy.stats.f_oneway(*groups)
    assert math.isclose(ours.f, ref.statistic, rel_tol=1e-10)
    assert math.isclose(ours.p, ref.pvalue, rel_tol=1e-10)


def test_manova_equal_means():
    rng = np.random.default_rng(21)
    base = rng.normal(size=(12, 3))
    shifted = base.copy()  # identical group means
    res = manova_wilks([base, shifted])
    assert math.isclose(res.wilks_lambda, 1.0, abs_tol=1e-12)
    assert res.f == 0.0 and res.eta_squared == 0.0


def test_manova_reported_identity_pairs():
    for lam, eta in ((0.68, 0.32), (0.56, 0.44), (0.82, 0.18)):
        assert abs((1 - lam) - eta) <= 0.005


def test_manova_identity_exact_on_synthetic_data():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(20, 4))
    b = rng.normal(loc=0.8, size=(25, 4))
    res = manova_wilks([a, b])
    assert res.eta_squared == 1.0 - res.wilks_lambda
    # independent recomputation straight from determinants
    grand = np.vstack([a, b]).mean(axis=0)
    e = np.zeros((4, 4))
    h = np.zeros((4, 4))
    for m in (a, b):
        c = m - m.mean(axis=0)
        e += c.T @ c
        d = (m.mean(axis=0) - grand).reshape(-1, 1)
        h += m.shape[0] * d @ d.T
    lam = np.linalg.det(e) / np.linalg.det(e + h)
    assert math.isclose(res.wilks_lambda, lam, rel_tol=1e-10)


def test_manova_reduces_to_anova():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(9, 1))
        b = rng.normal(loc=0.4, size=(13, 1))
        res = manova_wilks([a, b])
        row = anova_oneway([a.ravel(), b.ravel()])
        assert abs(res.f - row.f) <= 1e-9 * max(1.0, abs(row.f))
        assert res.df == (1, 20)
        assert math.isclose(res.p, row.p, rel_tol=1e-9)


def test_manova_singular_error():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(10, 2))
    b = rng.normal(size=(10, 2))
    a = np.column_stack([a, a[:, 0] + a[:, 1]])  # dependent third column
    b = np.column_stack([b, b[:, 0] + b[:, 1]])
    with pytest.raises(NumericError, match="singular"):
        manova_wilks([a, b])


def test_manova_scatter_overflow_is_a_numeric_error():
    # finite scores near 1e300 whose squared deviations pass float64's range:
    # an error, and no RuntimeWarning on the way
    rng = np.random.default_rng(1)
    a, b = (rng.normal(1e300, 1e299, size=(10, 2)) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="overflow"):
            manova_wilks([a, b])


def test_manova_group_count_and_size():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        manova_wilks([rng.normal(size=(5, 2))])
    with pytest.raises(ValidationError):
        manova_wilks([rng.normal(size=(3, 4)), rng.normal(size=(2, 4))])
    with pytest.raises(ValidationError, match="at least 1 observation"):
        manova_wilks([np.empty((0, 2)), rng.normal(size=(9, 2))])


# ---------------------------------------------------------------------------
# exactly constant samples: numpy's pairwise mean of 30 x 11.84 is
# 11.839999999999995, so deviations near 1e-15 would pass every zero guard

MA, FE = np.full(30, 11.84), np.full(30, 13.73)


def test_constant_samples_have_no_t():
    assert MA.mean() != 11.84
    with pytest.raises(NumericError, match="zero variance in both samples"):
        t_test(MA, FE)


def test_a_constant_sample_has_no_correlation():
    y = np.random.default_rng(4).normal(size=30)
    with pytest.raises(NumericError, match="undefined for constant input"):
        pearson_r(MA, y)
    with pytest.raises(NumericError, match="undefined for constant input"):
        partial_r(y, MA, y + 1.0)


def test_constant_groups_have_no_error_sum_of_squares():
    with pytest.raises(NumericError, match="zero error sum of squares"):
        anova_oneway([MA, FE])


def test_constant_groups_have_equal_deviations():
    assert levene_w([MA, FE]) == (0.0, (1, 58), 1.0)


def test_constant_items_have_no_alpha():
    with pytest.raises(NumericError, match="total-score variance is zero"):
        cronbach_alpha(np.column_stack([np.full(30, 1.1), np.full(30, 2.3)]))


def test_a_variable_constant_in_each_group_makes_the_within_scatter_singular():
    rng = np.random.default_rng(6)
    a, b = (np.column_stack([rng.normal(size=30), c]) for c in (MA, FE))
    with pytest.raises(NumericError, match="within-group scatter matrix is singular"):
        manova_wilks([a, b])


def test_mean_sd_is_exact_for_a_constant_and_numpy_for_the_rest():
    assert mean_sd(MA) == (11.84, 0.0)
    for x in np.random.default_rng(8).normal(3.0, 2.0, size=(20, 30)):
        assert mean_sd(x) == (x.mean(), x.std(ddof=1))


# ---------------------------------------------------------------------------
# factor analysis


def test_pca_identity_falls_back_to_one_factor():
    with pytest.warns(UserWarning, match="single factor"):
        sol = pca_varimax(np.eye(4))
    assert sol.n_factors == 1
    assert np.allclose(sol.eigenvalues, 1.0)


def test_pca_two_by_two_closed_form():
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    sol = pca_varimax(corr)
    assert np.allclose(np.sort(sol.eigenvalues), [0.4, 1.6])


def test_eigenvalues_sum_to_item_count():
    rng = np.random.default_rng(10)
    data = rng.normal(size=(40, 7)) @ rng.normal(size=(7, 7))
    sol = pca_varimax(data, retain=3)
    assert abs(sol.eigenvalues.sum() - 7.0) <= 1e-9


def test_varimax_preserves_communalities():
    rng = np.random.default_rng(12)
    loadings = rng.normal(scale=0.5, size=(8, 3))
    before = (loadings**2).sum(axis=1)
    after = (varimax_rotate(loadings) ** 2).sum(axis=1)
    assert np.abs(before - after).max() <= 1e-8


def _criterion(a):
    b = a * a
    p = a.shape[0]
    return float(np.sum(p * (b * b).sum(axis=0) - b.sum(axis=0) ** 2) / p**2)


def _canonical(a):
    a = a[:, np.argsort(-(a * a).sum(axis=0), kind="stable")]
    for j in range(a.shape[1]):
        if a[np.argmax(np.abs(a[:, j])), j] < 0:
            a[:, j] = -a[:, j]
    return a


def test_varimax_matches_grid_search():
    # perfect 2-factor structure rotated 30 degrees off axis; the optimum
    # sits exactly on the 1-degree grid
    simple = np.array([[0.9, 0.0], [0.8, 0.0], [0.0, 0.7], [0.0, 0.6]])
    theta = math.radians(30)
    rot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    mixed = simple @ rot
    ours = _canonical(varimax_rotate(mixed))

    h = np.sqrt((mixed**2).sum(axis=1))
    normalized = mixed / h[:, None]
    best_angle, best_val = 0.0, -np.inf
    for deg in range(0, 180):
        a = math.radians(deg)
        g = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
        val = _criterion(normalized @ g)
        if val > best_val:
            best_angle, best_val = a, val
    g = np.array(
        [[math.cos(best_angle), math.sin(best_angle)], [-math.sin(best_angle), math.cos(best_angle)]]
    )
    grid = _canonical((normalized @ g) * h[:, None])
    assert np.abs(ours - grid).max() <= 1e-3
    assert np.abs(ours - simple).max() <= 1e-6


def test_pca_non_psd_rejected():
    bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    with pytest.raises(NumericError, match="positive semi-definite"):
        pca_varimax(bad)


def test_format_loadings_threshold():
    sol = pca_varimax(np.array([[1.0, 0.6], [0.6, 1.0]]), retain=2)
    table = format_loadings(sol, threshold=0.3)
    for row, full in zip(table, sol.loadings):
        for shown, value in zip(row, full):
            if abs(value) >= 0.3:
                assert shown == pytest.approx(value)
            else:
                assert shown is None


def test_fixed_retention_validation():
    with pytest.raises(ValidationError):
        pca_varimax(np.eye(3), retain=5)
