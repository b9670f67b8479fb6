"""Statistical procedures for cohort analysis.

Covers the tests a gender-difference study of categorical student data
needs: independent-samples t (pooled and Welch), Pearson and partial
correlation, Cronbach's alpha, Levene's W, one-way ANOVA, two-group MANOVA
via Wilks' lambda with the exact-F transform, and principal components with
varimax rotation.  P-values come from the regularized incomplete beta
function implemented here, so there is no table lookup and no external
dependency.

A sample, or a column of a group's matrix, whose min equals its max is
exactly constant: it takes its own value as its mean, so its deviations are
exactly zero and its variance is 0.  numpy's pairwise mean need not give that
value (30 x 11.84 averages to 11.839999999999995), and deviations near 1e-15
would slip past every exact-zero guard, writing a t of 1e15 or an F of 1e30
where the statistic is undefined.  Every other sample keeps numpy's mean and
variance, bit for bit.

All functions are pure over immutable inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ValidationError

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 500
_VARIMAX_TOL = 1e-10
_VARIMAX_MAX_SWEEPS = 1000


# ---------------------------------------------------------------------------
# special functions and p-values


def _beta_cont_frac(x: float, a: float, b: float) -> float:
    # Continued fraction for I_x(a,b), evaluated by the modified Lentz method.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    I_x(a,b) = 1/B(a,b) * integral_0^x t^(a-1) (1-t)^(b-1) dt, computed by
    continued fraction with the symmetry switch I_x(a,b) = 1 - I_{1-x}(b,a)
    at x > (a+1)/(a+b+2).  Absolute error below 1e-12 over the domain.
    """
    if a <= 0 or b <= 0:
        raise ValidationError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(x, a, b) / a
    return 1.0 - front * _beta_cont_frac(1.0 - x, b, a) / b


def p_value_t(t: float, df: float) -> float:
    """Two-tailed p of a t statistic: I_{df/(df+t^2)}(df/2, 1/2)."""
    if df <= 0:
        raise ValidationError(f"degrees of freedom must be > 0, got {df}")
    return reg_inc_beta(df / (df + t * t), df / 2.0, 0.5)


def p_value_f(f: float, df1: float, df2: float) -> float:
    """Upper-tail p of an F statistic: I_{df2/(df2+df1*f)}(df2/2, df1/2)."""
    if df1 <= 0 or df2 <= 0:
        raise ValidationError(f"degrees of freedom must be > 0, got ({df1}, {df2})")
    if f < 0:
        raise ValidationError(f"F statistic must be >= 0, got {f}")
    return reg_inc_beta(df2 / (df2 + df1 * f), df2 / 2.0, df1 / 2.0)


def significance_label(p: float) -> str:
    """The strictest conventional level the p-value clears: 0.01, 0.05, or not."""
    if p < 0.01:
        return "0.01"
    if p < 0.05:
        return "0.05"
    return "not"


# ---------------------------------------------------------------------------
# moments


def _mean(a: np.ndarray, axis: int | None = None):
    """``a.mean(axis)``, with a constant sample (column, along ``axis=0``)
    taking its own value; see the module docstring."""
    lo = a.min(axis=axis)
    return np.where(lo == a.max(axis=axis), lo, a.mean(axis=axis))


def _var(a: np.ndarray, axis: int | None = None):
    """``a.var(axis, ddof=1)``, exactly 0 for a constant sample (column)."""
    return np.where(a.min(axis=axis) == a.max(axis=axis), 0.0, a.var(axis=axis, ddof=1))


def mean_sd(sample: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n - 1 denominator) of a 1-D
    sample of at least 2 values; a constant sample has sd exactly 0."""
    a = np.asarray(sample, dtype=float)
    return float(_mean(a)), math.sqrt(float(_var(a)))


# ---------------------------------------------------------------------------
# mean comparison


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float
    method: str  # "pooled" or "welch"


def t_test_from_summary(
    mean_a: float,
    sd_a: float,
    n_a: int,
    mean_b: float,
    sd_b: float,
    n_b: int,
    method: str = "welch",
) -> TTestResult:
    """Independent-samples t from summary statistics; t = (mean_b - mean_a)/SE.

    Pooled: SE = s_p * sqrt(1/n_a + 1/n_b) with df = n_a + n_b - 2.
    Welch: SE = sqrt(s_a^2/n_a + s_b^2/n_b) with Satterthwaite df.
    """
    if method not in ("pooled", "welch"):
        raise ValidationError(f"method must be 'pooled' or 'welch', got {method!r}")
    if n_a < 2 or n_b < 2:
        raise ValidationError(f"each sample needs n >= 2, got {n_a} and {n_b}")
    if sd_a < 0 or sd_b < 0:
        raise ValidationError("standard deviations must be non-negative")
    va, vb = sd_a**2 / n_a, sd_b**2 / n_b
    if method == "pooled":
        sp2 = ((n_a - 1) * sd_a**2 + (n_b - 1) * sd_b**2) / (n_a + n_b - 2)
        se = math.sqrt(sp2 * (1.0 / n_a + 1.0 / n_b))
        df = float(n_a + n_b - 2)
    else:
        se = math.sqrt(va + vb)
        df = (va + vb) ** 2 / (va**2 / (n_a - 1) + vb**2 / (n_b - 1)) if va + vb > 0 else 0.0
    if se == 0:
        raise NumericError("t is undefined: zero variance in both samples")
    t = (mean_b - mean_a) / se
    return TTestResult(t=t, df=df, p=p_value_t(t, df), method=method)


def t_test(sample_a: Sequence[float], sample_b: Sequence[float], method: str = "welch") -> TTestResult:
    """Independent-samples t on raw values, each sample's mean and sd by
    ``mean_sd``; see t_test_from_summary."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValidationError("each sample needs at least 2 values")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("samples must be finite")
    return t_test_from_summary(*mean_sd(a), a.size, *mean_sd(b), b.size, method=method)


# ---------------------------------------------------------------------------
# correlation


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation in [-1, 1]; undefined for a constant
    sample, by the exact rule of the module docstring."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ValidationError("correlation needs at least 3 pairs")
    dx = x - _mean(x)
    dy = y - _mean(y)
    sxx, syy = float(dx @ dx), float(dy @ dy)
    if sxx == 0 or syy == 0:
        raise NumericError("correlation is undefined for constant input")
    return float(np.clip((dx @ dy) / math.sqrt(sxx * syy), -1.0, 1.0))


def partial_r(x: Sequence[float], y: Sequence[float], z: Sequence[float]) -> float:
    """Correlation of x and y with z linearly removed from both:

    r_xy.z = (r_xy - r_xz * r_yz) / sqrt((1 - r_xz^2) (1 - r_yz^2))
    """
    r_xy = pearson_r(x, y)
    r_xz = pearson_r(x, z)
    r_yz = pearson_r(y, z)
    if abs(r_xz) >= 1.0 or abs(r_yz) >= 1.0:
        raise NumericError("partial correlation is degenerate: control correlates perfectly")
    value = (r_xy - r_xz * r_yz) / math.sqrt((1 - r_xz**2) * (1 - r_yz**2))
    return float(np.clip(value, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Cronbach's alpha


def cronbach_alpha(items: np.ndarray) -> float:
    """Cronbach's alpha of a persons x items score matrix.

    alpha = k/(k-1) * (1 - sum of item variances / variance of total score),
    sample variances with the n-1 denominator, exactly 0 for a constant
    item or total.  May be negative; it is returned as computed, never
    clamped.
    """
    m = np.asarray(items, dtype=float)
    if m.ndim != 2:
        raise ValidationError("item matrix must be 2-D (persons x items)")
    n, k = m.shape
    if k < 2:
        raise ValidationError(f"need at least 2 items, got {k}")
    if n < 2:
        raise ValidationError(f"need at least 2 persons, got {n}")
    total_var = float(_var(m.sum(axis=1)))
    if total_var == 0:
        raise NumericError("alpha is undefined: total-score variance is zero")
    item_var = float(_var(m, axis=0).sum())
    return k / (k - 1.0) * (1.0 - item_var / total_var)


# ---------------------------------------------------------------------------
# variance analysis


def _checked_groups(groups: Sequence[Sequence[float]], test: str) -> list[np.ndarray]:
    arrs = [np.asarray(g, dtype=float) for g in groups]
    if len(arrs) < 2:
        raise ValidationError(f"{test} needs at least 2 groups")
    if any(a.size < 2 for a in arrs):
        raise ValidationError(f"{test}: every group needs at least 2 values")
    return arrs


def _ss_split(arrs: list[np.ndarray]) -> tuple[float, float, tuple[int, int]]:
    # Between-group sum n_i (mean_i - grand)^2, within-group sum sum (x_ij - mean_i)^2, their df;
    # a constant group (or pooled sample) adds exactly 0 to the within (between) sum.
    grand = _mean(np.concatenate(arrs))
    means = [_mean(a) for a in arrs]
    between = float(sum(a.size * (m - grand) ** 2 for a, m in zip(arrs, means)))
    within = float(sum(((a - m) ** 2).sum() for a, m in zip(arrs, means)))
    return between, within, (len(arrs) - 1, sum(a.size for a in arrs) - len(arrs))


class LeveneResult(NamedTuple):
    w: float
    df: tuple[int, int]
    p: float


def levene_w(groups: Sequence[Sequence[float]]) -> LeveneResult:
    """Mean-centered Levene test of variance equality.

    z_ij = |x_ij - group mean|;
    W = ((N-k)/(k-1)) * sum n_i (zbar_i - zbar)^2 / sum sum (z_ij - zbar_i)^2.
    When every deviation is identical W = 0 with p = 1 by convention, as for
    groups that are each constant.
    """
    arrs = _checked_groups(groups, "Levene test")
    num, den, df = _ss_split([np.abs(a - _mean(a)) for a in arrs])
    if den == 0:
        if num == 0:
            return LeveneResult(w=0.0, df=df, p=1.0)
        return LeveneResult(w=math.inf, df=df, p=0.0)
    w = df[1] / df[0] * num / den
    return LeveneResult(w=w, df=df, p=p_value_f(w, *df))


@dataclass(frozen=True)
class AnovaRow:
    ss_hypothesis: float
    ss_error: float
    df_hypothesis: int
    df_error: int
    ms_hypothesis: float
    ms_error: float
    f: float
    p: float
    eta_squared: float


def anova_row_from_summary(ss_h: float, ss_e: float, df_h: int, df_e: int) -> AnovaRow:
    """Rebuild an ANOVA row from its sums of squares and df."""
    if ss_e <= 0:
        raise NumericError("zero error sum of squares: F and eta^2 are undefined")
    ms_h, ms_e = ss_h / df_h, ss_e / df_e
    f = ms_h / ms_e
    return AnovaRow(
        ss_hypothesis=ss_h,
        ss_error=ss_e,
        df_hypothesis=df_h,
        df_error=df_e,
        ms_hypothesis=ms_h,
        ms_error=ms_e,
        f=f,
        p=p_value_f(f, df_h, df_e),
        eta_squared=ss_h / (ss_h + ss_e),
    )


def anova_oneway(groups: Sequence[Sequence[float]]) -> AnovaRow:
    """One-way fixed-effects ANOVA on >= 2 groups of >= 2 values each."""
    arrs = _checked_groups(groups, "ANOVA")
    ss_h, ss_e, df = _ss_split(arrs)
    return anova_row_from_summary(ss_h, ss_e, *df)


@dataclass(frozen=True)
class ManovaResult:
    wilks_lambda: float
    f: float
    df: tuple[int, int]
    p: float
    eta_squared: float  # 1 - lambda for the two-group case


def manova_wilks(groups: Sequence[np.ndarray]) -> ManovaResult:
    """Two-group MANOVA: Wilks' lambda with the exact F transform.

    lambda = det(E)/det(E+H) where E is the pooled within-group scatter and H
    the between-group scatter; for two groups
    F = ((N-p-1)/p) * (1-lambda)/lambda on (p, N-p-1) df and eta^2 = 1-lambda.
    A variable constant within a group adds exactly nothing to E, so one
    constant in every group makes E singular.
    """
    mats = [np.atleast_2d(np.asarray(g, dtype=float)) for g in groups]
    if len(mats) != 2:
        raise ValidationError(f"exact-F path needs exactly 2 groups, got {len(mats)}")
    p = mats[0].shape[1]
    if any(m.shape[1] != p for m in mats):
        raise ValidationError("groups must share the same variables")
    if any(m.shape[0] == 0 for m in mats):
        raise ValidationError("every group needs at least 1 observation")
    n_total = sum(m.shape[0] for m in mats)
    if n_total - 2 < p:
        raise ValidationError(
            f"too few observations ({n_total}) for {p} variables; need N - 2 >= p"
        )
    e = np.zeros((p, p))
    h = np.zeros((p, p))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        grand = _mean(np.vstack(mats), axis=0)
        for m in mats:
            mean = _mean(m, axis=0)
            centered = m - mean
            e += centered.T @ centered
            diff = (mean - grand).reshape(-1, 1)
            h += m.shape[0] * (diff @ diff.T)
        total = e + h
    if not np.isfinite(total).all():  # a non-finite e or h makes total non-finite too
        raise NumericError("scatter matrices overflow float64; rescale the variables")
    sign_e, logdet_e = np.linalg.slogdet(e)
    if sign_e <= 0:
        raise NumericError(
            "within-group scatter matrix is singular; remove linearly dependent variables"
        )
    sign_t, logdet_t = np.linalg.slogdet(total)
    if sign_t <= 0:
        raise NumericError("total scatter matrix is singular")
    wilks = float(np.exp(logdet_e - logdet_t))
    wilks = min(wilks, 1.0)
    df = (p, n_total - p - 1)
    f = (df[1] / df[0]) * (1.0 - wilks) / wilks
    return ManovaResult(
        wilks_lambda=wilks,
        f=f,
        df=df,
        p=p_value_f(f, *df),
        eta_squared=1.0 - wilks,
    )


# ---------------------------------------------------------------------------
# factor analysis


@dataclass(frozen=True)
class FactorSolution:
    n_factors: int
    loadings: np.ndarray  # items x factors, rotated
    eigenvalues: np.ndarray  # all eigenvalues, descending
    variance_pct: np.ndarray  # per retained factor, from rotated loadings
    communalities: np.ndarray  # per item


def _varimax_criterion(a: np.ndarray) -> float:
    # Sum over factors of the variance of squared loadings.
    b = a * a
    p = a.shape[0]
    return float(np.sum(p * (b * b).sum(axis=0) - b.sum(axis=0) ** 2) / p**2)


def varimax_rotate(loadings: np.ndarray) -> np.ndarray:
    """Varimax rotation by iterative pairwise planar rotations.

    Maximizes the variance of squared loadings over Kaiser row-normalized
    loadings, sweeping all factor pairs until the criterion gains less than
    1e-10 (at most 1 000 sweeps).  Columns come back ordered by explained
    variance with the dominant loading of each factor made positive, so the
    output is deterministic.
    """
    a = np.array(loadings, dtype=float)
    if a.ndim != 2:
        raise ValidationError("loadings must be a 2-D matrix")
    p, k = a.shape
    if k < 2:
        return a
    h = np.sqrt((a * a).sum(axis=1))
    scale = np.where(h > 0, h, 1.0)
    a = a / scale[:, None]
    crit = _varimax_criterion(a)
    for _ in range(_VARIMAX_MAX_SWEEPS):
        for i in range(k - 1):
            for j in range(i + 1, k):
                x, y = a[:, i], a[:, j]
                u = x * x - y * y
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u * u - v * v).sum() - (su * su - sv * sv) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-15:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                a[:, i], a[:, j] = c * x + s * y, -s * x + c * y
        new_crit = _varimax_criterion(a)
        if new_crit - crit < _VARIMAX_TOL:
            break
        crit = new_crit
    a = a * scale[:, None]
    order = np.argsort(-(a * a).sum(axis=0), kind="stable")
    a = a[:, order]
    for j in range(k):
        col = a[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            a[:, j] = -col
    return a


def pca_varimax(data: np.ndarray, retain: int | str = "kaiser") -> FactorSolution:
    """Principal components of a correlation matrix, varimax rotated.

    Accepts either a correlation matrix (square, symmetric, unit diagonal) or
    a raw persons x items table, from which the correlation matrix is
    computed.  Retention keeps eigenvalues above 1 ("kaiser"); when nothing
    clears 1, one factor is kept with a warning.  Pass an integer to fix the
    count instead.
    """
    m = np.asarray(data, dtype=float)
    if m.ndim != 2:
        raise ValidationError("input must be a 2-D matrix")
    is_corr = (
        m.shape[0] == m.shape[1]
        and np.allclose(m, m.T, atol=1e-10)
        and np.allclose(np.diag(m), 1.0, atol=1e-10)
    )
    if is_corr:
        corr = m
    else:
        if m.shape[1] < 2:
            raise ValidationError("need at least 2 items")
        if m.shape[0] < 3:
            raise ValidationError("need at least 3 observations to correlate")
        corr = np.corrcoef(m, rowvar=False)
    items = corr.shape[0]
    vals, vecs = np.linalg.eigh(corr)
    if vals.min() < -1e-8:
        raise NumericError(
            f"input is not positive semi-definite (eigenvalue {vals.min():.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    if retain == "kaiser":
        n_factors = int((vals > 1.0).sum())
        if n_factors == 0:
            warnings.warn(
                "no eigenvalue exceeds 1; retaining a single factor", stacklevel=2
            )
            n_factors = 1
    else:
        n_factors = int(retain)
        if not 1 <= n_factors <= items:
            raise ValidationError(f"factor count must be in [1, {items}], got {n_factors}")
    loadings = vecs[:, :n_factors] * np.sqrt(vals[:n_factors])
    rotated = varimax_rotate(loadings)
    return FactorSolution(
        n_factors=n_factors,
        loadings=rotated,
        eigenvalues=vals,
        variance_pct=(rotated * rotated).sum(axis=0) / items * 100.0,
        communalities=(rotated * rotated).sum(axis=1),
    )


def format_loadings(solution: FactorSolution, threshold: float = 0.3) -> list[list[float | None]]:
    """Loading table for display, suppressing |loading| below the threshold."""
    out = []
    for row in solution.loadings:
        out.append([float(x) if abs(x) >= threshold else None for x in row])
    return out
