"""The bundled published tables agree with the arithmetic that produced them."""

import pytest

from edm_rulex import studydata
from edm_rulex.psychostats import anova_row_from_summary, t_test_from_summary


def test_published_t_value_and_variance_rows_recompute():
    m = studydata.REASONING_MOMENTS
    res = t_test_from_summary(
        *m[studydata.MALE], studydata.N_MALE,
        *m[studydata.FEMALE], studydata.N_FEMALE,
        method="welch",
    )
    assert abs(res.t - studydata.REASONING_T_REPORTED) <= 0.05 and res.p < 0.01

    for table in (studydata.ANOVA_MOTIVATION, studydata.ANOVA_INTERACTION):
        for dim, (ss_h, ss_e, df_h, df_e, f_ref, eta_ref) in table.items():
            row = anova_row_from_summary(ss_h, ss_e, df_h, df_e)
            assert abs(row.f - f_ref) <= 0.1, dim
            if table is studydata.ANOVA_MOTIVATION and dim == "Competition":
                # a known misprint: the sums of squares give eta^2 0.0062, not the printed 0.06
                assert eta_ref == 0.06
                assert row.eta_squared == pytest.approx(0.0062, abs=5e-5)
            else:
                assert abs(row.eta_squared - eta_ref) <= 0.01, dim
