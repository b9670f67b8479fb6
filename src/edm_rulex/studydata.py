"""Bundled defaults: the student-model schema and the reference cohort targets.

The default schema describes a 97-student expert-system course cohort through
24 predictive attributes (gender, 7 learning-skill scales, 8 achievement-
motivation scales, 3 classroom-interaction scales, 5 unit grades) and one
target, the logical-reasoning grade.  The summary statistics below (per-gender
means, standard errors, variance decompositions, reasoning correlations) are
the published values for that cohort and drive the default synthetic
generator; the tests recompute the published t value and variance rows from
them.

Group sizes follow the per-gender counts implied by the reported error
degrees of freedom (95 = 49 + 48 - 2): 49 male, 48 female.

The reported spread columns of the per-dimension tables are standard errors
of the mean (0.2-1.6 at n~48, versus whole-point score sds), so generation
uses sd = reported value * sqrt(n), with n the published group size, whatever
group sizes are requested.

The reasoning test is scored out of 20 points; unit grades are percentages.
Unit-score moments and unit/interaction correlations with reasoning were
never published, so those defaults are synthetic placeholders chosen to
spread scores across all grade bands.
"""

from __future__ import annotations

import math

from .schema import Attribute, AttributeSchema, ROLE_TARGET
from .synthgen import GroupSpec, PopulationSpec

SCALE_LEVELS = ("L", "M", "H")
GRADE_LEVELS = ("F", "P", "G", "V.G")
GENDER_LEVELS = ("Ma", "Fe")

MALE, FEMALE = GENDER_LEVELS
N_MALE, N_FEMALE = 49, 48

LEARNING_SKILLS = (
    "Management of dispersants",
    "Management of study time",
    "Summing and taking notes",
    "Preparing for examinations",
    "Organization of information",
    "Continuation of study",
    "Use of computer & Internet",
)
INTERNAL_MOTIVATION = ("Challenge", "Desire to work", "Ambition", "Self-reliance")
EXTERNAL_MOTIVATION = (
    "Fear of failure",
    "Social motivations",
    "Awareness of time importance",
    "Competition",
)
MOTIVATION = INTERNAL_MOTIVATION + EXTERNAL_MOTIVATION
INTERACTION = ("Potential of the classroom", "Student's positivity", "Teacher's positivity")
UNITS = ("Unit 1", "Unit 2", "Unit 3", "Unit 4", "Unit 5")
SCALE_ATTRIBUTES = LEARNING_SKILLS + MOTIVATION + INTERACTION
GENDER = "Gender"
REASONING = "Reasoning"

def default_student_schema() -> AttributeSchema:
    """The bundled default schema (24 predictive attributes + Reasoning)."""
    attrs = [Attribute(GENDER, GENDER_LEVELS)]
    attrs += [Attribute(name, SCALE_LEVELS) for name in SCALE_ATTRIBUTES]
    attrs += [Attribute(name, GRADE_LEVELS) for name in UNITS]
    attrs.append(Attribute(REASONING, GRADE_LEVELS, ROLE_TARGET))
    return AttributeSchema(tuple(attrs))


# Per-gender (mean, standard error) for the scale dimensions.
SCALE_MOMENTS = {
    "Management of dispersants": {MALE: (25.408, 0.503), FEMALE: (26.271, 0.508)},
    "Management of study time": {MALE: (15.163, 0.379), FEMALE: (17.333, 0.383)},
    "Summing and taking notes": {MALE: (14.469, 0.306), FEMALE: (16.563, 0.309)},
    "Preparing for examinations": {MALE: (10.367, 0.207), FEMALE: (11.292, 0.209)},
    "Organization of information": {MALE: (10.980, 0.261), FEMALE: (12.313, 0.264)},
    "Continuation of study": {MALE: (9.510, 0.265), FEMALE: (10.729, 0.267)},
    "Use of computer & Internet": {MALE: (12.041, 0.484), FEMALE: (14.750, 0.489)},
    "Challenge": {MALE: (21.306, 0.389), FEMALE: (24.063, 0.393)},
    "Desire to work": {MALE: (24.898, 0.533), FEMALE: (25.812, 0.538)},
    "Ambition": {MALE: (13.000, 0.300), FEMALE: (14.542, 0.303)},
    "Self-reliance": {MALE: (12.735, 0.285), FEMALE: (13.625, 0.287)},
    "Fear of failure": {MALE: (17.898, 0.421), FEMALE: (18.667, 0.425)},
    "Social motivations": {MALE: (21.041, 0.469), FEMALE: (23.750, 0.474)},
    "Awareness of time importance": {MALE: (18.449, 0.326), FEMALE: (20.979, 0.330)},
    "Competition": {MALE: (21.673, 0.507), FEMALE: (22.229, 0.512)},
    "Potential of the classroom": {MALE: (5.327, 0.246), FEMALE: (4.542, 0.248)},
    "Student's positivity": {MALE: (22.878, 0.514), FEMALE: (23.563, 0.519)},
    "Teacher's positivity": {MALE: (29.959, 0.629), FEMALE: (27.667, 0.636)},
}

# Reasoning score: (mean, sd) per gender -- these spreads are plain sds.
REASONING_MOMENTS = {MALE: (11.84, 2.86), FEMALE: (13.73, 1.67)}
REASONING_T_REPORTED = 3.99

# Published reasoning correlations per gender (interaction held fixed).
REASONING_CORRELATIONS = {
    "Management of dispersants": {MALE: 0.70, FEMALE: 0.64},
    "Management of study time": {MALE: 0.45, FEMALE: 0.40},
    "Summing and taking notes": {MALE: 0.26, FEMALE: 0.35},
    "Preparing for examinations": {MALE: 0.23, FEMALE: 0.24},
    "Organization of information": {MALE: 0.35, FEMALE: 0.39},
    "Continuation of study": {MALE: 0.30, FEMALE: 0.45},
    "Use of computer & Internet": {MALE: 0.27, FEMALE: 0.31},
    "Challenge": {MALE: 0.52, FEMALE: 0.66},
    "Desire to work": {MALE: 0.54, FEMALE: 0.63},
    "Ambition": {MALE: 0.40, FEMALE: 0.52},
    "Self-reliance": {MALE: 0.41, FEMALE: 0.75},
    "Fear of failure": {MALE: 0.44, FEMALE: 0.55},
    "Social motivations": {MALE: 0.53, FEMALE: 0.60},
    "Awareness of time importance": {MALE: 0.47, FEMALE: 0.63},
    "Competition": {MALE: 0.56, FEMALE: 0.61},
}

# Synthetic placeholders: unpublished.
UNIT_MOMENTS = {
    "Unit 1": {MALE: (62.0, 13.0), FEMALE: (70.0, 13.0)},
    "Unit 2": {MALE: (64.0, 13.0), FEMALE: (72.0, 13.0)},
    "Unit 3": {MALE: (66.0, 13.0), FEMALE: (71.0, 13.0)},
    "Unit 4": {MALE: (65.0, 13.0), FEMALE: (69.0, 13.0)},
    "Unit 5": {MALE: (63.0, 13.0), FEMALE: (70.0, 13.0)},
}
UNIT_REASONING_CORRELATION = 0.80
INTERACTION_REASONING_CORRELATION = 0.20

# Maximum attainable scores for graded dimensions (drives the 50/65/80% bands).
SCORE_MAXIMA = {**{u: 100.0 for u in UNITS}, REASONING: 20.0}

# Factor loading of the reasoning score on the single latent factor used to
# build a PD correlation matrix that plants every published correlation
# exactly: corr(dim, reasoning) = loading_dim * REASONING_LOADING.
REASONING_LOADING = 0.9

# Published per-dimension variance decompositions (type SS, error SS, type df,
# error df, printed F, printed eta) for the three measure blocks.
ANOVA_LEARNING_SKILLS = {
    "Management of dispersants": (18.05, 1177.3, 1, 95, 1.46, 0.02),
    "Management of study time": (114.19, 669.36, 1, 95, 16.2, 0.15),
    "Summing and taking notes": (106.23, 436.02, 1, 95, 23.2, 0.20),
    "Preparing for examinations": (20.77, 199.30, 1, 95, 9.88, 0.10),
    "Organization of information": (43.08, 317.29, 1, 95, 12.9, 0.12),
    "Continuation of study": (36.03, 325.72, 1, 95, 10.5, 0.10),
    "Use of computer & Internet": (177.97, 1088.9, 1, 95, 15.5, 0.14),
    "Total": (3102.3, 12041.8, 1, 95, 24.5, 0.21),
}
ANOVA_MOTIVATION = {
    "Challenge": (184.22, 703.22, 1, 95, 24.89, 0.21),
    "Desire to work": (20.28, 1321.8, 1, 95, 1.46, 0.02),
    "Ambition": (57.63, 419.22, 1, 95, 13.1, 0.12),
    "Self-reliance": (19.22, 376.8, 1, 95, 4.85, 0.05),
    "Fear of failure": (14.33, 825.18, 1, 95, 1.65, 0.02),
    "Social motivations": (177.97, 1024.92, 1, 95, 16.5, 0.15),
    "Awareness of time importance": (155.23, 495.1, 1, 95, 29.79, 0.24),
    "Competition": (7.49, 1197.26, 1, 95, 0.59, 0.06),
    "Total": (3890.4, 29880.6, 1, 95, 12.37, 0.12),
}
ANOVA_INTERACTION = {
    "Potential of the classroom": (14.937, 280.692, 1, 95, 5.06, 0.051),
    "Student's positivity": (11.376, 1229.08, 1, 95, 0.88, 0.009),
    "Teacher's positivity": (127.436, 1842.585, 1, 95, 6.57, 0.065),
    "Total": (138.786, 5537.17, 1, 95, 2.38, 0.024),
}

# Published multivariate results per block: (Wilks lambda, eta).
WILKS_REPORTED = {
    "learning_skills": (0.68, 0.32),
    "motivation": (0.56, 0.44),
    "interaction": (0.82, 0.18),
}

MEASURE_BLOCKS = {
    "learning_skills": LEARNING_SKILLS,
    "motivation": MOTIVATION,
    "interaction": INTERACTION,
}

RAW_DIMENSIONS = SCALE_ATTRIBUTES + UNITS + (REASONING,)


def _loading(dim: str, gender: str) -> float:
    if dim == REASONING:
        return REASONING_LOADING
    if dim in UNITS:
        r = UNIT_REASONING_CORRELATION
    elif dim in INTERACTION:
        r = INTERACTION_REASONING_CORRELATION
    else:
        r = REASONING_CORRELATIONS[dim][gender]
    return r / REASONING_LOADING


def _moments(dim: str, gender: str) -> tuple[float, float]:
    if dim == REASONING:
        return REASONING_MOMENTS[gender]
    if dim in UNITS:
        return UNIT_MOMENTS[dim][gender]
    mean, se = SCALE_MOMENTS[dim][gender]
    return mean, se * math.sqrt(N_MALE if gender == MALE else N_FEMALE)  # the n the SE was reported at


def default_population_spec(
    n_male: int = N_MALE, n_female: int = N_FEMALE, seed: int = 0
) -> PopulationSpec:
    """The default generation targets, parameterized by group sizes and seed.
    The sds are the published cohort's at every group size.

    Correlations use a one-factor structure (corr(i,j) = loading_i *
    loading_j off the diagonal), which reproduces every published
    dimension-reasoning correlation exactly and is positive definite by
    construction, so no repair is needed.
    """
    dims = RAW_DIMENSIONS
    groups = {}
    for gender, n in ((MALE, n_male), (FEMALE, n_female)):
        loadings = [_loading(d, gender) for d in dims]
        corr = [
            [1.0 if i == j else loadings[i] * loadings[j] for j in range(len(dims))]
            for i in range(len(dims))
        ]
        moments = [_moments(d, gender) for d in dims]
        groups[gender] = GroupSpec(
            n=n,
            means=tuple(m for m, _ in moments),
            sds=tuple(s for _, s in moments),
            correlation=tuple(tuple(row) for row in corr),
        )
    return PopulationSpec(dimensions=dims, groups=groups, seed=seed)
