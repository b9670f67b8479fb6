import logging

import pytest

from edm_rulex import cli
from edm_rulex.schema import Attribute, AttributeSchema, ROLE_TARGET


@pytest.fixture(autouse=True)
def package_log_level():
    """Each test starts at the package logger's level of the session:
    cli.main sets that level where EDM_RULEX_LOG is set."""
    logger = logging.getLogger("edm_rulex")
    level = logger.level
    yield
    logger.setLevel(level)


@pytest.fixture
def toy_schema():
    # A:{a1,a2,a3}, B:{b1,b2}, target T:{t1,t2}
    return AttributeSchema(
        (
            Attribute("A", ("a1", "a2", "a3")),
            Attribute("B", ("b1", "b2")),
            Attribute("T", ("t1", "t2"), ROLE_TARGET),
        )
    )


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """The paper-sized default cohort at seed 7, trained a pinned 20 epochs."""
    d = tmp_path_factory.mktemp("study")
    assert cli.main(["generate", "--n", "97", "--seed", "7", "--out", str(d)]) == 0
    assert cli.main([
        "train", "--data", str(d / "cohort.csv"), "--epochs", "20", "--mse-target", "1e-9",
        "--seed", "7", "--out", str(d),
    ]) == 0
    return d
