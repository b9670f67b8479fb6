import math

import pytest

from edm_rulex.errors import NumericError
from edm_rulex.util import write_json


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_json_refuses_a_non_finite_number(tmp_path, value):
    # json.dumps writes the bare tokens Infinity and NaN, which are not JSON
    path = tmp_path / "stats.json"
    doc = {"sections": {"levene": {"Total (learning)": {"df": [1, 58], "w": value}}}}
    with pytest.raises(NumericError) as info:
        write_json(path, doc)
    assert str(path) in str(info.value)
    assert f"stats.json['sections']['levene']['Total (learning)']['w'] = {value}" in str(info.value)
    assert not path.exists()
