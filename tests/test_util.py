import math
import os

import pytest

from edm_rulex import util
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


@pytest.mark.parametrize(
    "cgroup, files, quota",
    [
        ("0::/job\n", {"job/cpu.max": "max 100000\n"}, math.inf),
        ("0::/job\n", {"job/cpu.max": "150000 100000\n"}, 1.5),
        ("0::/job\n", {"job/cpu.max/": ""}, math.inf),  # a directory: unreadable
        ("0::/job\n", {}, math.inf),
        ("4:cpu,cpuacct:/job\n", {"cpu,cpuacct/job/cpu.cfs_quota_us": "-1\n",
                                   "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"}, math.inf),
        ("4:cpu,cpuacct:/job\n", {"cpu,cpuacct/job/cpu.cfs_quota_us": "50000\n",
                                   "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"}, 0.5),
        ("4:cpu,cpuacct:/job\n", {"cpu,cpuacct/job/cpu.cfs_quota_us": "50000\n"}, math.inf),
        # a hybrid host: the v2 line has no cpu.max, the v1 cpu controller sets the quota
        ("1:cpu:/\n2:memory:/job\n0::/\n", {"cpu/cpu.cfs_quota_us": "250000\n",
                                            "cpu/cpu.cfs_period_us": "100000\n",
                                            "memory/job/cpu.max": "100000 100000\n"}, 2.5),
    ],
)
def test_cpu_quota_reads_the_cgroup_files(tmp_path, cgroup, files, quota):
    (tmp_path / "cgroup").write_text(cgroup)
    for name, text in files.items():
        path = tmp_path / "fs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/"):
            path.mkdir()
        else:
            path.write_text(text)
    assert util._cpu_quota(str(tmp_path / "cgroup"), str(tmp_path / "fs")) == quota


def test_cpu_quota_without_a_cgroup_file_sets_no_limit(tmp_path):
    assert util._cpu_quota(str(tmp_path / "cgroup"), str(tmp_path)) == math.inf


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
@pytest.mark.parametrize("quota, cpus", [(math.inf, 4), (8.0, 4), (2.5, 2), (1.5, 1), (0.5, 1), (0.0001, 1)])
def test_usable_cpus_is_the_smaller_of_the_cpu_list_and_the_quota(monkeypatch, quota, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(util, "_cpu_quota", lambda: quota)
    assert util._usable_cpus() == cpus
