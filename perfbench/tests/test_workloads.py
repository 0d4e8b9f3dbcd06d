import hashlib

import pytest

from perfbench import workloads


@pytest.mark.parametrize("name,sizes", [
    ("oneshot", {"epoch_ops": 30}),
    ("longlived", {"epoch_ops": 80}),
    ("cli_session", {"epoch_ops": 12, "seeded_runs": 12}),
])
def test_checks_pass_and_digest_repeats(cr, tmp_path, name, sizes):
    digests = []
    for attempt in range(2):
        workload = workloads.WORKLOADS[name](cr, 11, tmp_path / str(attempt))
        workload.workdir.mkdir()
        for key, value in sizes.items():
            setattr(workload, key, value)
        workload.setup()
        rec, digest = workloads.Recorder(), hashlib.sha256()
        workload.run_epoch(0, rec, None, digest)
        assert rec.failed == 0, rec.reasons
        assert rec.attempted == sizes["epoch_ops"]
        assert workload.state_bytes > 0
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
