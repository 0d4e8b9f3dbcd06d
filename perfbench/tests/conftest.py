import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


@pytest.fixture
def cr():
    """cloudrerun imported from this checkout's src/ the way the benchmark does."""
    from perfbench import workloads

    return workloads.import_cloudrerun(ROOT / "src")
