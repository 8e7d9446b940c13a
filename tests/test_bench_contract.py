"""Every benchmark workload's child runs cleanly, with every traced
boundary in place and its correctness gate passing.

`perfbench/tracer.py` refuses to install, and the child exits non-zero,
when a function it names as a boundary is missing from `src/`; this test
makes such a deletion fail here instead of only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

WORKLOADS = ["corpus_check", "scaling_ex42", "polytope_roundtrip",
             "oracle_m20"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_child_succeeds(workload):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--workload", workload,
         "--seed", "1", "--trace"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["ok"] is True
