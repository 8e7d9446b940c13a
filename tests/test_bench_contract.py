"""The benchmark child runs cleanly with every traced boundary in place.

`perfbench/tracer.py` refuses to install, and the child exits non-zero,
when a function it names as a boundary is missing from `src/`; this test
makes such a deletion fail here instead of only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_traced_corpus_check_child_succeeds():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--workload", "corpus_check",
         "--seed", "1", "--trace"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["ok"] is True
