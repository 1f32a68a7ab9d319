import subprocess
import sys

# the modules glmphase must not load: each costs start-up time that every
# CLI call pays
SCRIPT = """
import sys
import glmphase, glmphase.cli
from glmphase import (RademacherPrior, Sign, SymmetricDoor, find_alpha_it,
                      se_run, solve)
solve(RademacherPrior(), Sign(), 1.35)
find_alpha_it(RademacherPrior(), SymmetricDoor(), 0.8, 1.8)
se_run(RademacherPrior(), Sign(), 1.35, 1e-6, fast=True)
print(" ".join(m for m in sys.modules
               if m.startswith(("scipy.interpolate", "scipy.optimize"))))
"""


def test_no_scipy_interpolate_or_optimize():
    """Importing glmphase and running the replica solve, a threshold finder
    and a spline-table SE run loads neither scipy.interpolate nor
    scipy.optimize, not even lazily."""
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
