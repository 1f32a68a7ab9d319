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


# with sys.modules["scipy"] = None, any import of scipy or of a scipy
# submodule raises ImportError
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
import glmphase, glmphase.cli
from glmphase import (GampOptions, RademacherPrior, Sigmoid, Sign,
                      SymmetricDoor, find_alpha_it, gamp_run,
                      generate_instance, se_run, solve)
solve(RademacherPrior(), Sign(), 1.35)
find_alpha_it(RademacherPrior(), SymmetricDoor(), 0.8, 1.8)
se_run(RademacherPrior(), Sign(), 1.35, 1e-6, fast=True)
Sigmoid(2.0).gout(1.0, 0.3, 0.5)
inst = generate_instance(RademacherPrior(), Sign(), n=200, alpha=1.5, seed=0)
gamp_run(inst, GampOptions(seed=0, max_iter=20))
print(" ".join(m for m in sys.modules
               if m.startswith("scipy") and sys.modules[m] is not None))
"""


def test_no_scipy_at_run_time():
    """glmphase runs the replica solve, a threshold finder, a spline-table
    SE run, a sigmoid denoiser and a GAMP run with scipy made unimportable,
    and loads no scipy module."""
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_shipped_tables_load_on_first_lookup():
    """Importing glmphase and its CLI leaves the generated table module
    unread; the first table lookup imports it."""
    script = ("import sys, glmphase, glmphase.cli\n"
              "print('glmphase._se_tables' in sys.modules)\n"
              "from glmphase import RademacherPrior, state_evolution as se\n"
              "se._prior_table(RademacherPrior())\n"
              "print('glmphase._se_tables' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
