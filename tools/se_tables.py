"""Write ``src/glmphase/_se_tables.py``, the state-evolution table values
that ``glmphase.state_evolution`` ships: the rho = 1 channel tables of
``Sign()``, ``Abs()`` and ``SymmetricDoor()`` and the prior table of
``RademacherPrior()``.

    python tools/se_tables.py

A channel whose law of y given c z is that of y given z, up to a
relabelling of y, for every c > 0 (``Channel.scale_free``: sign with any
noise, noiseless abs, both without epsilon) has
psi_pout'(q; rho) = psi_pout'(q / rho; 1) / rho, so its fast-profile
state-evolution table at any rho is its rho = 1 table rescaled.  Any other
channel builds its table at its own rho, so a shipped rho = 1 table of it
serves rho = 1 only: ``SymmetricDoor()``, the door of the paper's phase
diagram, whose prior is the Rademacher one of rho = 1.  For each of the
three channels this script writes the 212 values of that table:
fast-profile psi_pout'(q; 1) at the 211 nodes
q = 1 / (1 + exp(-u)), u in ``CHANNEL_TABLE_LOGITS``, then at q = 0.  They
come from ``state_evolution._table_values``, the one array call that a
table build makes, because a continuous channel's last bits depend on
which q share a pass of that call.

The prior table of ``RademacherPrior()``, the prior of the binary
perceptron and of the symmetric door, holds the 253 values of
2 psi_p0'(r) at r = expm1(t), t in ``PRIOR_TABLE_NODES``, from
``state_evolution._prior_values``, the one array call of its build.

Each block is keyed by the module and repr of its object, as
``state_evolution._shipped`` looks it up, so an instance of any other
class, a subclass included, builds its own table.  The values are written
as text, each the shortest decimal that rounds back to its double, and
parsed on first use: compiled as float literals they would cost every
import that does not find cached bytecode.  Rerun this script after any
change to the table nodes, to the fast quadrature profile, or to the
channel or prior kernels; the ``test_shipped_values_are_fresh`` tests fail
until then.  Rerunning reproduces the file bit for bit on one machine;
numpy's SIMD exp and log may move the last bits on another.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "src" / "glmphase" / "_se_tables.py"
PER_LINE = 4


def render() -> str:
    from glmphase.channels import Abs, Sign, SymmetricDoor
    from glmphase.priors import RademacherPrior
    from glmphase.state_evolution import _prior_values, _table_values

    blocks = []
    for obj, values in ((Sign(), _table_values(Sign(), 1.0)),
                        (Abs(), _table_values(Abs(), 1.0)),
                        (SymmetricDoor(), _table_values(SymmetricDoor(), 1.0)),
                        (RademacherPrior(), _prior_values(RademacherPrior()))):
        vals = [repr(v) for v in values.tolist()]
        lines = "\n".join(" ".join(vals[i:i + PER_LINE])
                          for i in range(0, len(vals), PER_LINE))
        key = f"{type(obj).__module__}.{obj!r}"
        blocks.append(f'    {key!r}: """\n{lines}\n""",\n')
    return f'''"""State-evolution table values shipped with glmphase, written by
tools/se_tables.py.

VALUES[f"{{type(obj).__module__}}.{{obj!r}}"] holds, as text:

* for Sign(), Abs() and SymmetricDoor(), fast-profile psi_pout'(q; 1) at
  the 211 channel-table nodes q = 1 / (1 + exp(-u)), u in
  state_evolution.CHANNEL_TABLE_LOGITS, then at q = 0; state_evolution
  divides the Sign() and Abs() ones by rho for a table at rho, and reads
  the SymmetricDoor() ones at rho = 1 only;
* for RademacherPrior(), 2 psi_p0'(r) at the 253 prior-table nodes
  r = expm1(t), t in state_evolution.PRIOR_TABLE_NODES.

state_evolution parses them on first use.
"""

VALUES = {{
{"".join(blocks)}}}
'''


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    text = render()
    TABLE.write_text(text)
    print(f"wrote {TABLE}")
