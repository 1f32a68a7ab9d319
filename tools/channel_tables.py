"""Write ``src/glmphase/_channel_tables.py``, the rho = 1 channel-table
values that ``glmphase.state_evolution`` ships for scale-free channels.

    python tools/channel_tables.py

A channel whose law of y given c z is that of y given z, up to a
relabelling of y, for every c > 0 (``Channel.scale_free``: sign with any
noise, noiseless abs, both without epsilon) has
psi_pout'(q; rho) = psi_pout'(q / rho; 1) / rho, so its fast-profile
state-evolution table at any rho is its rho = 1 table rescaled.  For
``Sign()`` and ``Abs()`` this script writes the 212 values of that table:
fast-profile psi_pout'(q; 1) at the 211 nodes
q = 1 / (1 + exp(-u)), u in ``CHANNEL_TABLE_LOGITS``, then at q = 0.  They
come from ``state_evolution._table_values``, the one array call that a
table build makes, because a continuous channel's last bits depend on
which q share a pass of that call.

The values are written as text, each the shortest decimal that rounds back
to its double, and parsed on first use: compiled as float literals they
would cost every import that does not find cached bytecode.  Rerun this
script after any change to the fast quadrature profile or to the channel
kernels; ``test_shipped_values_are_fresh`` fails until then.  Rerunning
reproduces the file bit for bit on one machine; numpy's SIMD exp and log
may move the last bits on another.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "src" / "glmphase" / "_channel_tables.py"
PER_LINE = 4


def render() -> str:
    from glmphase.channels import Abs, Sign
    from glmphase.state_evolution import _table_values

    blocks = []
    for channel in (Sign(), Abs()):
        vals = [repr(v) for v in _table_values(channel, 1.0).tolist()]
        lines = "\n".join(" ".join(vals[i:i + PER_LINE])
                          for i in range(0, len(vals), PER_LINE))
        blocks.append(f'    {repr(channel)!r}: """\n{lines}\n""",\n')
    return f'''"""Fast-profile psi_pout'(q; 1) of scale-free channels, written by
tools/channel_tables.py.

VALUES[repr(channel)] holds, as text, the values at the 211 table nodes
q = 1 / (1 + exp(-u)), u in state_evolution.CHANNEL_TABLE_LOGITS, then at
q = 0.  state_evolution parses them on first use and divides them by rho
for a table at rho.
"""

VALUES = {{
{"".join(blocks)}}}
'''


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    text = render()
    TABLE.write_text(text)
    print(f"wrote {TABLE}")
