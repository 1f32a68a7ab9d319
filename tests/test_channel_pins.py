"""Every number of the channel surface, pinned as float.hex.

``channel_pins.json`` holds the values of ``_surface`` taken before the
evidence methods moved onto ``Channel``; the channel layer must keep them
to the bit.  To rewrite the file after a deliberate change of the numbers,
run this module as a script.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from glmphase.channels import (Abs, LinearAWGN, ReLU, Sigmoid, Sign,
                               SymmetricDoor, quad_profile)

PINS = Path(__file__).with_name("channel_pins.json")
CHANNELS = [Sign(), Sign(0.2), SymmetricDoor(), SymmetricDoor(delta=0.2),
            Abs(0.0), Abs(0.1), ReLU(0.3), ReLU(1e-8), Sigmoid(2.0),
            LinearAWGN(0.5)]
Q_FRACS = np.array([0.1, 0.9])
RHOS = (1.0, 0.6)
OMEGA = np.array([0.4, -1.3, 2.5])
V = np.array([0.3, 1.0, 0.05])


def _surface(ch) -> dict:
    """Name -> list of floats, for every method the channel defines."""
    out = {}
    for profile in ("exact", "fast"):
        with quad_profile(profile):
            for rho in RHOS:
                out[f"psi_pout {profile} {rho}"] = ch.psi_pout(Q_FRACS * rho, rho)
                out[f"psi_pout' {profile} {rho}"] = ch.psi_pout_prime(Q_FRACS * rho, rho)
    y = np.array([1.0, -1.0, 1.0]) if ch.is_discrete else np.array([0.2, 0.7, 1.5])
    out["log_zout"] = ch.log_zout(y, OMEGA, V)
    out["mean_label_gauss"] = ch.mean_label_gauss(OMEGA, 0.7)
    den = ch.gout(y, OMEGA, V)
    for name in ("gout", "zout", "log_zout", "vout"):
        out[f"gout.{name}"] = getattr(den, name)
    out["gout scalar"] = [ch.gout(y[0], OMEGA[0], V[0]).vout]
    if not isinstance(ch, Sigmoid):
        out["posterior_phi_mean"] = ch.posterior_phi_mean(y, OMEGA, V)
    if ch.is_even:
        out["stability_integral"] = [ch.stability_integral(1.0)]
    pins = {k: [float(x).hex() for x in np.ravel(v)] for k, v in out.items()}
    # many entries, across the blocks of the kernels, by digest
    omegas = np.linspace(-3.0, 3.0, 600)
    ys = np.resize(y, omegas.size)
    for name, vals in (("mean_label_gauss", ch.mean_label_gauss(omegas, 0.7)),
                       ("gout.vout", ch.gout(ys, omegas, 0.4).vout)):
        pins[f"{name} sha256"] = hashlib.sha256(np.asarray(vals).tobytes()).hexdigest()
    return pins


@pytest.mark.parametrize("ch", CHANNELS, ids=repr)
def test_channel_surface_keeps_its_bits(ch):
    assert _surface(ch) == json.loads(PINS.read_text())[repr(ch)]


def test_every_pinned_channel_is_tested():
    assert sorted(json.loads(PINS.read_text())) == sorted(map(repr, CHANNELS))


if __name__ == "__main__":
    PINS.write_text(json.dumps({repr(ch): _surface(ch) for ch in CHANNELS},
                               indent=1) + "\n")
