"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (forced through the capture so the lines are always
visible in the terminal output)."""

import csv
import math

import numpy as np
import pytest

from glmphase.channels import (Abs, LinearAWGN, ReLU, Sigmoid, Sign,
                               SymmetricDoor)
from glmphase.cli import _validate_checks, main
from glmphase.gamp import (GampOptions, empirical_generalization_error,
                           gamp_run, generate_instance)
from glmphase.numerics import FixedPointOptions
from glmphase.priors import (GaussBernoulliPrior, GaussianPrior,
                             RademacherPrior)
from glmphase.replica import generalization_error
from glmphase.state_evolution import (find_alpha_amp, find_alpha_c,
                                      find_alpha_it, se_run)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_binary_perceptron(capsys):
    prior, ch = RademacherPrior(), Sign()
    a_it = find_alpha_it(prior, ch, 1.0, 1.45, tol=5e-4)
    a_amp = find_alpha_amp(prior, ch, 1.2, 1.8, tol=5e-4)
    ok = abs(a_it - 1.249) <= 0.005 and abs(a_amp - 1.493) <= 0.005
    _report(capsys, "1 binary perceptron",
            ok, f"alpha_IT={a_it:.4f} (1.249+-0.005), "
                f"alpha_AMP={a_amp:.4f} (1.493+-0.005)")


def test_criterion_2_symmetric_door(capsys):
    prior, ch = RademacherPrior(), SymmetricDoor(K=0.67449)
    a_it = find_alpha_it(prior, ch, 0.8, 1.3, tol=5e-4)
    a_amp = find_alpha_amp(prior, ch, 1.4, 1.8, tol=5e-4)
    a_c = find_alpha_c(ch, 1.0)
    ok = (abs(a_it - 1.000) <= 0.005 and abs(a_amp - 1.566) <= 0.010
          and abs(a_c - 1.36) <= 0.01)
    _report(capsys, "2 symmetric door",
            ok, f"alpha_IT={a_it:.4f} (1.000+-0.005), "
                f"alpha_AMP={a_amp:.4f} (1.566+-0.010), "
                f"alpha_c={a_c:.4f} (1.36+-0.01)")


def test_criterion_3_sign_less_channel(capsys):
    integral = Abs(0.0).stability_integral(1.0)
    a_amp_1 = find_alpha_amp(GaussianPrior(1.0), Abs(0.0), 0.8, 1.4, tol=1e-3)
    a_amp_gb = find_alpha_amp(GaussBernoulliPrior(0.5), Abs(0.0), 0.6, 1.2,
                              tol=1e-3)
    ok = (abs(integral - 2.000) <= 0.002
          and abs(a_amp_1 - 1.128) <= 0.010
          and abs(a_amp_gb - 0.90) <= 0.02)
    _report(capsys, "3 sign-less channel",
            ok, f"stability={integral:.4f} (2.000+-0.002) => alpha_c=0.5, "
                f"alpha_AMP(rho=1)={a_amp_1:.4f} (1.128+-0.010), "
                f"alpha_AMP(GB 0.5)={a_amp_gb:.4f} (0.90+-0.02)")


def test_criterion_4_relu(capsys):
    prior, ch = GaussBernoulliPrior(0.2), ReLU(1e-8)
    a_it = find_alpha_it(prior, ch, 0.3, 0.55, tol=1e-3)
    a_amp = find_alpha_amp(prior, ch, 0.45, 0.75, tol=1e-3)
    ok = abs(a_it - 0.400) <= 0.010 and abs(a_amp - 0.589) <= 0.010
    _report(capsys, "4 relu",
            ok, f"alpha_IT={a_it:.4f} (0.400+-0.010), "
                f"alpha_AMP={a_amp:.4f} (0.589+-0.010)")


def test_criterion_5_linear_baseline(capsys):
    results = {}
    for rho_s in (0.2, 0.5):
        a_it = find_alpha_it(GaussBernoulliPrior(rho_s), LinearAWGN(0.0),
                             max(0.05, rho_s - 0.15), rho_s + 0.25, tol=1e-3)
        results[rho_s] = a_it
    ok = all(abs(results[r] - r) <= 0.005 for r in results)
    _report(capsys, "5 linear baseline",
            ok, ", ".join(f"alpha_IT(rho_s={r})={v:.4f} ({r}+-0.005)"
                          for r, v in results.items()))


def test_criterion_6_gamp_tracks_se(capsys):
    prior, ch, alpha = GaussianPrior(1.0), LinearAWGN(0.1), 2.0
    traj = se_run(prior, ch, alpha, 0.0,
                  FixedPointOptions(tol=1e-13, max_iter=500))
    # closed-form oracle for the SE fixed point
    s = 1.0 + 0.1 + alpha
    q_exact = (s - math.sqrt(s * s - 4 * alpha)) / 2.0
    assert traj.q_limit == pytest.approx(q_exact, abs=1e-9)

    overlaps, finals = [], []
    for seed in range(10):
        inst = generate_instance(prior, ch, 2000, alpha, seed=seed)
        res = gamp_run(inst, GampOptions(seed=seed))
        overlaps.append(res.overlap_seq[:10])
        finals.append(res.mse_seq[-1])
    track_dev = float(np.max(np.abs(np.mean(overlaps, axis=0)
                                    - traj.q_seq[1:11])))
    mse_dev = abs(float(np.mean(finals)) - (1.0 - traj.q_limit))
    ok = track_dev <= 0.05 and mse_dev <= 0.02
    _report(capsys, "6 gamp tracks se",
            ok, f"per-iteration overlap deviation={track_dev:.4f} (<=0.05), "
                f"final MSE deviation={mse_dev:.4f} (<=0.02), "
                f"SE fixed point matches quadratic root")


def test_criterion_7_generalization_error_agreement(capsys):
    channels = [(LinearAWGN(0.3), 1.0), (Sign(), 1.0), (SymmetricDoor(), 1.0),
                (Abs(0.0), 1.0), (ReLU(1e-8), 0.2), (Sigmoid(1.5), 1.0)]
    # generalization_error raises if closed vs generic exceed 1e-6
    for ch, rho in channels:
        for qf in (0.0, 0.5, 0.99):
            generalization_error(ch, rho, qf * rho)

    prior, ch, alpha = GaussBernoulliPrior(0.2), Sign(), 1.2
    q_se = se_run(prior, ch, alpha, 1e-6 * 0.2).q_limit
    e_se = generalization_error(ch, 0.2, q_se)
    vals = []
    n_test = 20000
    for seed in range(5):
        inst = generate_instance(prior, ch, 4000, alpha, seed=seed)
        res = gamp_run(inst, GampOptions(seed=seed))
        vals.append(empirical_generalization_error(
            inst, res.x_hat_final, q_se, n_test, seed=seed + 100))
    pooled = float(np.mean(vals))
    sigma = math.sqrt(np.var(vals, ddof=1) / len(vals)
                      + 1.0 / (n_test * len(vals)))
    z = abs(pooled - e_se) / sigma
    ok = z <= 3.0
    _report(capsys, "7 generalization error",
            ok, f"six closed forms match quadrature <= 1e-6; "
                f"GB perceptron MC={pooled:.4f} vs E(q_t)={e_se:.4f}, "
                f"|z|={z:.2f} (<3)")


def test_criterion_8_property_suite(capsys, tmp_path):
    """The bundled suite of ``glmphase validate`` (``cli._validate_checks``)
    at seed 1: every check passes."""
    cfg, out = tmp_path / "validate.ini", tmp_path / "validate.csv"
    cfg.write_text("[experiment]\ntask = validate\nseed = 1\n")
    code = main(["validate", "--config", str(cfg), "--out", str(out)])
    lines = out.read_text().splitlines() if out.exists() else []
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))[1:]
    names = [name for name, _ in _validate_checks(1)]
    ok = code == 0 and rows == [[name, "pass", ""] for name in names]
    _report(capsys, "8 property suite",
            ok, f"glmphase validate exit {code}: "
                + "; ".join(" ".join(filter(None, row)) for row in rows))
