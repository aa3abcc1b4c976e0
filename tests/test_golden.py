"""Sweep and bound outputs pinned across commits.

The t1 and t3 presets at M = 11, N = 100, 300 realizations and seed 7 must
reproduce these exact bytes, and so must the bound reports of three small
configs.  Every probability, mean and variance depends
on which realizations quench and on their quench steps, so a change to the
stepping kernel or to the noise that moves any quench set or quench time
shows up here; rounding-level changes of the states that leave them alone
do not.

The bytes were captured with numpy 2.4.6 and scipy 1.17.1 (Python 3.11,
OpenBLAS 0.3.31).  numpy guarantees no `Generator` stream across versions
(NEP 19), and pocketfft and the gemm kernel can move the last bits, so the
repository's `constraints.txt` pins these versions and CI installs with it.
"""

import pytest

from quenchsim.cli import main

GOLDEN = {
    "t1": (
        "table_t1.csv",
        "lambda,probability,mean_Tq,var_Tq,std_error,failures\n"
        "0.01,0.0,,,0.0,0\n"
        "0.2,0.0,,,0.0,0\n"
        "0.4,0.5133333333333333,0.8436363636363637,0.010207605466428994,0.02885724762933466,0\n"
        "0.6,1.0,0.5598333333333334,0.00868057413600892,0.0,0\n"
        "0.8,1.0,0.3894,0.002587598662207358,0.0,0\n"
        "1.0,1.0,0.30043333333333333,0.0011044938684503904,0.0,0\n"
        "1.2,1.0,0.24533333333333332,0.0005641025641025642,0.0,0\n"
        "1.4,1.0,0.20776666666666666,0.00031840691192865106,0.0,0\n",
    ),
    "t3": (
        "table_t3.csv",
        "kappa2,probability,mean_Tq,var_Tq,std_error,failures\n"
        "0.05,0.5266666666666666,0.8735443037974683,0.007411561718938965,0.028826428203351226,0\n"
        "0.1,0.5133333333333333,0.8436363636363637,0.010207605466428994,0.02885724762933466,0\n"
        "0.5,0.54,0.6305555555555555,0.03251708074534162,0.02877498913987632,0\n"
        "1.0,0.5966666666666667,0.5102234636871509,0.047187590232879294,0.028322873886404698,0\n"
        "1.5,0.65,0.42723076923076925,0.046814972244250595,0.02753785273643051,0\n"
        "2.0,0.67,0.3786567164179105,0.04939368656716418,0.027147743920996455,0\n",
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_csv_bytes(preset, tmp_path):
    name, expected = GOLDEN[preset]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M = 11\nN = 100\n")
    out = tmp_path / "out"
    argv = ["sweep", "--preset", preset, "--config", str(cfg), "--out", str(out)]
    argv += ["--realizations", "300", "--seed", "7", "--threads", "1"]
    assert main(argv) == 0
    assert (out / name).read_bytes() == expected.encode()


BOUND_CONFIG = "M = 11\nN = 128\nlambda = 1e-5\na = 0.1\nb = 0.1\nbound_paths = 20\n"
BOUND_REPORT = (
    '{\n'
    '  "inputs": {\n'
    '    "mu1": 1.3654840263806718,\n'
    '    "v0_psi1": 0.30022011445202423,\n'
    '    "lambda": 1e-05,\n'
    '    "gamma": 0.0,\n'
    '    "H": 0.7,\n'
    '    "W1": 0.5,\n'
    '    "T": 1.0\n'
    '  },\n'
    '  "threshold_w": 901.9824839348652,\n'
    '  "nu_T": 482.9354922022711,\n'
    '  "M_T": 0.4320000000000001,\n'
    '  "tail_bound": 1.0,\n'
    '  "tail_bound_valid": true,\n'
    '  "chebyshev_independent": 0.5435805087547433,\n'
    '  "chebyshev_volterra": 1.0,\n'
    '  "gamma_lower_bound": {\n'
    '    "value": 1.0,\n'
    '    "almost_sure": true\n'
    '  },\n'
    '  "monte_carlo": {\n'
    '    "paths": 20,\n'
    '    "empirical_P_tau_star_le_T": 0.0,\n'
    '    "per_path_ordering_ok": true,\n'
    '    "embedding_warnings": 0\n'
    '  }\n'
    '}\n'
)


# The toy's tail and Volterra bounds are clamped to 1, its gamma bound is
# almost sure and no path crosses, so two more reports pin what it leaves
# unchecked.  "unclamped" has T != 1, a != b and k != 2, and its tail and
# Chebyshev bounds lie inside (0, 1); "incomplete_gamma" takes the gamma
# bound off its almost-sure branch and has paths that cross tau* by T.
BOUND_PINS = {
    "toy": (BOUND_CONFIG, BOUND_REPORT),
    "unclamped": (
        "M = 11\nN = 128\nT = 0.5\nlambda = 3e-6\nk = 1\na = 0.1\nb = 0.05\nbound_paths = 20\n",
        """{
  "inputs": {
    "mu1": 1.3654840263806718,
    "v0_psi1": 0.30022011445202423,
    "lambda": 3e-06,
    "gamma": 0.0,
    "H": 0.7,
    "W1": 0.5,
    "T": 0.5
  },
  "threshold_w": 3006.6082797828844,
  "nu_T": 0.8886495165927605,
  "M_T": 0.11387253592253879,
  "tail_bound": 2.3092715225149353e-126,
  "tail_bound_valid": true,
  "chebyshev_independent": 0.0002958212385048945,
  "chebyshev_volterra": 0.0007230813151310697,
  "gamma_lower_bound": {
    "value": 1.0,
    "almost_sure": true
  },
  "monte_carlo": {
    "paths": 20,
    "empirical_P_tau_star_le_T": 0.0,
    "per_path_ordering_ok": true,
    "embedding_warnings": 0
  }
}
""",
    ),
    "incomplete_gamma": (
        "M = 11\nN = 128\nlambda = 0.05\ngamma = 3\na = 0.3\nb = 1\nW1 = 0.9\nbound_paths = 40\n",
        """{
  "inputs": {
    "mu1": 1.3654840263806718,
    "v0_psi1": 0.5403962060136436,
    "lambda": 0.05,
    "gamma": 3.0,
    "H": 0.7,
    "W1": 0.9,
    "T": 1.0
  },
  "threshold_w": 1.0520723692616265,
  "nu_T": 12.462805416516924,
  "M_T": 26.82,
  "tail_bound": null,
  "tail_bound_valid": false,
  "chebyshev_independent": 1.0,
  "chebyshev_volterra": 1.0,
  "gamma_lower_bound": {
    "value": 0.7590378858145121,
    "almost_sure": false
  },
  "monte_carlo": {
    "paths": 40,
    "empirical_P_tau_star_le_T": 0.55,
    "per_path_ordering_ok": true,
    "embedding_warnings": 0
  }
}
""",
    ),
}


@pytest.mark.parametrize("pin", sorted(BOUND_PINS))
def test_bound_report_bytes(pin, tmp_path):
    # nu(T), M(T) and the Chebyshev bounds run through the closed-form clocks
    config_text, expected = BOUND_PINS[pin]
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(config_text)
    argv = ["bounds", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "bounds_report.json").read_bytes() == expected.encode()
