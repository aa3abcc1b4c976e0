"""Sweep, simulate and bound outputs pinned across commits.

Every sweep preset at M = 11, N = 100, 300 realizations and seed 7 (custom
on its own lambda grid) must reproduce these exact bytes, and so must
`simulate`'s realization and trajectory, `eigen`'s eigenfunction, the
bound reports of three small configs and the bound report of the default
config.
Every probability, mean and variance depends
on which realizations quench and on their quench steps, so a change to the
stepping kernel or to the noise that moves any quench set or quench time
shows up here; rounding-level changes of the states that leave them alone
do not.

The bytes were captured with numpy 2.4.6 and scipy 1.17.1 (Python 3.11,
OpenBLAS 0.3.31).  They depend on numpy's build and on one BLAS call, the
per-step product with the folded inverse (numpy's gemm): numpy guarantees
no `Generator` stream across versions (NEP 19), pocketfft can move the last
bits, and a gemm kernel without FMA (OpenBLAS's Sandybridge) gives other
bits than the FMA kernels (SkylakeX, Haswell), which agree.  The folded
inverse, the eigen-solve and the operator matrix use no BLAS or LAPACK
call, so they depend on neither the BLAS kernel nor its thread count.  No
output depends on scipy: the bound reports' integrals and incomplete gamma
are the package's own Python-float routines (`bounds._quad`,
`bounds._gammainc`).  The repository's
`constraints.txt` pins these versions and CI installs with it; CI also runs
this file under `OPENBLAS_CORETYPE=Haswell`.
"""

import hashlib

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
    "t2": (
        "table_t2.csv",
        "lambda,probability,mean_Tq,var_Tq,std_error,failures\n"
        "0.01,0.0,,,0.0,0\n"
        "0.2,0.0,,,0.0,0\n"
        "0.4,0.25333333333333335,0.8657894736842103,0.008926035087719296,0.025110127807689838,0\n"
        "0.6,0.9866666666666667,0.610777027027027,0.011363122995877233,0.0066220730781117,0\n"
        "0.8,1.0,0.41436666666666666,0.0035484269788182833,0.0,0\n"
        "1.0,1.0,0.3143666666666667,0.0013638115942028988,0.0,0\n"
        "1.2,1.0,0.2545333333333334,0.000673025641025641,0.0,0\n"
        "1.4,1.0,0.21383333333333335,0.00037957079152731323,0.0,0\n",
    ),
    "fig2": (
        "fig2_grid.csv",
        "alpha,H,probability,mean_Tq,var_Tq,std_error,failures\n"
        "0.2,0.55,0.7166666666666667,0.5215348837209303,0.04634950228211258,0.02601637660881799,0\n"
        "0.2,0.7,0.68,0.5345098039215685,0.04356182748961653,0.02693201316896554,0\n"
        "0.2,0.9,0.67,0.5441293532338308,0.038322363184079604,0.027147743920996455,0\n"
        "0.5,0.55,0.7033333333333334,0.5252132701421801,0.048371740013540956,0.02637268508359584,0\n"
        "0.5,0.7,0.6566666666666666,0.5312182741116751,0.04330361027659795,0.027413838084414933,0\n"
        "0.5,0.9,0.66,0.5525252525252525,0.040860595805773475,0.027349588662354686,0\n"
        "0.8,0.55,0.6433333333333333,0.5324352331606218,0.046126851252158894,0.027655955088404592,0\n"
        "0.8,0.7,0.61,0.5540437158469946,0.04464180027622651,0.028160255680657446,0\n"
        "0.8,0.9,0.5833333333333334,0.5645714285714286,0.042021510673234806,0.02846375212766555,0\n",
    ),
    "fig2text": (
        "fig2text_grid.csv",
        "alpha,H,probability,mean_Tq,var_Tq,std_error,failures\n"
        "0.2,0.55,0.7166666666666667,0.8056279069767442,0.011618178656813735,0.02601637660881799,0\n"
        "0.2,0.7,0.73,0.8139726027397262,0.011224054291818523,0.025632011235952594,0\n"
        "0.2,0.9,0.7333333333333333,0.8171818181818182,0.010175583229555833,0.02553138954016902,0\n"
        "0.5,0.55,0.6266666666666667,0.8267553191489362,0.011591020025031288,0.02792582768427557,0\n"
        "0.5,0.7,0.6166666666666667,0.8301081081081081,0.010660857814336077,0.028070677992577286,0\n"
        "0.5,0.9,0.6233333333333333,0.8355614973262031,0.009597935713874994,0.027975518397871192,0\n"
        "0.8,0.55,0.20333333333333334,0.87,0.00808,0.02323710315342605,0\n"
        "0.8,0.7,0.17333333333333334,0.8621153846153846,0.006883672699849172,0.02185473929447866,0\n"
        "0.8,0.9,0.17666666666666667,0.8713207547169812,0.006265529753265602,0.0220193517582115,0\n",
    ),
    "custom": (
        "sweep_custom.csv",
        "lambda,probability,mean_Tq,var_Tq,std_error,failures\n"
        "0.3,0.023333333333333334,0.9085714285714286,0.003747619047619045,0.008715673408461504,0\n"
        "0.5,0.96,0.7071180555555556,0.013869365805265196,0.011313708498984765,0\n"
        "0.9,1.0,0.3384666666666667,0.0016631928651059088,0.0,0\n",
    ),
}
# flags a preset needs beyond the shared ones
PRESET_ARGS = {"custom": ["--lambdas", "0.3", "0.5", "0.9"]}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_csv_bytes(preset, tmp_path):
    name, expected = GOLDEN[preset]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M = 11\nN = 100\n")
    out = tmp_path / "out"
    argv = ["sweep", "--preset", preset, "--config", str(cfg), "--out", str(out)]
    argv += ["--realizations", "300", "--seed", "7", "--threads", "1"]
    argv += PRESET_ARGS.get(preset, [])
    assert main(argv) == 0
    assert (out / name).read_bytes() == expected.encode()


REALIZATION = """{
  "seed": 7,
  "quenched": true,
  "T_q": 0.77,
  "steps_taken": 78,
  "failed": false,
  "embedding_warning": false
}
"""


def test_simulate_realization_bytes(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M = 11\nN = 100\n")
    argv = ["simulate", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "realization.json").read_bytes() == REALIZATION.encode()


# simulate's trajectory (101 states; this realization does not quench) and
# eigen's principal eigenfunction on the same toy grid
TRAJECTORY_SHA256 = "664339a8dc25ada1f683975dabeeae36d9e577d867cd68f5a74ca2a482495fc9"
PSI1 = """x,psi1
-0.8181818181818181,0.2749806010876427
-0.6363636363636364,0.4586922270361688
-0.4545454545454546,0.5950250763474719
-0.2727272727272727,0.6872729115176772
-0.09090909090909083,0.7340291840110393
0.09090909090909083,0.7340291840110393
0.2727272727272727,0.6872729115176772
0.4545454545454546,0.5950250763474719
0.6363636363636365,0.4586922270361688
0.8181818181818183,0.2749806010876427
"""


def test_simulate_trajectory_bytes(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M = 11\nN = 100\n")
    argv = ["simulate", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    data = (tmp_path / "trajectory.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[:3] == ["t,sup_norm", "0.0,0.09917355371900827", "0.01,0.07536026198376959"]
    assert lines[-1] == "1.0,0.34052401584258346" and len(lines) == 102
    assert hashlib.sha256(data).hexdigest() == TRAJECTORY_SHA256


def test_eigen_psi1_bytes(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M = 11\nN = 100\n")
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "psi1.csv").read_bytes() == PSI1.encode()


# the same two outputs on a finer grid, M = 161, where the solve's inverse
# and the eigen-solve used to change bits with the BLAS kernel and its
# thread count
TRAJECTORY_161_SHA256 = "b3db8256d26101e46810a3c232e58ab07858d0eb4474a1456198bdccaa3a28fa"
PSI1_161_SHA256 = "aec04ef8484d75fd608142e89df32aa1cef0a467d7604014bb101e309266baed"


def test_fine_grid_trajectory_and_psi1_bytes(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M = 161\nN = 100\n")
    argv = ["simulate", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    data = (tmp_path / "trajectory.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[:2] == ["t,sup_norm", "0.0,0.09999614212414645"]
    assert lines[-1] == "1.0,0.37201256951251893" and len(lines) == 102
    assert hashlib.sha256(data).hexdigest() == TRAJECTORY_161_SHA256
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "psi1.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[1] == "-0.9875776397515528,0.047931440463571534" and len(lines) == 161
    assert hashlib.sha256(data).hexdigest() == PSI1_161_SHA256


BOUND_CONFIG = "M = 11\nN = 128\nlambda = 1e-5\na = 0.1\nb = 0.1\nbound_paths = 20\n"
BOUND_REPORT = (
    '{\n'
    '  "inputs": {\n'
    '    "mu1": 1.365484026380672,\n'
    '    "v0_psi1": 0.3002201144520243,\n'
    '    "lambda": 1e-05,\n'
    '    "gamma": 0.0,\n'
    '    "H": 0.7,\n'
    '    "W1": 0.5,\n'
    '    "T": 1.0\n'
    '  },\n'
    '  "threshold_w": 901.9824839348659,\n'
    '  "nu_T": 482.93549220227146,\n'
    '  "M_T": 0.4320000000000001,\n'
    '  "tail_bound": 1.0,\n'
    '  "tail_bound_valid": true,\n'
    '  "chebyshev_independent": 0.5435805087547435,\n'
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
    "mu1": 1.365484026380672,
    "v0_psi1": 0.3002201144520243,
    "lambda": 3e-06,
    "gamma": 0.0,
    "H": 0.7,
    "W1": 0.5,
    "T": 0.5
  },
  "threshold_w": 3006.6082797828863,
  "nu_T": 0.8886495165927605,
  "M_T": 0.11387253592253879,
  "tail_bound": 2.3092715225149353e-126,
  "tail_bound_valid": true,
  "chebyshev_independent": 0.0002958212385048943,
  "chebyshev_volterra": 0.0007230813151310693,
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
    "mu1": 1.365484026380672,
    "v0_psi1": 0.5403962060136438,
    "lambda": 0.05,
    "gamma": 3.0,
    "H": 0.7,
    "W1": 0.9,
    "T": 1.0
  },
  "threshold_w": 1.0520723692616278,
  "nu_T": 12.462805416516938,
  "M_T": 26.82,
  "tail_bound": null,
  "tail_bound_valid": false,
  "chebyshev_independent": 1.0,
  "chebyshev_volterra": 1.0,
  "gamma_lower_bound": {
    "value": 0.7590378858145123,
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


# The default config at seed 1: 2000 paths of N = 10^4 steps, the report of
# the benchmark's analysis workload.  Every path crosses tau* by T.
DEFAULT_BOUND_REPORT = """{
  "inputs": {
    "mu1": 1.3165399790133607,
    "v0_psi1": 0.2897313589170666,
    "lambda": 0.4,
    "gamma": 0.0,
    "H": 0.7,
    "W1": 0.5,
    "T": 1.0
  },
  "threshold_w": 0.020267737184646625,
  "nu_T": 4877206.271705992,
  "M_T": 43.2,
  "tail_bound": null,
  "tail_bound_valid": false,
  "chebyshev_independent": 1.0,
  "chebyshev_volterra": 1.0,
  "gamma_lower_bound": {
    "value": 1.0,
    "almost_sure": true
  },
  "monte_carlo": {
    "paths": 2000,
    "empirical_P_tau_star_le_T": 1.0,
    "per_path_ordering_ok": true,
    "embedding_warnings": 0
  }
}
"""


def test_default_bound_report_bytes(tmp_path):
    assert main(["bounds", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bounds_report.json").read_bytes() == DEFAULT_BOUND_REPORT.encode()
