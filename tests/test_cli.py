import json
import subprocess
import sys

import pytest

from menshov import cli
from menshov.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                         EXIT_PRECONDITION, EXIT_UNCERTIFIED, main)

LEBESGUE = {"kind": "lebesgue", "domain": [0.0, 6.283185307179586]}
CANTOR = {"kind": "cantor", "levels": 40, "total": 1.0,
          "domain": [0.0, 6.283185307179586]}


def run_cli(tmp_path, sub, cfg, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([sub, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def test_wiener_scan_writes_csv(tmp_path):
    code, out = run_cli(tmp_path, "wiener-scan",
                        {"measure": LEBESGUE, "k": 1, "N": 50})
    assert code == EXIT_OK
    lines = (out / "wiener_scan.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "n,k,abs_coeff,error,running_average"
    assert len(lines) == 53  # header x2 + 51 rows
    # Lebesgue: all nonzero coefficients vanish, average is 1/(n+1)
    last = lines[-1].split(",")
    assert float(last[2]) < 1e-10
    assert float(last[4]) == pytest.approx(1.0 / 51.0, abs=1e-9)


def test_wiener_scan_deterministic_reruns(tmp_path):
    cfg = {"measure": CANTOR, "k": 1, "N": 40}
    _, out1 = run_cli(tmp_path / "a", "wiener-scan", cfg)
    _, out2 = run_cli(tmp_path / "b", "wiener-scan", cfg)
    assert (out1 / "wiener_scan.csv").read_bytes() == \
        (out2 / "wiener_scan.csv").read_bytes()


def test_mset_limit_outputs_and_plot(tmp_path):
    cfg = {"measure": LEBESGUE, "sigma": 0.2, "tau": 0.3, "N_max": 100}
    code, out = run_cli(tmp_path, "mset-limit", cfg, extra=("--plot",))
    assert code == EXIT_OK
    summary = json.loads((out / "mset_limit_summary.json").read_text())
    assert summary["target"] == pytest.approx(0.3 * 6.283185307179586)
    assert summary["tail_sup"] < 1e-9
    assert summary["config"]["sigma"] == 0.2
    svg = (out / "mset_limit.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_mset_limit_oversized_grid_is_numeric_failure(tmp_path):
    # K * N_max = 300000 needs a 2^28-cell grid; refused before allocation
    cfg = {"measure": CANTOR, "sigma": 0.2, "tau": 0.3}
    code, out = run_cli(tmp_path, "mset-limit", cfg,
                        extra=("--set", "N_max=100000"))
    assert code == EXIT_NUMERIC
    assert not (out / "mset_limit.csv").exists()


def test_mset_limit_writes_density_warning_to_stderr(tmp_path, capsys):
    cantor01 = {"kind": "cantor", "levels": 40, "total": 1.0,
                "domain": [0.0, 1.0]}
    cfg = {"measure": cantor01, "sigma": 0.2, "tau": 0.3, "J": 20, "K": 3,
           "N_max": 300}
    code, out = run_cli(tmp_path, "mset-limit", cfg)
    assert code == EXIT_OK
    summary = json.loads((out / "mset_limit_summary.json").read_text())
    assert round(summary["density"], 4) == 0.4219
    err = capsys.readouterr().err
    assert err == "warning: density 0.4219 below floor 0.5/m\n"


def test_corrector_reports(tmp_path):
    cfg = {"c": 0.0, "d": 1.0, "gamma": 1.0, "eps": 0.1, "nu": 10, "r": 5}
    code, out = run_cli(tmp_path, "corrector", cfg)
    assert code == EXIT_OK
    lay = json.loads((out / "corrector_layout.json").read_text())
    assert lay["q"] == 50
    assert lay["delta"] == pytest.approx(1.0 / 500.0)
    checks = json.loads((out / "corrector_checks.json").read_text())
    for key in ("sup_bound", "equals_gamma_on_E", "running_integral",
                "removed_count", "lebesgue_E"):
        assert checks[key] is True
    assert 0.0 < checks["running_integral_sup"] < cfg["eps"]
    assert checks["lebesgue_E_measure"] >= 1.0 - 5.0 / 10
    psi_lines = (out / "corrector_psi.csv").read_text().splitlines()
    assert psi_lines[1] == "breakpoint,value"
    assert len(psi_lines) > 10


def test_claim_certified_exit_zero(tmp_path):
    cfg = {"measure": LEBESGUE, "nu": 16, "phi": [1.0, -0.5]}
    code, out = run_cli(tmp_path, "claim", cfg)
    assert code == EXIT_OK
    doc = json.loads((out / "claim_result.json").read_text())
    assert doc["certified"] is True
    assert doc["mu_E"] >= (1 - 7 / 16) * doc["mu_total"]
    rows = (out / "claim_e_intervals.csv").read_text().splitlines()
    n_intervals = sum((16 - 4) * c["r"] + 1 for c in doc["cells"])
    assert len(rows) == 2 + n_intervals  # config line, header, one per piece


def test_claim_uncertified_exit_four(tmp_path):
    cfg = {"measure": CANTOR, "nu": 16, "phi": [1.0],
           "kappa_cap": 1, "r_cap": 1}
    code, out = run_cli(tmp_path, "claim", cfg)
    doc = json.loads((out / "claim_result.json").read_text())
    if doc["certified"]:
        assert code == EXIT_OK
    else:
        assert code == EXIT_UNCERTIFIED


def test_demo_end_to_end(tmp_path):
    cfg = {"measure": LEBESGUE, "f": "sin", "eps": 0.1,
           "uniform_gap": 0.4, "partial_sums": [8, 64]}
    code, out = run_cli(tmp_path, "demo", cfg)
    assert code == EXIT_OK
    rep = json.loads((out / "demo_report.json").read_text())
    assert rep["below_eps"] is True
    assert rep["exceptional_mass"] < 0.1 * rep["claim"]["mu_total"]
    assert len(rep["partial_sums"]) == 2
    assert (out / "demo_g.csv").exists()


def test_set_overrides_config(tmp_path):
    cfg = {"measure": LEBESGUE, "k": 1, "N": 50}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["wiener-scan", "--config", str(cfg_path),
                 "--out", str(out), "--set", "N=10"])
    assert code == EXIT_OK
    lines = (out / "wiener_scan.csv").read_text().splitlines()
    assert len(lines) == 13
    assert '"N": 10' in lines[0]


def test_missing_measure_is_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "wiener-scan", {"k": 1})
    assert code == EXIT_CONFIG


def test_unreadable_measure_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nosuchfile.json"
    code, out = run_cli(tmp_path, "wiener-scan",
                        {"measure": str(missing), "k": 1, "N": 3})
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(missing) in err
    assert not (out / "wiener_scan.csv").exists()


@pytest.mark.parametrize("value", ["0", "1.5"])
def test_non_string_measure_is_config_error(tmp_path, value):
    # 0 would be stdin's file descriptor, where a valid spec is waiting
    proc = subprocess.run(
        [sys.executable, "-m", "menshov.cli", "wiener-scan",
         "--set", f"measure={value}", "--set", "N=3", "--out", str(tmp_path)],
        input=json.dumps(LEBESGUE), capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert not (tmp_path / "wiener_scan.csv").exists()


@pytest.mark.parametrize("field", ["j_max", "x_grid"])
def test_corrector_kernel_empty_range_is_precondition_violation(tmp_path,
                                                                field):
    cfg = {"c": 0.0, "d": 1.0, "gamma": 1.0, "eps": 0.1, "nu": 10, "r": 5,
           "kernel": True, field: 0}
    code, out = run_cli(tmp_path, "corrector", cfg)
    assert code == EXIT_PRECONDITION
    assert not (out / "corrector_checks.json").exists()


def test_claim_r_cap_below_r_min_reports_measured_masses(tmp_path):
    # both cells need r > 2: each is measured at its least admissible r
    cfg = {"measure": CANTOR, "nu": 16, "phi": [1.0, -1.0],
           "kappa_cap": 2, "r_cap": 2}
    code, out = run_cli(tmp_path, "claim", cfg)
    assert code == EXIT_UNCERTIFIED
    res = json.loads((out / "claim_result.json").read_text())
    assert res["r_per_cell"] == [8, 16]
    for cell in res["cells"]:
        assert 0.0 <= cell["mu_E_k"] <= cell["mu_inner"]
        assert cell["cell_certified"] is False
    assert res["mu_E"] == sum(c["mu_E_k"] for c in res["cells"])
    assert 0.0 <= res["mu_E"] <= res["mu_total"]


def test_wiener_scan_k_zero_is_precondition_violation(tmp_path):
    code, out = run_cli(tmp_path, "wiener-scan",
                        {"measure": LEBESGUE, "k": 0, "N": 3})
    assert code == EXIT_PRECONDITION
    assert not (out / "wiener_scan.csv").exists()


@pytest.mark.parametrize("key, value", [("sigma", "NaN"),
                                        ("tau", "Infinity")])
def test_mset_limit_non_finite_is_precondition_violation(tmp_path, key, value):
    cfg = {"measure": CANTOR, "sigma": 0.2, "tau": 0.3, "N_max": 50}
    code, out = run_cli(tmp_path, "mset-limit", cfg,
                        extra=("--set", f"{key}={value}"))
    assert code == EXIT_PRECONDITION
    assert not (out / "mset_limit_summary.json").exists()


@pytest.mark.parametrize("key", ["uniform_gap", "eps"])
def test_demo_nan_parameter_is_precondition_violation(tmp_path, monkeypatch,
                                                      key):
    calls = []
    monkeypatch.setitem(cli._DEMO_FUNCTIONS, "identity",
                        lambda x: calls.append(x) or x)
    cfg = {"measure": CANTOR, "f": "identity", "eps": 0.05,
           "uniform_gap": 0.5}
    code, out = run_cli(tmp_path, "demo", cfg, extra=("--set", f"{key}=NaN"))
    assert code == EXIT_PRECONDITION
    assert calls == []
    assert not (out / "demo_report.json").exists()


@pytest.mark.parametrize("sub, key", [("demo", "f"), ("claim", "phi")])
def test_empty_step_list_is_precondition_violation(tmp_path, capsys, sub, key):
    code, out = run_cli(tmp_path, sub, {"measure": CANTOR, key: []})
    assert code == EXIT_PRECONDITION
    assert "at least one value" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_demo_step_gap_out_of_reach_is_numeric_failure(tmp_path, capsys):
    # jumps at thirds of [0, 2 pi]: no dyadic grid of up to 2048 cells
    # lands on them, so no step function meets uniform_gap
    code, out = run_cli(tmp_path, "demo",
                        {"measure": CANTOR, "f": [1.0, -0.5, 2.0]})
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "uniform_gap=0.5" in err and "oscillation" in err, err
    assert list(out.iterdir()) == []


def test_bad_set_syntax_is_config_error(tmp_path):
    out = tmp_path / "out"
    assert main(["corrector", "--set", "novalue", "--out", str(out)]) == \
        EXIT_CONFIG


def test_precondition_violation_exit_three(tmp_path):
    # nu = 8 violates the hypothesis of the construction
    code, _ = run_cli(tmp_path, "claim",
                      {"measure": LEBESGUE, "nu": 8, "phi": [1.0]})
    assert code == EXIT_PRECONDITION


def test_atomic_measure_rejected(tmp_path):
    atomic = {"kind": "atomic", "atoms": [[1.0, 1.0]],
              "domain": [0.0, 6.283185307179586]}
    code, _ = run_cli(tmp_path, "claim",
                      {"measure": atomic, "nu": 16, "phi": [1.0]})
    assert code == EXIT_PRECONDITION


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "menshov.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("wiener-scan", "mset-limit", "corrector", "claim", "demo"):
        assert sub in proc.stdout


@pytest.mark.parametrize("key, value", [("eps", "NaN"), ("gamma", "NaN"),
                                        ("eps", "Infinity")])
def test_corrector_non_finite_is_precondition_violation(tmp_path, key, value):
    cfg = {"c": 0.0, "d": 1.0, "gamma": 1.0, "eps": 0.1, "nu": 10, "r": 5}
    code, out = run_cli(tmp_path, "corrector", cfg,
                        extra=("--set", f"{key}={value}"))
    assert code == EXIT_PRECONDITION
    assert not (out / "corrector_checks.json").exists()


def test_wiener_scan_uncertifiable_bound_is_numeric_failure(tmp_path):
    # refinement 4 puts the bound at n = 1000 at 2 pi 1000 / 4096 = 1.53
    cfg = {"measure": CANTOR, "N": 1000}
    code, out = run_cli(tmp_path, "wiener-scan", cfg,
                        extra=("--set", "refinement=4"))
    assert code == EXIT_NUMERIC
    assert not (out / "wiener_scan.csv").exists()


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("spec, field", [
    ({**CANTOR, "total": INF}, "cantor total"),
    ({**LEBESGUE, "scale": INF}, "lebesgue scale"),
    ({**LEBESGUE, "scale": "2"}, "lebesgue scale"),
    ({"kind": "atomic", "atoms": [[1.0, INF]], "domain": [0.0, 2.0]},
     "atom mass"),
    ({"kind": "mixture", "components": [{"weight": INF, "spec": LEBESGUE}]},
     "mixture weight"),
    ({"kind": "cdf_table", "table": [[0.0, 0.0], [0.5, NAN], [1.0, 1.0]]},
     "cdf_table"),
    ({"kind": "atomic", "atoms": 5}, "atomic spec"),
    ({"kind": "mixture", "components": [[1.0, LEBESGUE]]}, "mixture spec"),
    ([LEBESGUE], "measure spec"),
    ({**CANTOR, "levels": 1000000000}, "cantor levels"),  # hours, if run
    ({**LEBESGUE, "domain": [-1e308, 1e308]},
     "domain [-1e+308, 1e+308] overflows"),
    ({"kind": "mixture",
      "components": [{"weight": 1e300, "spec": {**LEBESGUE, "scale": 1e300}}]},
     "mixture weight overflows"),
    ({**LEBESGUE, "scale": 10**400}, "lebesgue scale"),  # no double holds it
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_measure_spec_is_precondition_violation(tmp_path, capsys, spec,
                                                    field):
    spec_path = tmp_path / "spec.json"  # a file, so a list spec reaches from_dict
    spec_path.write_text(json.dumps(spec))
    code, out = run_cli(tmp_path, "wiener-scan",
                        {"measure": str(spec_path), "N": 3})
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition violation:") and field in err, err
    assert not (out / "wiener_scan.csv").exists()


@pytest.mark.parametrize("key, value, named", [
    ("eps", "NaN", "eps must"), ("eps", "-0.1", "eps must"),
    ("gamma", "NaN", "gamma must"), ("gamma", "Infinity", "gamma must"),
    ("d", "Infinity", "d=inf")])
def test_corrector_choose_r_names_bad_parameter(tmp_path, capsys, key, value,
                                                named):
    cfg = {"c": 0.0, "d": 1.0, "gamma": 1.0, "eps": 0.1, "nu": 10}  # no r
    code, out = run_cli(tmp_path, "corrector", cfg,
                        extra=("--set", f"{key}={value}"))
    assert code == EXIT_PRECONDITION
    assert named in capsys.readouterr().err
    assert not (out / "corrector_checks.json").exists()
