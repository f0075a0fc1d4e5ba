import json
import subprocess
import sys

import pytest

from menshov import cli, corrector
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
    lines = (out / "mset_limit.csv").read_text().splitlines()
    assert lines[1] == "n,mass,error" and len(lines) > 50
    for line in lines[2:]:  # integers bare, floats at 17 digits
        n, *floats = line.split(",")
        assert n.isdigit() and str(int(n)) == n
        assert all(format(float(x), ".17g") == x for x in floats)


def test_mset_limit_oversized_grid_is_numeric_failure(tmp_path):
    # K * N_max = 300000 needs a 2^28-cell grid; refused before allocation
    cfg = {"measure": CANTOR, "sigma": 0.2, "tau": 0.3}
    code, out = run_cli(tmp_path, "mset-limit", cfg,
                        extra=("--set", "N_max=100000"))
    assert code == EXIT_NUMERIC
    assert not (out / "mset_limit.csv").exists()


@pytest.mark.parametrize("sub, fields, code", [
    ("wiener-scan", {"k": 4 * 10**18, "N": 5}, EXIT_PRECONDITION),
    ("wiener-scan", {"k": 10**20, "N": 0}, EXIT_PRECONDITION),
    ("wiener-scan", {"k": 10**17, "N": 0}, EXIT_PRECONDITION),
    ("wiener-scan", {"k": 1, "N": 10**30}, EXIT_NUMERIC),
    ("mset-limit", {"N_max": 10**30}, EXIT_NUMERIC),
    ("mset-limit", {"K": 10**13, "N_max": 0}, EXIT_PRECONDITION),
], ids=["k-4e18", "k-1e20", "k-1e17", "N-1e30", "N_max-1e30", "K-1e13"])
def test_frequencies_no_grid_can_hold_are_refused(tmp_path, capsys, sub,
                                                   fields, code):
    cfg = {"measure": CANTOR, "sigma": 0.2, "tau": 0.3, **fields}
    assert run_cli(tmp_path, sub, cfg)[0] == code
    assert not list((tmp_path / "out").iterdir())
    assert capsys.readouterr().err.startswith((
        "precondition violation: k must be nonzero", "numeric failure: f_max=",
        "precondition violation: K=10000000000000 and N_max=0"))


def test_mset_limit_runs_when_atoms_left_of_interval_outweigh_it(tmp_path):
    # I holds 6e-9 of the mass: m(I) as a difference of prefix sums over
    # all atoms would miss a total of 1 by 9.5e-9 and fail the run
    atoms = {"kind": "atomic", "atoms": [[0.1, 1.0], [0.5, 1e-12]]}
    cfg = {"measure": {"kind": "mixture", "components": [
        {"weight": 1e-7, "spec": {"kind": "lebesgue"}},
        {"weight": 1.0, "spec": atoms}]},
        "I": [0.4, 0.6], "N_max": 200, "sigma": 0.2, "tau": 0.3}
    code, out = run_cli(tmp_path, "mset-limit", cfg)
    assert code == EXIT_OK
    summary = json.loads((out / "mset_limit_summary.json").read_text())
    assert summary["target"] == pytest.approx(0.3 * (0.2e-7 + 1e-12))


def test_mset_limit_writes_density_warning_to_stderr(tmp_path, capsys):
    cantor01 = {"kind": "cantor", "levels": 40, "total": 1.0,
                "domain": [0.0, 1.0]}
    cfg = {"measure": cantor01, "sigma": 0.2, "tau": 0.3, "J": 20, "K": 3,
           "N_max": 300}
    code, out = run_cli(tmp_path, "mset-limit", cfg)
    assert code == EXIT_OK
    summary = json.loads((out / "mset_limit_summary.json").read_text())
    assert round(summary["density"], 4) == 0.4319
    err = capsys.readouterr().err
    assert err == "warning: density 0.4319 below floor 0.5/m\n"


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


def test_corrector_huge_x_grid_is_refused_before_allocating(tmp_path, capsys):
    # 10^12 points would ask for 7.28 TiB; the limit refuses it first
    code = main(["corrector", "--set", "kernel=true",
                 "--set", "x_grid=1000000000000", "--out", str(tmp_path)])
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: x_grid=1000000000000")
    assert str(corrector.MAX_X_GRID) in err
    assert not (tmp_path / "corrector_checks.json").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, monkeypatch,
                                           sub):
    monkeypatch.setitem(cli._COMMANDS, "corrector",
                        lambda *args: pytest.fail("the command ran"))
    target = tmp_path / "report.txt"
    target.write_text("kept\n")
    out = target / sub if sub else target
    code = main(["corrector", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert target.read_text() == "kept\n"


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


@pytest.mark.parametrize("sub, cfg, value", [
    ("mset-limit", {"measure": CANTOR, "sigma": 0.2, "tau": 0.3}, 1),
    ("wiener-scan", {"measure": CANTOR}, 0),
    ("claim", {"measure": CANTOR, "nu": 16}, 1),
], ids=["mset-limit", "wiener-scan", "claim"])
def test_refinement_below_two_is_precondition_violation(tmp_path, capsys,
                                                         sub, cfg, value):
    # below 2 the grid can hold fewer cells than an FFT up to f_max needs
    code, out = run_cli(tmp_path, sub, {**cfg, "refinement": value})
    assert code == EXIT_PRECONDITION
    assert (f"refinement must be at least 2, got {value}"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sub, cfg, key", [
    ("mset-limit", {"measure": CANTOR, "sigma": 0.2, "tau": 0.3}, "N_max"),
    ("wiener-scan", {"measure": CANTOR}, "N"),
], ids=["N_max", "N"])
def test_negative_horizon_is_precondition_violation(tmp_path, capsys, sub,
                                                    cfg, key):
    code, out = run_cli(tmp_path, sub, {**cfg, key: -1})
    assert code == EXIT_PRECONDITION
    assert f"{key} must be nonnegative, got -1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", [5, {}], ids=["5", "{}"])
def test_unknown_demo_function_is_config_error(tmp_path, capsys, value):
    code, out = run_cli(tmp_path, "demo", {"measure": CANTOR, "f": value})
    assert code == EXIT_CONFIG
    assert f"unknown demo function {value!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("sub, key, value", [("demo", "f", "[1.0, NaN]"),
                                             ("claim", "phi", "[1, Infinity]")])
def test_non_finite_step_value_is_precondition_violation(tmp_path, capsys,
                                                         sub, key, value):
    lebesgue01 = {"kind": "lebesgue", "domain": [0.0, 1.0]}
    code, out = run_cli(tmp_path, sub, {"measure": lebesgue01},
                        extra=("--set", f"{key}={value}"))
    assert code == EXIT_PRECONDITION
    assert "step values must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_corrector_past_the_layout_limit_is_precondition_violation(tmp_path,
                                                                   capsys):
    # q = r nu = 1e10 nodes: the layout's node array alone needs 74.5 GiB
    code, out = run_cli(tmp_path, "corrector", {"nu": 10**10, "r": 1})
    assert code == EXIT_PRECONDITION
    assert "layout limit" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_corrector_choose_r_past_the_layout_limit_ends(tmp_path):
    # r would be about 2.8e303, where r += 1 no longer moves r nu, so the
    # search for r never ended; a subprocess bounds the wait
    proc = subprocess.run(
        [sys.executable, "-m", "menshov.cli", "corrector", "--set",
         "gamma=1e300", "--set", "eps=0.001", "--set", "nu=9",
         "--out", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_PRECONDITION, proc.stderr
    assert "layout nodes" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_demo_eps_past_the_layout_limit_is_precondition_violation(tmp_path,
                                                                  capsys):
    # eps 1e-9 of the mass of Lebesgue [0, 2 pi] gives nu = 7e9
    code, out = run_cli(tmp_path, "demo", {"measure": LEBESGUE, "eps": 1e-9})
    assert code == EXIT_PRECONDITION
    assert "eps=6.28" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_demo_step_gap_out_of_reach_is_numeric_failure(tmp_path, capsys):
    # sin varies by up to 2 pi / 2048 across a cell of 2048, so no step
    # function of up to 2048 equal cells meets uniform_gap = 0.001
    code, out = run_cli(tmp_path, "demo", {"measure": CANTOR, "f": "sin",
                                           "uniform_gap": 0.001})
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "uniform_gap=0.001" in err and "oscillation" in err, err
    assert list(out.iterdir()) == []


def test_demo_step_f_is_its_own_phi(tmp_path):
    # jumps at thirds of [0, 2 pi]: no dyadic step function lands on them,
    # but f itself is a 3-cell step function
    code, out = run_cli(tmp_path, "demo",
                        {"measure": CANTOR, "f": [1.0, -0.5, 2.0]})
    assert code == EXIT_OK
    rep = json.loads((out / "demo_report.json").read_text())
    assert rep["claim"]["certified"] and rep["below_eps"]
    assert rep["claim"]["rho"] == 3 and rep["sup_gap_on_E"] == 0.0


@pytest.mark.parametrize("partial_sums", [[-5], 5, [2.7], [True], [1048577]],
                         ids=["negative", "not-a-list", "float", "bool",
                              "above-cap"])
def test_demo_bad_partial_sums_is_precondition(tmp_path, capsys,
                                               partial_sums):
    code, out = run_cli(tmp_path, "demo", {"measure": LEBESGUE, "f": "sin",
                                           "uniform_gap": 0.4,
                                           "partial_sums": partial_sums})
    assert code == EXIT_PRECONDITION
    assert "partial_sums" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_demo_partial_sums_of_g_outside_0_2pi_is_precondition(tmp_path,
                                                               capsys):
    # on [0, 10], S_N g tends to g's 2 pi-periodization: a gap near 1 at
    # every N
    cfg = {"measure": {"kind": "lebesgue", "domain": [0.0, 10.0]},
           "f": "sin", "uniform_gap": 0.3, "partial_sums": [64]}
    code, out = run_cli(tmp_path, "demo", cfg)
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "partial_sums" in err and "outside [0, 2 pi]" in err, err
    assert list(out.iterdir()) == []


def test_demo_partition_past_the_claim_names_demo_inputs(tmp_path, capsys):
    # sin within 0.01 needs rho = 1024 cells, which stage 1's spectrum grid
    # guard refuses; the message names the demo input that chose rho
    code, out = run_cli(tmp_path, "demo", {"measure": CANTOR, "f": "sin",
                                           "uniform_gap": 0.01})
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "uniform_gap=0.01" in err and "rho=1024" in err, err
    assert list(out.iterdir()) == []


def test_bad_set_syntax_is_config_error(tmp_path):
    out = tmp_path / "out"
    assert main(["corrector", "--set", "novalue", "--out", str(out)]) == \
        EXIT_CONFIG


@pytest.mark.parametrize("sub, cfg, key, value", [
    ("claim", {"measure": CANTOR, "phi": [1.0, -1.0]}, "nu", 16.9),
    ("wiener-scan", {"measure": LEBESGUE}, "N", 200.7),
    ("mset-limit", {"measure": CANTOR, "sigma": 0.2, "tau": 0.3},
     "N_max", 300.9),
    ("wiener-scan", {"measure": LEBESGUE, "N": 20}, "k", True),
    ("corrector", {}, "r", "16"),
], ids=["nu=16.9", "N=200.7", "N_max=300.9", "k=true", "r='16'"])
def test_non_integer_config_value_is_precondition_violation(
        tmp_path, capsys, sub, cfg, key, value):
    code, out = run_cli(tmp_path, sub, {**cfg, key: value})
    assert code == EXIT_PRECONDITION
    assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sub, cfg, key, value", [
    ("corrector", {}, "eps", True),
    ("corrector", {}, "gamma", "2"),
    ("corrector", {}, "c", False),
    ("demo", {"measure": CANTOR}, "eps", "0.5"),
    ("corrector", {}, "d", 10 ** 400),
], ids=["eps=true", "gamma='2'", "c=false", "demo-eps='0.5'", "d=1e400"])
def test_non_number_float_config_value_is_precondition_violation(
        tmp_path, capsys, sub, cfg, key, value):
    code, out = run_cli(tmp_path, sub, {**cfg, key: value})
    assert code == EXIT_PRECONDITION
    assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_integral_float_config_value_is_read_as_integer(tmp_path):
    cfg = {"measure": CANTOR, "sigma": 0.2, "tau": 0.3, "N_max": 300}
    code, out = run_cli(tmp_path / "int", "mset-limit", cfg)
    code_f, out_f = run_cli(tmp_path / "float", "mset-limit",
                            {**cfg, "N_max": 300.0, "J": 3.0})
    assert code == code_f == EXIT_OK
    rows = (out / "mset_limit.csv").read_text().splitlines()[1:]
    assert (out_f / "mset_limit.csv").read_text().splitlines()[1:] == rows


def test_integer_float_config_value_is_read_as_float(tmp_path):
    code, out = run_cli(tmp_path / "float", "corrector", {"gamma": 2.0})
    code_i, out_i = run_cli(tmp_path / "int", "corrector", {"gamma": 2})
    assert code == code_i == EXIT_OK
    rows = (out / "corrector_psi.csv").read_text().splitlines()[1:]
    assert (out_i / "corrector_psi.csv").read_text().splitlines()[1:] == rows
    for name in ("corrector_layout.json", "corrector_checks.json"):
        doc, doc_i = (json.loads((o / name).read_text()) for o in (out, out_i))
        assert doc_i.pop("config") == {"gamma": 2}
        assert doc_i == {k: v for k, v in doc.items() if k != "config"}


@pytest.mark.parametrize("key, value", [("kappa_cap", -1), ("r_cap", 0)])
def test_claim_cap_below_one_is_precondition_violation(tmp_path, capsys, key,
                                                        value):
    cfg = {"measure": CANTOR, "nu": 16, "phi": [1.0, -1.0], key: value}
    code, out = run_cli(tmp_path, "claim", cfg)
    assert code == EXIT_PRECONDITION
    assert "kappa_cap and r_cap must be at least 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_precondition_violation_exit_three(tmp_path):
    # nu = 8 violates the hypothesis of the construction
    code, _ = run_cli(tmp_path, "claim",
                      {"measure": LEBESGUE, "nu": 8, "phi": [1.0]})
    assert code == EXIT_PRECONDITION


def test_claim_on_atoms_is_uncertified_and_on_a_mixture_certified(tmp_path):
    atomic = {"kind": "atomic", "atoms": [[1.0, 1.0]],
              "domain": [0.0, 6.283185307179586]}
    mixture = {"kind": "mixture", "components": [
        {"weight": 0.5, "spec": LEBESGUE}, {"weight": 0.5, "spec": atomic}]}
    for nu in (16, 40):
        # a pure atom: no kappa reaches the union target, an honest exit 4
        code, out = run_cli(tmp_path / f"atom-{nu}", "claim",
                            {"measure": atomic, "nu": nu, "phi": [1.0]})
        assert code == EXIT_UNCERTIFIED
        doc = json.loads((out / "claim_result.json").read_text())
        assert doc["certified"] is False
        code, _ = run_cli(tmp_path / f"mixture-{nu}", "claim",
                          {"measure": mixture, "nu": nu, "phi": [1.0]})
        assert code == EXIT_OK


def test_mset_limit_writes_atom_warning_to_stderr(tmp_path, capsys):
    mixture = {"kind": "mixture", "components": [
        {"weight": 0.8, "spec": {"kind": "cantor", "levels": 40,
                                 "domain": [0.0, 1.0]}},
        {"weight": 0.2, "spec": {"kind": "atomic", "domain": [0.0, 1.0],
                                 "atoms": [[0.15, 0.3], [0.4, 0.3],
                                           [0.8, 0.4]]}}]}
    code, out = run_cli(tmp_path, "mset-limit", {
        "measure": mixture, "sigma": 0.2, "tau": 0.3, "N_max": 300})
    assert code == EXIT_OK
    assert (out / "mset_limit_summary.json").exists()
    assert capsys.readouterr().err == ("warning: measure has 3 atom(s): "
                                       "mu(A_n) need not tend to tau mu(I)\n")


MSET = {"measure": CANTOR, "sigma": 0.2, "tau": 0.3, "N_max": 100}


@pytest.mark.parametrize("sub, cfg, key, value, named", [
    ("mset-limit", MSET, "I", "5", "I must be a list of 2 numbers"),
    ("mset-limit", MSET, "I", '["0", 1]', "I must be a list of 2 numbers"),
    ("mset-limit", MSET, "I", "[false, 1]", "I must be a list of 2 numbers"),
    ("mset-limit", MSET, "I", "[0, 1, 2]", "I must be a list of 2 numbers"),
    ("claim", {"measure": CANTOR}, "eps_seq", "5",
     "eps_seq must be a list of numbers"),
    ("claim", {"measure": CANTOR}, "eps_seq", "[true, 0.1]",
     "eps_seq must be a list of numbers"),
    ("claim", {"measure": CANTOR}, "phi", "[true, false]",
     "phi must be a list of numbers"),
    ("demo", {"measure": CANTOR}, "f", "[true, 2]",
     "f must be a list of numbers"),
    ("corrector", {}, "kernel", "no", "kernel must be true or false"),
], ids=["I=5", "I=['0',1]", "I=[false,1]", "I=[0,1,2]", "eps_seq=5",
        "eps_seq=[true,0.1]", "phi=[true,false]", "f=[true,2]", "kernel=no"])
def test_bad_list_or_boolean_value_is_precondition_violation(
        tmp_path, capsys, sub, cfg, key, value, named):
    code, out = run_cli(tmp_path, sub, cfg, extra=("--set", f"{key}={value}"))
    assert code == EXIT_PRECONDITION
    assert named in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
