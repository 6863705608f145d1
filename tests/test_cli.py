"""Command-line interface: subcommands, exit codes, file outputs."""
import json
import subprocess
import sys

import numpy as np
import pytest

import momentropy as mp
from momentropy import cli
from momentropy import formats as fm


def _run(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "momentropy", *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def scalar_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("scalar")
    r = _run("example", "scalar-demo", str(d))
    assert r.returncode == 0, r.stderr
    return d


@pytest.fixture(scope="module")
def array_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("array")
    r = _run("example", "nonequispaced-array", str(d))
    assert r.returncode == 0, r.stderr
    return d


def test_example_writes_a_complete_bundle(scalar_bundle):
    assert (scalar_bundle / "problem.json").exists()
    assert (scalar_bundle / "rho_true.csv").exists()
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    assert set(obj) >= {"grid", "kernels", "moment"}
    loaded = fm.load_problem(scalar_bundle / "problem.json")
    assert loaded.rho_true_path.exists()


def test_solve_round_trip_on_scalar_bundle(scalar_bundle, tmp_path):
    report_path = tmp_path / "report.json"
    r = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational",
             "--report", str(report_path),
             "--density-out", str(tmp_path / "density.csv"),
             "--trace-out", str(tmp_path / "trace.csv"))
    assert r.returncode == 0, r.stderr
    report = json.loads(report_path.read_text())
    assert report["status"] == "Converged"
    lam = report["lambda"]["data"][0]
    assert lam[0] == pytest.approx(0.5, abs=1e-8)
    assert (tmp_path / "trace.csv").read_text().startswith("t,V,min_eig,lambda_norm")
    loaded = fm.load_problem(scalar_bundle / "problem.json")
    density = fm.read_density_csv(tmp_path / "density.csv", loaded.operator.grid)
    assert np.max(np.abs(density[:, 0, 0] - 2.0)) <= 1e-8


def test_report_goes_to_stdout_without_a_path(scalar_bundle):
    r = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "Converged"


def test_unknown_example_name_is_an_input_error(tmp_path):
    r = _run("example", "no-such-example", str(tmp_path / "x"))
    assert r.returncode == 3
    assert r.stderr.startswith("error: unknown example 'no-such-example'; valid names: ")
    assert not (tmp_path / "x").exists()


def test_usage_errors_show_usage_text(scalar_bundle):
    # usage errors are input errors (3), never the divergence verdict (2)
    r = _run("solve")  # no problem source at all
    assert r.returncode == 3
    assert "usage" in r.stderr.lower()
    r2 = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
              "--example", "scalar-demo")  # mutually exclusive
    assert r2.returncode == 3
    r3 = _run("solve", "--example", "scalar-demo", "--tol", "abc")
    assert r3.returncode == 3
    assert "usage" in r3.stderr.lower()
    assert _run("solve", "--help").returncode == 0


def test_infeasible_moment_exits_with_divergence_code(scalar_bundle, tmp_path):
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj["moment"]["data"] = [[-1.0, 0.0]]
    obj.pop("rho_true", None)
    bad = tmp_path / "problem.json"
    bad.write_text(fm.dumps_canonical(obj))
    for family in ("rational", "exponential"):
        r = _run("solve", "--problem", str(bad), "--family", family,
                 "--report", str(tmp_path / ("r_%s.json" % family)))
        assert r.returncode == 2, (family, r.stderr)
        report = json.loads((tmp_path / ("r_%s.json" % family)).read_text())
        assert report["status"].startswith("Diverged")


def test_a_far_off_divergence_writes_a_finite_trace(scalar_bundle, tmp_path):
    # the exponential flow on a small negative target accepts points whose
    # dual norm squared overflows a double; the verdict and the trace stay finite
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj["moment"]["data"] = [[-1e-3, 0.0]]
    obj.pop("rho_true", None)
    bad = tmp_path / "problem.json"
    bad.write_text(fm.dumps_canonical(obj))
    trace = tmp_path / "trace.csv"
    r = _run("solve", "--problem", str(bad), "--family", "exponential",
             "--report", str(tmp_path / "report.json"), "--trace-out", str(trace))
    assert r.returncode == 2, r.stderr
    assert "Warning" not in r.stderr and "inf" not in r.stderr
    rows = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.isfinite(rows)) and rows[-1, 3] > 1e100


def test_feasibility_subcommand_verdicts(scalar_bundle, tmp_path):
    r = _run("feasibility", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("feasible")

    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj["moment"]["data"] = [[-1.0, 0.0]]
    obj.pop("rho_true", None)
    bad = tmp_path / "problem.json"
    bad.write_text(fm.dumps_canonical(obj))
    r2 = _run("feasibility", "--problem", str(bad), "--family", "rational")
    assert r2.returncode == 2
    assert "not-strictly-feasible" in r2.stdout


def test_config_file_merging_and_flag_priority(scalar_bundle, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_max": 1e-9}))
    r = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational", "--config", str(config))
    assert r.returncode == 2
    assert json.loads(r.stdout)["status"] == "MaxTimeExceeded"
    # an explicit flag beats the config file
    r2 = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
              "--family", "rational", "--config", str(config), "--t-max", "60")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["status"] == "Converged"
    # the config file's family is used unless --family is given
    config.write_text(json.dumps({"family": "rational"}))
    r3 = _run("solve", "--problem", str(scalar_bundle / "problem.json"), "--config", str(config))
    assert r3.returncode == 0, r3.stderr
    assert json.loads(r3.stdout)["family"] == "rational"
    r4 = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
              "--family", "exponential", "--config", str(config))
    assert r4.returncode == 0, r4.stderr
    assert json.loads(r4.stdout)["family"] == "exponential"


def test_zero_options_are_input_errors(scalar_bundle, tmp_path):
    problem = str(scalar_bundle / "problem.json")
    r = _run("solve", "--problem", problem, "--tol", "0")
    assert r.returncode == 3
    assert "tol" in r.stderr
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_max": 0}))
    r2 = _run("solve", "--problem", problem, "--config", str(config))
    assert r2.returncode == 3
    assert "t_max" in r2.stderr
    # a config file holds an object, and torus_override a boolean
    config.write_text(json.dumps([{"t_max": 1.0}]))
    r3 = _run("solve", "--problem", problem, "--config", str(config))
    assert r3.returncode == 3
    assert "config" in r3.stderr and "Traceback" not in r3.stderr
    config.write_text(json.dumps({"torus_override": "false"}))
    r4 = _run("solve", "--example", "grid2d", "--family", "rational", "--config", str(config))
    assert r4.returncode == 3
    assert "torus_override" in r4.stderr
    # a real false keeps the override off, so the 2-D inverse family is refused
    config.write_text(json.dumps({"torus_override": False}))
    r5 = _run("solve", "--example", "grid2d", "--family", "rational", "--config", str(config))
    assert r5.returncode == 3
    assert "pass torus_override to force" in r5.stderr
    # every config value has its JSON type
    for key, value in (("tol", [1]), ("seed", [1]), ("family", 5)):
        config.write_text(json.dumps({key: value}))
        r6 = _run("solve", "--example", "scalar-demo", "--config", str(config))
        assert r6.returncode == 3, (key, r6.stderr)
        assert key in r6.stderr and "Traceback" not in r6.stderr


def test_non_finite_moment_is_an_input_error(scalar_bundle, tmp_path):
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj.pop("rho_true", None)
    obj["moment"]["data"] = [[float("nan"), 0.0]]
    bad = tmp_path / "problem.json"
    # json writes and reads the NaN literal, so the problem reader must refuse it
    bad.write_text(json.dumps(obj))
    r = _run("solve", "--problem", str(bad))
    assert r.returncode == 3
    assert "non-finite" in r.stderr
    # a malformed structure is an input error too, never a traceback
    good = json.loads((scalar_bundle / "problem.json").read_text())
    bad_moment = {"rows": 1, "cols": 1, "data": [1]}
    for key, value in (("grid", []), ("kernels", []), ("moment", bad_moment)):
        obj = dict(good, **{key: value})
        bad.write_text(json.dumps(obj))
        r = _run("solve", "--problem", str(bad))
        assert r.returncode == 3, (key, r.stderr)
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_weighted_family_with_sigma_recovers_reference(array_bundle, tmp_path):
    out = tmp_path / "density.csv"
    r = _run("solve", "--problem", str(array_bundle / "problem.json"),
             "--family", "weighted-rational",
             "--sigma", str(array_bundle / "rho_true.csv"),
             "--density-out", str(out))
    assert r.returncode == 0, r.stderr
    loaded = fm.load_problem(array_bundle / "problem.json")
    rho_true = fm.read_density_csv(array_bundle / "rho_true.csv", loaded.operator.grid)
    density = fm.read_density_csv(out, loaded.operator.grid)
    rel = np.max(np.abs(density - rho_true)) / np.max(np.abs(rho_true))
    assert rel <= 1e-6


def test_weighted_family_requires_sigma(array_bundle):
    r = _run("solve", "--problem", str(array_bundle / "problem.json"),
             "--family", "weighted-rational")
    assert r.returncode == 3
    assert r.stderr.strip()


def test_bell_example_moment_is_maximally_mixed(tmp_path):
    d = tmp_path / "bell"
    r = _run("example", "bell", str(d))
    assert r.returncode == 0, r.stderr
    obj = json.loads((d / "problem.json").read_text())
    data = np.asarray(obj["moment"]["data"], dtype=float)
    assert obj["moment"]["rows"] == 2
    flat = data[:, 0] + 1j * data[:, 1]
    assert np.max(np.abs(flat.reshape(2, 2) - 0.5 * np.eye(2))) <= 1e-14


def test_statecov_example_seed_controls_the_instance(tmp_path):
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    assert _run("example", "statecov", str(d1), "--seed", "1").returncode == 0
    assert _run("example", "statecov", str(d2), "--seed", "1").returncode == 0
    assert _run("example", "statecov", str(d3), "--seed", "2").returncode == 0
    p1 = (d1 / "problem.json").read_bytes()
    assert p1 == (d2 / "problem.json").read_bytes()
    assert p1 != (d3 / "problem.json").read_bytes()


@pytest.mark.parametrize("name", cli.EXAMPLE_NAMES)
def test_every_example_round_trips_through_its_problem_file(name, tmp_path):
    # an example and the problem file it writes describe the same operator,
    # so solving either gives the same report bytes
    seed = "3"
    direct, loaded = tmp_path / "direct.json", tmp_path / "loaded.json"
    assert cli.main(["solve", "--example", name, "--seed", seed, "--report", str(direct)]) == 0
    assert cli.main(["example", name, str(tmp_path / "bundle"), "--seed", seed]) == 0
    assert cli.main(["solve", "--problem", str(tmp_path / "bundle" / "problem.json"),
                     "--report", str(loaded)]) == 0
    assert direct.read_bytes() == loaded.read_bytes()
