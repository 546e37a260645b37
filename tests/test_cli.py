import argparse
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as sla

from polylayer.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_NONCONVERGED,
    EXIT_OK,
    HANDLERS,
    ConfigError,
    build_parser,
    main,
    parse_angle,
)

PI = math.pi


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def test_parse_angle_units():
    assert parse_angle("90deg") == pytest.approx(PI / 2)
    assert parse_angle("1.5rad") == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        parse_angle("1.5")


def test_bare_angle_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["waveguide", "--theta", "1.5708"])
    assert exc.value.code == 2


def test_config_round_trip(tmp_path):
    code, out = run_cli(
        [
            "waveguide",
            "--theta",
            "1.2rad",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--R",
            "4",
        ],
        tmp_path,
        "wg",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "waveguide.json").read_text())
    # the parsed flags of this subcommand, and no others
    assert bundle["meta"]["config"] == {
        "subcommand": "waveguide",
        "theta": 1.2,
        "h": 0.25,
        "levels": 2,
        "R": 4.0,
        "num_pairs": 1,
        "tol": 1e-8,
        "seed": 0,
        "out": str(out),
        "formats": ["json"],
        "dry_run": False,
    }


def test_payload_bytes_reproducible(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "polylayer",
        "waveguide",
        "--theta",
        "1.2rad",
        "--h",
        "0.25",
        "--levels",
        "2",
        "--R",
        "4",
    ]
    env = dict(os.environ)
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run([*cmd, "--out", str(out)], check=True, env=env)
        bundle = json.loads((out / "waveguide.json").read_text())
        payloads.append(json.dumps(bundle["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]


def test_payload_bytes_do_not_depend_on_blas_threads(tmp_path):
    commands = [
        # a six-pair count: ARPACK's dense BLAS sums in a thread-dependent
        # order unless the CLI pins BLAS to one thread
        ["count", "--theta", "0.15rad", "--h", "0.4", "--levels", "3"],
        # single-pair chains, solved on the mirror-invariant sector
        ["waveguide", "--theta", "0.3rad", "--h", "0.25", "--levels", "2"],
    ]
    for argv in commands:
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / argv[0] / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "polylayer", *argv, "--out", str(out)],
                check=True,
                env=env,
            )
            bundles.append((out / f"{argv[0]}.json").read_bytes())
        payloads = [raw[raw.index(b'"payload": '):] for raw in bundles]
        assert payloads[0] == payloads[1], argv[0]
        assert all(json.loads(raw)["meta"]["blas_pinned"] is True for raw in bundles)


def test_blas_pin_reports_false_under_another_blas(monkeypatch):
    from polylayer import cli

    monkeypatch.setattr(
        cli, "_OPENBLAS", (("numpy", "libscipy_openblas64_*.so", "no_such_setter"),)
    )
    assert cli._pin_blas() is False
    monkeypatch.setattr(cli, "_OPENBLAS", (("numpy", "no_such_lib*.so", "no_such_setter"),))
    assert cli._pin_blas() is False


def _modules_after(statements, tmp_path):
    """The module names a fresh interpreter holds after ``statements``, which
    may call ``main`` with the output directory ``out``."""
    script = (
        f"import sys\nfrom polylayer.cli import main\nout = {str(tmp_path / 'out')!r}\n"
        f"{statements}\nprint(' '.join(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True
    )
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("subcommand", ("angle", "layer"))
def test_geometry_reports_load_no_scipy(subcommand, tmp_path):
    statements = f"assert main([{subcommand!r}, *{REGULAR!r}, '--out', out]) == 0"
    modules = _modules_after(statements, tmp_path)
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_cli_certify_loads_no_scipy_optimize(tmp_path):
    # what a benchmark child imports, then a tiny Fichera certificate
    statements = (
        "import polylayer.analysis, polylayer.report\n"
        f"assert main([*{SMALL_CERTIFY!r}, '--levels', '1', '--out', out]) == 4"
    )
    modules = _modules_after(statements, tmp_path)
    assert "scipy.sparse.linalg" in modules
    assert "scipy.optimize" not in modules


def test_dry_run_prints_plan_without_solving(tmp_path):
    code, out = run_cli(
        [
            "certify",
            "--kind",
            "regular",
            "--n",
            "3",
            "--alpha",
            "60deg",
            "--dry-run",
        ],
        tmp_path,
        "dry",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "certify.json").read_text())
    payload = bundle["payload"]
    assert payload["dry_run"] is True
    assert payload["geometry"]["dihedral_angles"][0] == pytest.approx(
        math.acos(1.0 / 3.0), abs=1e-10
    )
    assert payload["plan"]["threshold"]["theta"] == pytest.approx(
        math.acos(1.0 / 3.0), abs=1e-10
    )


def test_angle_report_and_exit_codes(tmp_path):
    code, out = run_cli(
        ["angle", "--kind", "trihedral", "--alpha", "90deg,45deg,90deg"],
        tmp_path,
        "angle",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "angle.json").read_text())
    assert bundle["payload"]["dihedral_angles"][0] == pytest.approx(PI / 4)

    code, _ = run_cli(
        ["angle", "--kind", "trihedral", "--alpha", "170deg,10deg,10deg"],
        tmp_path,
        "bad",
    )
    assert code == EXIT_CONFIG


def test_scan_theta_formats_stay_in_outdir(tmp_path):
    code, out = run_cli(
        [
            "scan-theta",
            "--thetas",
            "0.8rad,1.2rad,1.6rad",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--R",
            "4",
            "--formats",
            "json,csv,svg",
        ],
        tmp_path,
        "scan",
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["scan-theta.json", "scan_theta.csv", "scan_theta.svg"]
    csv = (out / "scan_theta.csv").read_text().splitlines()
    assert csv[0] == "theta,lambda1,error_indicator,R,h,levels"
    assert len(csv) == 4
    assert (out / "scan_theta.svg").read_text().startswith("<svg")


def test_waveguide_pgm_heatmap(tmp_path):
    code, out = run_cli(
        [
            "waveguide",
            "--theta",
            "90deg",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--R",
            "4",
            "--formats",
            "json,pgm",
        ],
        tmp_path,
        "pgm",
    )
    assert code == EXIT_OK
    pgm = (out / "waveguide_mode.pgm").read_text().splitlines()
    assert pgm[0] == "P2"


def test_hardy_cli(tmp_path):
    code, out = run_cli(
        ["hardy", "--case", "random", "--count", "25", "--seed", "7"],
        tmp_path,
        "hardy",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "hardy.json").read_text())
    assert bundle["payload"]["all_hold"] is True
    assert len(bundle["payload"]["reports"]) == 25


def test_certify_inconclusive_exit_code(tmp_path):
    code, out = run_cli(
        [
            "certify",
            "--kind",
            "trihedral",
            "--alpha",
            "90deg,90deg,90deg",
            "--R",
            "3",
            "--h",
            "0.33333333333333331",
            "--levels",
            "1",
            "--thr-h",
            "0.2",
            "--thr-levels",
            "2",
        ],
        tmp_path,
        "inconclusive",
    )
    assert code == EXIT_INCONCLUSIVE
    bundle = json.loads((out / "certify.json").read_text())
    assert bundle["payload"]["verdict"] == "INCONCLUSIVE"


def test_unknown_format_rejected(tmp_path):
    code = main(
        [
            "scan-R",
            "--theta",
            "90deg",
            "--R-list",
            "2,3",
            "--formats",
            "json,png",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_CONFIG


def test_schemas_shipped():
    import polylayer

    schema_dir = os.path.join(os.path.dirname(polylayer.__file__), "schemas")
    names = sorted(os.listdir(schema_dir))
    assert "threshold.json" in names
    assert "certificate.json" in names
    for name in names:
        with open(os.path.join(schema_dir, name)) as f:
            schema = json.load(f)
        assert schema["type"] == "object"


FICHERA = ["--kind", "trihedral", "--alpha", "90deg,90deg,90deg"]
SMALL_CERTIFY = ["certify", *FICHERA, "--R", "3", "--h", "0.25", "--thr-h", "0.25",
                 "--thr-levels", "2"]
SMALL_COUNT = ["count", "--theta", "90deg", "--h", "0.25", "--levels", "2"]
REGULAR = ["--kind", "regular", "--n", "3", "--alpha", "60deg"]


def _no_convergence(*args, **kwargs):
    raise sla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize(
    "argv, expected, stderr_prefix",
    [
        (["layer", *REGULAR], EXIT_OK, ""),
        # infeasible geometry, solver input, and analysis parameters
        (["angle", "--kind", "trihedral", "--alpha", "170deg,10deg,10deg"],
         EXIT_CONFIG, "config error:"),
        ([*SMALL_COUNT, "--pairs", "400"], EXIT_CONFIG, "config error:"),
        ([*SMALL_COUNT, "--pairs", "0"], EXIT_CONFIG, "config error:"),
        ([*SMALL_CERTIFY, "--levels", "0"], EXIT_CONFIG, "config error:"),
        (["layer", *FICHERA, "--n", "3"], EXIT_CONFIG, "config error:"),
        (["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "1"],
         EXIT_CONFIG, "config error:"),
        # an output path that cannot be a directory fails before the run
        (["angle", *REGULAR, "--out", os.devnull], EXIT_CONFIG, "config error:"),
        # ARPACK is made to fail below
        (["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"],
         EXIT_NONCONVERGED, "numerical failure:"),
        ([*SMALL_CERTIFY, "--levels", "1"], EXIT_INCONCLUSIVE, ""),
        # a side file the subcommand does not write, and hardy's random-only flags
        (["waveguide", "--theta", "90deg", "--formats", "json,csv"],
         EXIT_CONFIG, "config error:"),
        (["hardy", "--case", "exp", "--seed", "3"], EXIT_CONFIG, "config error:"),
        (["hardy", "--case", "invz", "--count", "5"], EXIT_CONFIG, "config error:"),
    ],
    ids=["ok", "config-geometry", "config-pairs-400", "config-pairs-0",
         "config-levels-0", "config-trihedral-n", "config-levels-1",
         "config-out-not-a-dir", "nonconverged", "inconclusive",
         "config-waveguide-csv", "config-hardy-exp-seed", "config-hardy-invz-count"],
)
def test_exit_codes(argv, expected, stderr_prefix, tmp_path, capsys, monkeypatch):
    if expected == EXIT_NONCONVERGED:
        monkeypatch.setattr(sla, "eigsh", _no_convergence)
    if "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path)]
    code = main(argv)
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith(stderr_prefix)
    assert "Traceback" not in err
    assert (tmp_path / f"{argv[0]}.json").exists() == (not stderr_prefix)


@pytest.mark.parametrize(
    "argv",
    [[*SMALL_CERTIFY, "--levels", "0"], ["absence", "--alpha", "0.26rad", "--levels", "0"]],
    ids=["certify", "absence"],
)
def test_levels_checked_before_any_solve(argv, tmp_path, capsys, monkeypatch):
    from polylayer.analysis import certificates

    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the levels check")

    monkeypatch.setattr(certificates, "threshold", must_not_run)
    monkeypatch.setattr(certificates, "alpha_star", must_not_run)
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "levels" in capsys.readouterr().err


# each subcommand with its required flags only
DRY_RUN_ARGV = {
    "angle": REGULAR,
    "layer": REGULAR,
    "waveguide": ["--theta", "90deg"],
    "scan-theta": ["--thetas", "0.8rad,1.2rad"],
    "scan-R": ["--theta", "90deg", "--R-list", "2,3"],
    "count": ["--theta", "90deg"],
    "certify": REGULAR,
    "certify-veps": REGULAR,
    "absence": ["--alpha", "0.26rad"],
    "hardy": [],
    "weyl": FICHERA,
    "alpha-star": [],
}


@pytest.mark.parametrize("name", sorted(DRY_RUN_ARGV))
def test_dry_run_never_solves(name, tmp_path, monkeypatch):
    from polylayer import eigensolve
    from polylayer.analysis import certificates, waveguide

    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(HANDLERS) == set(subparsers.choices) == set(DRY_RUN_ARGV)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a dry run solved")

    # every solve goes through eigensolve.smallest_eigenpairs, called from
    # waveguide directly or through eigensolve.invariant_ground_state
    for module in (eigensolve, waveguide):
        monkeypatch.setattr(module, "smallest_eigenpairs", must_not_run)
    code, out = run_cli([name, *DRY_RUN_ARGV[name], "--dry-run"], tmp_path, name)
    assert code == EXIT_OK
    assert json.loads((out / f"{name}.json").read_text())["payload"]["dry_run"] is True


@pytest.mark.parametrize(
    "argv",
    [
        [*SMALL_CERTIFY, "--pairs", "7"],
        [*SMALL_CERTIFY, "--tol", "1e-3"],
        ["certify-veps", *REGULAR, "--pairs", "7"],
        ["certify-veps", *REGULAR, "--tol", "1e-3"],
        ["absence", "--alpha", "0.26rad", "--pairs", "7"],
        ["absence", "--alpha", "0.26rad", "--tol", "1e-3"],
        ["scan-R", "--theta", "90deg", "--R-list", "2,3", "--R", "3"],
        ["angle", *REGULAR, "--seed", "5"],
        ["layer", *REGULAR, "--seed", "5"],
        ["count", "--theta", "90deg", "--threads", "1"],
        ["angle", *REGULAR, "--formats", "json"],
        ["count", "--theta", "90deg", "--formats", "json"],
        [*SMALL_CERTIFY, "--formats", "json"],
        ["hardy", "--formats", "json"],
    ],
    ids=["certify-pairs", "certify-tol", "certify-veps-pairs", "certify-veps-tol",
         "absence-pairs", "absence-tol", "scan-R-R", "angle-seed", "layer-seed",
         "count-threads", "angle-formats", "count-formats", "certify-formats",
         "hardy-formats"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_every_exception_derives_from_the_common_base():
    # the CLI maps errors to exit codes through this base alone
    import polylayer
    from polylayer.errors import PolylayerError

    classes = []
    for info in pkgutil.walk_packages(polylayer.__path__, "polylayer."):
        if info.name == "polylayer.__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj.__module__ == info.name
            ):
                classes.append(obj)
    assert len(classes) >= 9
    stray = [c.__qualname__ for c in classes if not issubclass(c, PolylayerError)]
    assert not stray
    assert {c.exit_code for c in classes} == {EXIT_CONFIG, EXIT_NONCONVERGED}
