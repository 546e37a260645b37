import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

from polylayer.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_NONCONVERGED,
    EXIT_OK,
    ConfigError,
    RunConfig,
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
    echoed = RunConfig.from_dict(bundle["meta"]["config"])
    assert echoed.subcommand == "waveguide"
    assert echoed.theta == pytest.approx(1.2)
    assert echoed.h == 0.25
    # re-serializing the echoed config reproduces the stored one
    assert echoed.to_dict() == bundle["meta"]["config"]


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"subcommand": "angle", "bogus": 1})


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
            "angle",
            "--kind",
            "regular",
            "--n",
            "3",
            "--alpha",
            "60deg",
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


def test_threads_flag_reexec(tmp_path):
    out = tmp_path / "threads"
    subprocess.run(
        [
            sys.executable,
            "-m",
            "polylayer",
            "angle",
            "--kind",
            "regular",
            "--n",
            "3",
            "--alpha",
            "90deg",
            "--threads",
            "1",
            "--out",
            str(out),
        ],
        check=True,
    )
    bundle = json.loads((out / "angle.json").read_text())
    assert bundle["meta"]["config"]["threads"] == 1


FICHERA = ["--kind", "trihedral", "--alpha", "90deg,90deg,90deg"]
SMALL_CERTIFY = ["certify", *FICHERA, "--R", "3", "--h", "0.25", "--thr-h", "0.25",
                 "--thr-levels", "2"]
SMALL_COUNT = ["count", "--theta", "90deg", "--h", "0.25", "--levels", "2"]


@pytest.mark.parametrize(
    "argv, expected, stderr_prefix",
    [
        (["layer", "--kind", "regular", "--n", "3", "--alpha", "60deg"], EXIT_OK, ""),
        # infeasible geometry, solver input, and a stray ValueError (no levels)
        (["angle", "--kind", "trihedral", "--alpha", "170deg,10deg,10deg"],
         EXIT_CONFIG, "config error:"),
        ([*SMALL_COUNT, "--pairs", "400"], EXIT_CONFIG, "config error:"),
        ([*SMALL_COUNT, "--pairs", "0"], EXIT_CONFIG, "config error:"),
        ([*SMALL_CERTIFY, "--levels", "0"], EXIT_CONFIG, "config error:"),
        (["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "1"],
         EXIT_NONCONVERGED, "numerical failure:"),
        ([*SMALL_CERTIFY, "--levels", "1"], EXIT_INCONCLUSIVE, ""),
    ],
    ids=["ok", "config-geometry", "config-pairs-400", "config-pairs-0",
         "config-levels-0", "nonconverged", "inconclusive"],
)
def test_exit_codes(argv, expected, stderr_prefix, tmp_path, capsys):
    code = main([*argv, "--out", str(tmp_path)])
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith(stderr_prefix)
    assert "Traceback" not in err
    assert (tmp_path / f"{argv[0]}.json").exists() == (not stderr_prefix)


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
