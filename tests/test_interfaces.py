import ast
import importlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polylayer
from polylayer.geometry import fichera_angle, make_layer

PI = math.pi


@pytest.mark.parametrize("module", ["polylayer", "polylayer.analysis"])
def test_every_export_resolves(module):
    # ``from polylayer import *`` fails on a stale name in ``__all__``
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


def test_cli_scan_R_and_count(tmp_path):
    from polylayer.cli import EXIT_OK, main

    out = tmp_path / "scanr"
    code = main(
        [
            "scan-R",
            "--theta",
            "90deg",
            "--R-list",
            "2,3,4",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--formats",
            "json,csv",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "scan-R.json").read_text())
    assert bundle["payload"]["nondecreasing"] is True
    assert (out / "scan_R.csv").read_text().startswith("R,lambda1")

    out2 = tmp_path / "count"
    code = main(
        [
            "count",
            "--theta",
            "90deg",
            "--h",
            "0.2",
            "--levels",
            "2",
            "--R",
            "5",
            "--out",
            str(out2),
        ]
    )
    assert code == EXIT_OK
    bundle = json.loads((out2 / "count.json").read_text())
    assert bundle["payload"]["count"] == 1


def test_cli_weyl_light(tmp_path):
    from polylayer.cli import EXIT_OK, main

    out = tmp_path / "weyl"
    code = main(
        [
            "weyl",
            "--kind",
            "trihedral",
            "--alpha",
            "90deg,90deg,90deg",
            "--indices",
            "2,3",
            "--h",
            "0.1",
            "--levels",
            "2",
            "--R",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "weyl.json").read_text())
    elems = bundle["payload"]["elements"]
    assert elems[1]["residual"] < elems[0]["residual"]
    assert all(e["norm"] >= 0.85 for e in elems)


def test_cli_certify_veps_bundle(tmp_path):
    from polylayer.cli import EXIT_OK, main

    out = tmp_path / "veps"
    code = main(
        [
            "certify-veps",
            "--kind",
            "regular",
            "--n",
            "3",
            "--alpha",
            "90deg",
            "--h",
            "0.15",
            "--levels",
            "3",
            "--R",
            "6",
            "--eps",
            "0.001,0.05,1.0",
            "--formats",
            "json,csv",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "certify-veps.json").read_text())
    payload = bundle["payload"]
    assert payload["verdict"] == "NONEMPTY"
    assert payload["evidence"]["T3_zero"] < 0.0
    csv = (out / "veps_terms.csv").read_text().splitlines()
    assert csv[0] == "eps,T1,T2,T3,value"
    assert len(csv) == 4


def _shallow_validate(payload: dict, schema: dict):
    assert schema["type"] == "object"
    props = schema["properties"]
    extra = set(payload) - set(props)
    assert not extra, f"payload keys missing from schema: {sorted(extra)}"
    missing = set(schema.get("required", [])) - set(payload)
    assert not missing, f"required keys absent from payload: {sorted(missing)}"


def _schema(name):
    import polylayer
    import os

    path = os.path.join(os.path.dirname(polylayer.__file__), "schemas", f"{name}.json")
    with open(path) as f:
        return json.load(f)


def test_payloads_conform_to_shipped_schemas(tmp_path):
    from polylayer.analysis import (
        WaveguideNumerics,
        count_below_threshold,
        lambda1_waveguide,
        scan_theta,
        scan_truncation,
    )

    num = WaveguideNumerics(h=0.25, levels=2, R=4.0)
    _shallow_validate(lambda1_waveguide(1.2, num).to_json(), _schema("threshold"))
    _shallow_validate(scan_theta((0.9, 1.4), num).to_json(), _schema("scan_theta"))
    _shallow_validate(
        scan_truncation(PI / 2, (2.0, 3.0), num).to_json(), _schema("scan_R")
    )
    _shallow_validate(
        count_below_threshold(PI / 2, replace(num, num_pairs=2)).to_json(), _schema("count")
    )

    from polylayer.analysis import certify_discrete
    from polylayer.analysis.waveguide import WaveguideNumerics as WN

    layer = make_layer(fichera_angle())
    cert = certify_discrete(
        layer, R=3.0, h=1.0 / 3.0, levels=1, threshold_numerics=WN(h=0.2, levels=2, R=4.0)
    )
    _shallow_validate(cert.to_json(), _schema("certificate"))

    from polylayer.geometry import build_regular

    _shallow_validate(build_regular(3, PI / 3).to_report(), _schema("angle"))
    _shallow_validate(make_layer(build_regular(3, PI / 3)).to_report(), _schema("layer"))

    # a scan-R whose gaps clear their indicators, so that the fit is an object
    scan = scan_truncation(PI / 2, (0.5, 1.0, 1.5, 2.0), WN(h=0.25, levels=3)).to_json()
    schema = _schema("scan_R")
    _shallow_validate(scan, schema)
    _shallow_validate(scan["fit"], schema["properties"]["fit"]["oneOf"][0])

    from polylayer.analysis import alpha_star

    _shallow_validate(alpha_star(0.05, WN(h=0.25, levels=2)).to_json(), _schema("alpha_star"))

    from polylayer.cli import EXIT_OK, main

    # the hardy and weyl payloads are assembled by the CLI
    for argv in (["hardy", "--case", "random", "--count", "2"], ["hardy", "--case", "exp"],
                 ["weyl", "--kind", "trihedral", "--alpha", "90deg,90deg,90deg",
                  "--indices", "2", "--h", "0.25", "--R", "4"]):
        out = tmp_path / "-".join(argv[:3])
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / f"{argv[0]}.json").read_text())["payload"]
        schema = _schema(argv[0])
        _shallow_validate(payload, schema)
        for key in ("report", "reports", "elements"):
            if key in payload:
                sub = schema["properties"][key]
                for item in payload[key] if sub["type"] == "array" else [payload[key]]:
                    _shallow_validate(item, sub.get("items", sub))


def test_json_default_serializes_numpy_and_nothing_else():
    from polylayer.report import payload_bytes

    payload = {"i": np.int64(3), "f": np.float32(0.5), "a": np.arange(3.0)}
    assert json.loads(payload_bytes(payload)) == {"i": 3, "f": 0.5, "a": [0.0, 1.0, 2.0]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        payload_bytes({"x": object()})


def _unnamed_public_functions(package: Path) -> list:
    """The public module-level functions and methods (``Class.method``) of
    the sources under ``package`` that no source there names, as a ``Name``,
    an ``Attribute`` or an import, and no ``__all__`` lists."""
    defined, named = [], set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                named.update(ast.literal_eval(node.value))
    return sorted(q for q, name in defined if not name.startswith("_") and name not in named)


def test_no_public_function_serves_only_the_tests():
    # test oracles and references live under tests/ (oracles.py), not in the package
    assert _unnamed_public_functions(Path(polylayer.__file__).parent) == []
