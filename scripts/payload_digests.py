#!/usr/bin/env python3
"""Digests of the payloads and side files of a fixed list of small CLI runs.

Each command runs through ``polylayer.cli.main`` in its own temporary
``--out``.  One line per command: exit code, sha256 of the bundle's
``payload`` section, and ``name=sha256`` for every side file.  To check that
a change keeps every byte, run it against two checkouts and diff:

    PYTHONPATH=<old checkout>/src python3 scripts/payload_digests.py > old.txt
    PYTHONPATH=src python3 scripts/payload_digests.py > new.txt
    diff old.txt new.txt

``payload_fields.py OLD_SRC NEW_SRC`` runs the same commands and names the
fields that moved, with their largest relative and absolute change.

The CLI pins BLAS to one thread in-process, so the output does not depend
on the host's thread count.  A checkout from before that pin does depend on
it: run such a checkout with ``OPENBLAS_NUM_THREADS=1``.
"""

import contextlib
import hashlib
import io
import os
import tempfile

FICHERA = "--kind trihedral --alpha 90deg,90deg,90deg"
REGULAR = "--kind regular --n 3 --alpha 60deg"
COMMANDS = [
    f"angle {REGULAR}",
    f"layer {REGULAR}",
    "waveguide --theta 90deg --h 0.25 --levels 2 --formats json,pgm",
    # several pairs: the mirrored mesh's vectors, through the heat map
    "waveguide --theta 90deg --h 0.25 --levels 2 --pairs 3 --formats json,pgm",
    # a sharp angle: the single-pair half-mesh chain on a graded mesh
    "waveguide --theta 0.15rad --h 0.4 --levels 2 --formats json,pgm",
    "scan-theta --thetas 0.3rad,0.82rad,1.34rad,1.86rad,2.38rad,2.9rad --h 0.15"
    " --levels 3 --formats json,csv,svg",
    "scan-R --theta 90deg --R-list 2,3,4 --h 0.25 --levels 2 --formats json,csv,svg",
    "count --theta 90deg --h 0.25 --levels 3",
    "count --theta 2.4rad --h 0.25 --levels 3",
    "count --theta 0.15rad --h 0.4 --levels 3",
    f"certify {FICHERA} --R 4 --h 0.125 --levels 2 --thr-h 0.1",
    # non-integer voxel bounds: the grid origin and shape go through rounding
    f"certify {REGULAR} --R 3 --h 0.125 --levels 2 --thr-h 0.25 --thr-levels 2",
    "certify --kind trihedral --alpha 90deg,60deg,90deg --R 3 --h 0.125 --levels 2"
    " --thr-h 0.25 --thr-levels 2",
    # eight grid symmetries: the largest group the voxel bounds solve on
    "certify --kind regular --n 4 --alpha 60deg --R 3 --h 0.125 --levels 2"
    " --thr-h 0.25 --thr-levels 2",
    "certify-veps --kind regular --n 3 --alpha 60deg --h 0.125 --levels 3 --formats json,csv",
    "absence --alpha 0.26rad --R 4 --h 0.125 --levels 2 --thr-h 0.25 --thr-levels 2"
    " --star-tol 0.05",
    # refused by the bisected bracket, once every solve has run: exit 2
    "absence --alpha 1.2rad --R 4 --h 0.125 --levels 1 --thr-h 0.25 --thr-levels 2"
    " --star-tol 0.05",
    f"weyl {FICHERA} --indices 2,3,4,5 --h 0.16",
    # long windows, whose 0.35-wide transitions a fixed quadrature grid misses
    f"weyl {FICHERA} --indices 9,10 --h 0.16",
    # a slanted mesh: the smallest dihedral angle of a regular layer is not pi/2
    f"weyl {REGULAR} --indices 2,3,4 --h 0.16",
    "hardy --case random --count 5 --seed 3",
    "hardy --case exp",
    "hardy --case invz",
    "alpha-star --star-tol 0.05 --h 0.25 --levels 2",
]
PAYLOAD_MARK = b',\n"payload": '


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(command: str) -> tuple:
    """``(exit code, payload bytes or None, {side file name: bytes})`` of one
    command, run in a temporary ``--out``."""
    from polylayer.cli import main

    argv = command.split()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):  # the bundle path
            code = main([*argv, "--out", out])
        payload = None
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                raw = f.read()
            if name == f"{argv[0]}.json":
                payload = raw[raw.index(PAYLOAD_MARK) + len(PAYLOAD_MARK) : -len(b"\n}\n")]
            else:
                files[name] = raw
    return code, payload, files


def run(command: str) -> str:
    code, payload, files = outputs(command)
    fields = [f"exit={code}"]
    if payload is not None:
        fields.append(f"payload={digest(payload)}")
    fields += [f"{name}={digest(raw)}" for name, raw in files.items()]
    return f"{command}\n    " + " ".join(fields)


if __name__ == "__main__":
    for command in COMMANDS:
        print(run(command), flush=True)
