"""Bit-for-bit equivalence of two source trees over the bundled presets.

    PYTHONPATH=<tree>/src python tests/equivalence.py dump DIR
    python tests/equivalence.py compare A B

`dump` writes, for every cell (degree, N) of every bundled preset, the DG
coefficients and DG L2 error, and for each of the preset's filters the
filtered values and filtered L2 error under the preset's policy, to
DIR/arrays.npz, and the `siac verify --out` JSON to DIR/verify.json.  It
imports `siac` from PYTHONPATH, so a tree without this file can be dumped by
pointing PYTHONPATH at its `src`.  `compare` prints the number of equal
arrays, and for each array that differs its max|A - B| / max|A| and the
first index at which the bits differ; it exits 1 on any difference,
including a missing array or a differing verify JSON.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

PRESETS = ("table1_general", "table3_compact", "table4_boundary", "table5_2d")


def dump(out) -> None:
    from siac import dgsolver, postproc
    from siac.harness import cli, config, runner

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for name in PRESETS:
        cfg = config.load_preset(name)
        problem = cfg.problem.build()
        exact = problem.exact(cfg.problem.final_time)
        for k in cfg.degrees:
            for n in cfg.elements:
                cell = f"{name}/k={k}/N={n}"
                f = dgsolver.solve(problem, cfg.problem.mesh(n), k, cfl=cfg.cfl_for(k))
                arrays[f"{cell}/dg/coeffs"] = f.coeffs
                arrays[f"{cell}/dg/error"] = np.float64(dgsolver.l2_error(f, exact, normalized=True))
                for v in cfg.filters:
                    ff = postproc.filter_field(f, runner.filter_config(v, k), cfg.policy)
                    arrays[f"{cell}/{v.name}/values"] = ff.values
                    arrays[f"{cell}/{v.name}/error"] = np.float64(ff.l2_error(exact, normalized=True))
    np.savez(out / "arrays.npz", **arrays)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify", "--out", str(out / "verify.json")])


def as_bytes(x: np.ndarray) -> np.ndarray:
    """The bytes of each element of x in C order, one row per element."""
    return x.reshape(-1).view(np.uint8).reshape(x.size, x.itemsize)


def compare(a, b) -> int:
    """Print how the dumps in directories a and b differ; 0 when every array and the verify JSON are equal."""
    a, b = Path(a), Path(b)
    with np.load(a / "arrays.npz") as za, np.load(b / "arrays.npz") as zb:
        left, right = dict(za), dict(zb)
    equal, differ = 0, 0
    for key in sorted(left.keys() | right.keys()):
        if key not in left or key not in right:
            print(f"{key}: only in {a if key in left else b}")
            differ += 1
            continue
        x, y = left[key], right[key]
        if x.shape != y.shape or x.dtype != y.dtype:
            print(f"{key}: {x.dtype}{list(x.shape)} against {y.dtype}{list(y.shape)}")
            differ += 1
            continue
        # compared as bytes: a sign of zero or a NaN payload counts as a difference
        flips = np.flatnonzero(np.any(as_bytes(x) != as_bytes(y), axis=1))
        if flips.size == 0:
            equal += 1
            continue
        first = np.unravel_index(flips[0], x.shape)
        scale = float(np.max(np.abs(x)))
        rel = float(np.max(np.abs(x - y))) / scale if scale else float("inf")
        print(f"{key}: max|A - B| / max|A| = {rel:.3e}, first difference at {tuple(map(int, first))}")
        differ += 1
    print(f"{equal} of {equal + differ} arrays equal")
    va, vb = (p.read_bytes().splitlines() for p in (a / "verify.json", b / "verify.json"))
    if va == vb:
        print("verify JSON identical")
    else:
        line = next((i for i, (x, y) in enumerate(zip(va, vb)) if x != y), min(len(va), len(vb)))
        print(f"verify JSON differs, first at line {line + 1}")
        differ += 1
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
