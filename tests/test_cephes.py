"""The pure-Python ndtri against scipy, and the scipy-free start-up.

``riskbounds._cephes`` ports the Cephes ``ndtri`` that scipy.special runs,
so that the Wilson, coverage and single-outcome commands never import
``scipy.special``.  The port must give the same double as scipy everywhere;
a failure names the scipy version, so a scipy upgrade that changes the
function shows up here.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskbounds import _cephes
from riskbounds.logistic import LogisticFit, predict_risk
from riskbounds.refuted import cm1_pseudo_interval

special = pytest.importorskip("scipy.special")
scipy = pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# alphas the CLI defaults and README use, and the benchmark's levels
ALPHAS = (0.05, 0.20, 0.10, 0.01)
LEVELS = (0.80, 0.90, 0.95, 0.99)
# ndtri switches expansion at exp(-2) and, inside the tails, at exp(-32)
CUTOFFS = (
    0.13533528323661269189,
    1.0 - 0.13533528323661269189,
    math.exp(-32.0),
    1.0 - math.exp(-32.0),
)


def _neighbours(x: float, steps: int) -> list[float]:
    out = [x]
    up = down = x
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def _drift_p() -> np.ndarray:
    rng = np.random.default_rng(20260)
    subnormals = np.concatenate(
        [
            [5e-324, 1e-320, 2.2250738585072004e-308, 2.2250738585072014e-308],
            rng.integers(1, 2**52, 500).astype(np.float64) * 5e-324,
        ]
    )
    near_one = [1.0]  # the 500 doubles below 1
    for _ in range(500):
        near_one.append(math.nextafter(near_one[-1], 0.0))
    quantiles = [1.0 - a / 2.0 for a in ALPHAS]
    quantiles += [1.0 - (1.0 - level) / 2.0 for level in LEVELS]
    quantiles += [1.0 - (k / 1000.0) / 2.0 for k in range(1, 1000)]
    return np.concatenate(
        [
            rng.random(250_000),
            10.0 ** rng.uniform(-300.0, 0.0, 150_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000),
            *(_neighbours(c, 200) for c in CUTOFFS),
            subnormals,
            near_one,
            quantiles,
            [0.0, -0.0, 1.0, 0.5, -0.5, 1.5, math.inf, -math.inf, math.nan],
        ]
    )


def _mismatches(port, reference, inputs):
    got = np.array([port(v) for v in inputs.tolist()])
    want = reference(inputs)
    # equal values with equal signs (so -0.0 is not 0.0), or both NaN
    same = np.where(
        np.isnan(want),
        np.isnan(got),
        (got == want) & (np.signbit(got) == np.signbit(want)),
    )
    bad = np.flatnonzero(~same)
    detail = ", ".join(
        f"x={float(inputs[i])!r}: port {float(got[i])!r}, scipy {float(want[i])!r}"
        for i in bad[:5]
    )
    return len(bad), detail


def test_ndtri_equals_scipy_bit_for_bit():
    p = _drift_p()
    assert len(p) >= 500_000
    count, detail = _mismatches(_cephes.ndtri.__wrapped__, special.ndtri, p)
    assert count == 0, (
        f"scipy {scipy.__version__} ndtri differs from riskbounds._cephes.ndtri "
        f"at {count} of {len(p)} p; {detail}"
    )


def test_cached_ndtri_returns_the_port_value():
    for p in (0.975, 0.9, 1e-300, 1.0 - 2.0**-53):
        assert _cephes.ndtri(p) == _cephes.ndtri.__wrapped__(p) == special.ndtri(p)


def test_expit_underflows_to_zero_instead_of_raising():
    # eta - half near -2e5 in the cm1 recipe: exp(2e5) overflows, and the
    # lower bound is 0 rather than an OverflowError
    interval = cm1_pseudo_interval(
        beta0=0.0, beta1=0.0, sigma_hat=1e5, n=30, x_bar=0.0, ss_x=1.0,
        x_new=0.0, alpha=0.05,
    )
    assert (interval.lower, interval.point, interval.upper) == (0.0, 0.5, 1.0)
    assert all(type(v) is float for v in (interval.lower, interval.upper))
    # eta - z*se near -2e5: the lower bound is 0, as with scipy's expit
    fit = LogisticFit(
        beta0=0.0, beta1=0.0, cov=np.diag([1e10, 0.0]), deviance=0.0,
        iterations=1, converged=True,
    )
    interval = predict_risk(fit, 0, 0.05).interval
    assert (interval.lower, interval.point, interval.upper) == (0.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# start-up without scipy.special

_CHILD = """
import contextlib, io, json, os, sys
from riskbounds.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    files = {}
    for name in ("figure.csv", "outcomes.csv"):
        path = os.path.join(sys.argv[2], name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                files[name] = fh.read()
            os.remove(path)
    results.append([status, out.getvalue(), files])
print(json.dumps({"results": results, "special": "scipy.special" in sys.modules}))
"""


def _readme_calls() -> dict:
    """run.INVOCATIONS, read from perfbench/run.py without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "INVOCATIONS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no INVOCATIONS assignment in perfbench/run.py")


def _body(text: str) -> str:
    # as perfbench/oracles.py table_body: drop the leading manifest block
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        while lines and lines[0].startswith("#"):
            lines.pop(0)
    elif "" in lines:
        lines = lines[lines.index("") + 1 :]
    return "\n".join(lines) + "\n"


def _fresh_run(calls: list[list[str]], tmp_path: Path):
    env = dict(os.environ, SOURCE_DATE_EPOCH="1700000000")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    argv = [[a.replace("{tmp}", str(tmp_path)) for a in call] for call in calls]
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(child.stdout)
    return report["results"], report["special"]


SCIPY_FREE = ("wilson_table", "wilson_fictitious", "coverage", "refuted_hmc")


def test_scipy_free_readme_calls(tmp_path):
    calls = _readme_calls()
    bodies = json.loads((PERFBENCH / "cli_bodies.json").read_text(encoding="utf-8"))
    results, special_loaded = _fresh_run([calls[key] for key in SCIPY_FREE], tmp_path)
    assert not special_loaded, "scipy.special was imported"
    for key, (status, stdout, _) in zip(SCIPY_FREE, results):
        assert status == 0, key
        assert _body(stdout) == bodies[key]["stdout"], key


def test_fit_still_loads_scipy_and_prints_the_same_bytes(tmp_path):
    calls = _readme_calls()
    bodies = json.loads((PERFBENCH / "cli_bodies.json").read_text(encoding="utf-8"))
    [(status, stdout, files)], special_loaded = _fresh_run([calls["fit"]], tmp_path)
    assert special_loaded
    assert status == 0
    assert _body(stdout) == bodies["fit"]["stdout"]
    assert _body(files["figure.csv"]) == bodies["fit"]["figure.csv"]


# the README calls no other test compares with the benchmark's bodies
SCIPY_CALLS = ("simulate_single", "simulate_repeated", "refuted_cm1")


def test_scipy_readme_calls_print_the_same_bytes(tmp_path):
    calls = _readme_calls()
    bodies = json.loads((PERFBENCH / "cli_bodies.json").read_text(encoding="utf-8"))
    results, _ = _fresh_run([calls[key] for key in SCIPY_CALLS], tmp_path)
    for key, (status, stdout, files) in zip(SCIPY_CALLS, results):
        assert status == 0, key
        assert _body(stdout) == bodies[key]["stdout"], key
        written = {name: _body(text) for name, text in files.items()}
        assert written == {k: v for k, v in bodies[key].items() if k != "stdout"}, key


def test_coverage_above_one_still_loads_scipy(tmp_path):
    argv = ["coverage", "--n", "5", "--p", "0.3", "--level", "0.95", "--format", "csv"]
    [(status, stdout, _)], special_loaded = _fresh_run([argv], tmp_path)
    assert special_loaded
    assert status == 0
    assert _body(stdout) == (
        "k,probability,lower,upper,covered\n"
        "0,0.1681,0.0000,0.4345,true\n"
        "1,0.3601,0.0362,0.6245,true\n"
        "2,0.3087,0.1176,0.7693,true\n"
        "3,0.1323,0.2307,0.8824,true\n"
        "4,0.0283,0.3755,0.9638,false\n"
        "5,0.0024,0.5655,1.0000,false\n"
        "# coverage: 0.9692\n"
    )
