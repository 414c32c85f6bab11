"""Independent checks of riskbounds outputs, run outside the timed region.

Each check returns a list of failure causes (empty when the output is
right).  None of them calls riskbounds: bounds come from the closed-form
Wilson formula in its 2k + z^2 form, z from ``statistics.NormalDist``,
binomial masses from ``scipy.stats.binom``, the logistic MLE from a
separate Newton solve, and simulated outcomes from re-drawing each
person's substream as the README's reproducibility contract describes.

Known defects at the time the benchmark was written are reported under
their own cause names (``fictitious_misfire``, ``deviance_rise_at_optimum``)
so that they stay visible without being mistaken for new failures.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

import numpy as np

KNOWN_DEFECTS = ("fictitious_misfire", "deviance_rise_at_optimum")

_PRINT_HALF_UNIT = 0.5e-4  # --round default is 4 decimals
_PRINT_TOL = _PRINT_HALF_UNIT + 1e-9


def z_quantile(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def wilson_bounds(k, n, z):
    """Score interval from integer counts: (2k + z^2 -+ z*sqrt(...)) / 2(n+z^2)."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    z2 = z * z
    root = z * np.sqrt(z2 + 4.0 * k * (n - k) / n)
    denom = 2.0 * (n + z2)
    lower = np.clip((2.0 * k + z2 - root) / denom, 0.0, 1.0)
    upper = np.clip((2.0 * k + z2 + root) / denom, 0.0, 1.0)
    return lower, upper


# ---------------------------------------------------------------------------
# cli_readme: stored reference bodies and pinned anchors


def table_body(text: str) -> str:
    """Output without its leading manifest block.

    Pretty output ends the manifest at the first blank line; csv output
    prefixes manifest (and banner) lines with ``#``.  Later manifest lines
    therefore never change the body.
    """
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        while lines and lines[0].startswith("#"):
            lines.pop(0)
    elif "" in lines:
        lines = lines[lines.index("") + 1 :]
    return "\n".join(lines) + "\n"


def _has_row(body: str, fields: list[str]) -> bool:
    return any(line.split() == fields for line in body.splitlines())


# invocation key -> row (whitespace-split fields) that must appear in the body
CLI_ANCHORS = {
    "coverage": ["coverage:", "0.8000"],
    "simulate_repeated": ["scenario_a", "clustering", "statistic", "16.1836"],
}


def check_cli_call(key: str, returncode: int, outputs: dict, reference: dict) -> list:
    """Exit 0, every output body equal to its stored reference, anchors present.

    ``outputs`` and ``reference`` map an output name (``stdout`` or a file
    name) to its full text / stored body.
    """
    if returncode != 0:
        return [f"exit_{returncode}"]
    causes = []
    for name, expected in reference.items():
        text = outputs.get(name)
        if text is None:
            causes.append(f"missing_{name}")
        elif table_body(text) != expected:
            causes.append("body_mismatch")
    anchor = CLI_ANCHORS.get(key)
    if anchor and not _has_row(table_body(outputs.get("stdout", "")), anchor):
        causes.append("anchor_mismatch")
    return sorted(set(causes))


# ---------------------------------------------------------------------------
# coverage_grid


def check_coverage(n, p, level, coverage, lowers, uppers, covered, probs, methods):
    """Exact coverage recomputed from scipy pmf and closed-form bounds."""
    from scipy.stats import binom

    causes = []
    if n == 1 and p == 0.2 and level == 0.95 and coverage != 0.8:
        causes.append("anchor_0.8")
    k = np.arange(n + 1)
    ref_lower, ref_upper = wilson_bounds(k, n, z_quantile(1.0 - level))
    lowers, uppers = np.asarray(lowers), np.asarray(uppers)
    if len(lowers) != n + 1 or not (
        np.allclose(lowers, ref_lower, rtol=0, atol=1e-11)
        and np.allclose(uppers, ref_upper, rtol=0, atol=1e-11)
    ):
        causes.append("bounds")
        return causes
    if any(m != "wilson" for m in methods):
        causes.append("label")
    ref_probs = binom.pmf(k, n, p)
    if not np.allclose(probs, ref_probs, rtol=1e-8, atol=1e-15):
        causes.append("pmf")
    # an outcome whose bound sits on p_true within float noise may go either way
    near = np.minimum(np.abs(ref_lower - p), np.abs(ref_upper - p)) < 1e-11
    ref_covered = (ref_lower <= p) & (p <= ref_upper)
    if np.any((np.asarray(covered) != ref_covered) & ~near):
        causes.append("covered_flag")
    low = math.fsum(ref_probs[ref_covered & ~near])
    high = low + math.fsum(ref_probs[near])
    if not low - 1e-9 <= coverage <= high + 1e-9:
        causes.append("coverage")
    return causes


# ---------------------------------------------------------------------------
# report_batch


def _csv_rows(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    footer = [line[2:] for line in lines if line.startswith("# ")]
    if not body:
        return [], [], footer
    return body[0].split(","), [line.split(",") for line in body[1:]], footer


def check_wilson_csv(counts, returncode, stdout, alpha=0.05):
    """Per-row labels from integer counts and closed-form bounds.

    Returns ``(causes, misfired_rows)``.  Every input row has integer
    counts, so every row must be labelled ``wilson`` and valid.
    """
    if returncode != 0:
        return [f"exit_{returncode}"], 0
    columns, rows, _ = _csv_rows(stdout)
    expected_columns = [
        "category", "total", "events", "theta_hat", "lower", "upper",
        "level", "method", "valid",
    ]
    if columns != expected_columns or len(rows) != len(counts):
        return ["layout"], 0
    z = z_quantile(alpha)
    causes = set()
    misfired = 0
    for (cat, total, events), row in zip(sorted(counts), rows):
        if [int(v) for v in row[:3]] != [cat, total, events]:
            causes.add("counts")
            continue
        label, valid = row[7], row[8]
        if label == "fictitious_wilson" and valid == "false":
            causes.add("fictitious_misfire")
            misfired += 1
        elif (label, valid) != ("wilson", "true"):
            causes.add("label")
        lower, upper = wilson_bounds(events, total, z)
        printed = [float(v) for v in row[3:7]]
        expected = [events / total, float(lower), float(upper), 1.0 - alpha]
        if any(abs(a - b) > _PRINT_TOL for a, b in zip(printed, expected)):
            causes.add("bounds")
    return sorted(causes), misfired


def finite_mle_exists(counts) -> bool:
    """Integer test: events and non-events overlap on the category axis.

    For logit(risk) = b0 + b1 * category the MLE is finite exactly when the
    data are neither completely nor quasi-completely separated.
    """
    with_event = [c for c, t, e in counts if e > 0]
    with_non_event = [c for c, t, e in counts if e < t]
    if not with_event or not with_non_event:
        return False
    return max(with_non_event) > min(with_event) and max(with_event) > min(
        with_non_event
    )


def _expit(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def logistic_mle(counts):
    """Newton solve with log-likelihood backtracking, relative stopping rule."""
    x = np.array([c for c, t, e in counts], dtype=float)
    t = np.array([t for c, t, e in counts], dtype=float)
    e = np.array([e for c, t, e in counts], dtype=float)

    def loglik(b):
        eta = b[0] + b[1] * x
        return float(np.sum(e * eta - t * np.logaddexp(0.0, eta)))

    def info(b):
        pi = _expit(b[0] + b[1] * x)
        w = t * pi * (1.0 - pi)
        return np.array([[w.sum(), (w * x).sum()], [(w * x).sum(), (w * x * x).sum()]])

    pooled = e.sum() / t.sum()
    beta = np.array([math.log(pooled / (1.0 - pooled)), 0.0])
    ll = loglik(beta)
    for _ in range(200):
        resid = e - t * _expit(beta[0] + beta[1] * x)
        grad = np.array([resid.sum(), (x * resid).sum()])
        step = np.linalg.solve(info(beta), grad)
        scale = 1.0
        while scale > 1e-6:
            cand = beta + scale * step
            new_ll = loglik(cand)
            if new_ll >= ll - 1e-13 * abs(ll):
                break
            scale /= 2.0
        beta, ll = cand, new_ll
        if np.all(np.abs(scale * step) <= 1e-13 * (1.0 + np.abs(beta))):
            break
    cov = np.linalg.inv(info(beta))
    return beta, (cov + cov.T) / 2.0, info


def _footer_values(footer: list[str]) -> dict:
    values = {}
    for line in footer:
        for token in line.split()[1:]:
            key, _, value = token.partition("=")
            values[key] = value
    return values


def check_fit_csv(counts, returncode, stdout, stderr, alphas=(0.05, 0.20)):
    """Exit code against the integer separation test; fit values against an
    independent MLE; the printed coefficients must be a score root."""
    if not finite_mle_exists(counts):
        return [] if returncode in (2, 3) else ["fit_on_separated_data"]
    if returncode == 3:
        if "deviance would not decrease" in stderr:
            return ["deviance_rise_at_optimum"]
        return ["numerical_failure"]
    if returncode != 0:
        return [f"exit_{returncode}"]
    columns, rows, footer = _csv_rows(stdout)
    expected_columns = [
        "alpha", "category", "total", "events", "observed", "fitted", "lower", "upper",
    ]
    ordered = sorted(counts)
    if columns != expected_columns or len(rows) != len(alphas) * len(ordered):
        return ["layout"]
    causes = set()
    beta, cov, info = logistic_mle(ordered)
    for i, row in enumerate(rows):
        alpha = alphas[i // len(ordered)]
        cat, total, events = ordered[i % len(ordered)]
        if [int(v) for v in row[1:4]] != [cat, total, events]:
            causes.add("counts")
            continue
        eta = beta[0] + beta[1] * cat
        se = math.sqrt(cov[0, 0] + 2 * cat * cov[0, 1] + cat * cat * cov[1, 1])
        z = z_quantile(alpha)
        expected = [
            alpha,
            events / total,
            float(_expit(eta)),
            float(_expit(eta - z * se)),
            float(_expit(eta + z * se)),
        ]
        printed = [float(row[0])] + [float(v) for v in row[4:8]]
        if any(abs(a - b) > _PRINT_TOL for a, b in zip(printed, expected)):
            causes.add("fit_values")
    values = _footer_values(footer)
    try:
        printed_beta = np.array([float(values["beta0"]), float(values["beta1"])])
        converged = values["converged"] == "true"
    except (KeyError, ValueError):
        return sorted(causes | {"footer"})
    if not converged:
        causes.add("not_converged")
    # score ~ 0: a Newton step from the printed (rounded) coefficients stays
    # within two print half-units of where it starts
    x = np.array([c for c, t, e in ordered], dtype=float)
    t = np.array([t for c, t, e in ordered], dtype=float)
    e = np.array([e for c, t, e in ordered], dtype=float)
    resid = e - t * _expit(printed_beta[0] + printed_beta[1] * x)
    grad = np.array([resid.sum(), (x * resid).sum()])
    step = np.linalg.solve(info(printed_beta), grad)
    if np.any(np.abs(step) > 2 * _PRINT_HALF_UNIT):
        causes.add("score_not_zero")
    return sorted(causes)


# ---------------------------------------------------------------------------
# simulation_study


def redraw_repeated(distribution: dict, n: int, m: int, seed: int) -> np.ndarray:
    """Per-person substream contract: child i of SeedSequence(seed).spawn(n)
    draws the person's risk, then m uniforms compared against it."""
    rows = np.empty((n, m), dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        if distribution["kind"] == "point":
            risk = distribution["p"]
        else:
            risk = (
                distribution["p1"] if rng.random() < distribution["w1"] else distribution["p2"]
            )
        rows[i] = rng.random(m) < risk
    return rows


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int, m: int, total: int):
    """Statistic and probability of every per-person count vector with this total."""
    grid = np.indices((m + 1,) * n).reshape(n, -1).T
    grid = grid[grid.sum(axis=1) == total]
    p_hat = total / (n * m)
    stats = ((grid - m * p_hat) ** 2).sum(axis=1) / (m * p_hat * (1 - p_hat))
    comb = np.array([math.comb(m, c) for c in range(m + 1)], dtype=float)
    return stats, comb[grid].prod(axis=1) / math.comb(n * m, total)


def exact_permutation_p(outcomes: np.ndarray, statistic: float) -> float:
    """Exact permutation tail: per-person counts are multivariate hypergeometric."""
    n, m = outcomes.shape
    stats, weights = _permutation_table(n, m, int(outcomes.sum()))
    return float(weights[stats >= statistic - 1e-12].sum())


def check_repeated(distribution, n, m, seed, outcomes, test, icc, permutations=10_000):
    """Bit-for-bit re-draw, homogeneity statistic, p-values and ICC.

    ``test`` is ``(statistic, df, p_value, p_value_permutation, undefined)``
    and ``icc`` is ``(value, undefined)``.
    """
    from scipy.stats import binom, chi2

    outcomes = np.asarray(outcomes)
    if not np.array_equal(outcomes, redraw_repeated(distribution, n, m, seed)):
        return ["outcome_redraw"]
    causes = []
    statistic, df, p_value, p_perm, undefined = test
    counts = outcomes.sum(axis=1)
    p_hat = counts.sum() / (n * m)
    if undefined != (p_hat in (0.0, 1.0)):
        causes.append("undefined_flag")
    elif not undefined:
        ref_stat = float(((counts - m * p_hat) ** 2).sum() / (m * p_hat * (1 - p_hat)))
        if df != n - 1 or abs(statistic - ref_stat) > 1e-9 * max(1.0, ref_stat):
            causes.append("statistic")
        elif abs(p_value - chi2.sf(ref_stat, n - 1)) > 1e-10:
            causes.append("p_value")
        if n * m < 40:
            # p = (1 + exceed) / (1 + permutations), exceed ~ Binomial(permutations, exact)
            exact = exact_permutation_p(outcomes, ref_stat)
            exceed = None if p_perm is None else p_perm * (1 + permutations) - 1
            if (
                exceed is None
                or abs(exceed - round(exceed)) > 1e-6
                or binom.cdf(round(exceed), permutations, exact) < 1e-9
                or binom.sf(round(exceed) - 1, permutations, exact) < 1e-9
            ):
                causes.append("permutation_p")
        elif p_perm is not None:
            causes.append("permutation_route")
    y = outcomes.astype(float)
    means = y.mean(axis=1)
    between = m * ((means - y.mean()) ** 2).sum() / (n - 1)
    within = ((y - means[:, None]) ** 2).sum() / (n * (m - 1))
    denom = between + (m - 1) * within
    icc_value, icc_undefined = icc
    if icc_undefined != (denom == 0.0):
        causes.append("icc_flag")
    elif denom != 0.0 and abs(icc_value - (between - within) / denom) > 1e-12:
        causes.append("icc")
    return causes


def check_cohort(model: dict, n: int, seed: int, outcomes, latent_risks, sample):
    """Re-draw sampled people bit-for-bit and check their closed-form risks."""
    children = np.random.SeedSequence(seed).spawn(n)
    intensity = model["provocation_rate"] * model["follow_up"]
    sd = math.hypot(model["strength_spread"], model["fluctuation_sd"])
    causes = set()
    for i in sample:
        rng = np.random.default_rng(children[i])
        threshold = model["threshold_location"] + model["threshold_spread"] * rng.standard_normal()
        q = NormalDist(model["strength_location"], sd).cdf(threshold)
        risk = 1.0 - math.exp(-intensity * (1.0 - q))
        if abs(latent_risks[i] - risk) > 1e-12:
            causes.add("latent_risk")
        count = rng.poisson(intensity) if intensity > 0 else 0
        event = 0
        if count:
            strengths = model["strength_location"] + model["strength_spread"] * rng.standard_normal(count)
            noise = model["fluctuation_sd"] * rng.standard_normal(count)
            event = int(np.any(strengths - noise > threshold))
        if int(outcomes[i]) != event:
            causes.add("outcome_redraw")
    return sorted(causes)
