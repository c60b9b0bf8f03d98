"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and
prints a single [acceptance] PASS/FAIL line; the assertion carries the
same condition so failures are loud in both channels.
"""

import csv
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from circumlib import (
    Initializer,
    Method,
    Problem,
    SolverConfig,
    affine_hull,
    cdrm_step,
    circumcenter,
    circumcenter_cross3,
    circumcenter_gram,
    circumradius_cross3,
    cramer_coefficients,
    crm_step,
    estimate_rate,
    from_span,
    generate_two_subspace,
    project,
    reflect,
    run,
)
from test_solvers import project_onto_hull


def check(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


def rel_close(a, b, tol):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= tol * (
        1.0 + np.linalg.norm(np.asarray(b))
    )


def independent_triple(rng, n):
    while True:
        pts = rng.normal(size=(3, n))
        if np.linalg.matrix_rank(pts[1:] - pts[0]) == 2:
            return pts


def conditioned_points(rng, m, n, min_rel_sv=0.05):
    while True:
        pts = rng.normal(size=(m, n))
        s = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        if s[-1] >= min_rel_sv * s[0]:
            return pts


def test_acceptance_01_square():
    pts = [[0, 0], [4, 0], [0, 4], [4, 4]]
    circumcenter(pts)  # warm up before timing
    t0 = time.perf_counter()
    out = circumcenter(pts)
    elapsed = time.perf_counter() - t0
    ok = (
        not out.is_empty
        and np.abs(out.center - np.array([2.0, 2.0])).max() <= 1e-10
        and abs(out.radius - 2.0 * math.sqrt(2.0)) <= 1e-10
        and elapsed < 1e-3
    )
    check("01 square center (2,2) radius 2*sqrt(2)", ok, f"{elapsed * 1e3:.2f} ms")


def test_acceptance_02_discontinuity():
    ok = True
    for k in (1, 10, 100):
        pts = [[-2, 0], [2, 0], [2 - 1 / k, 1 / (4 * k)]]
        want = np.array([0.0, -8 + 2 / k + 1 / (8 * k)])
        out = circumcenter(pts)
        ok = ok and not out.is_empty and np.abs(out.center - want).max() <= 1e-8
    limit = circumcenter([[-2, 0], [2, 0]])
    ok = ok and np.abs(limit.center - np.array([0.0, 0.0])).max() <= 1e-10
    check("02 discontinuity family k in {1,10,100} and limit set", ok)


def test_acceptance_03_existence_characterization():
    rng = np.random.default_rng(101)
    mismatches = 0
    for i in range(1000):
        if i % 2 == 0:
            pts = independent_triple(rng, 5)
            independent = True
        else:
            x = rng.normal(size=5)
            d = rng.normal(size=5)
            t, s = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
            pts = np.array([x, x + t * d, x + s * d])
            independent = False
        out = circumcenter(pts)
        if (not out.is_empty) != independent:
            mismatches += 1
    check(
        "03 exists iff affinely independent on 1000 triples in R^5",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_acceptance_04_formula_cross_agreement():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        pts = independent_triple(rng, 3)
        g = circumcenter_gram(pts)
        three = circumcenter(pts)
        cross = circumcenter_cross3(*pts)
        r = circumradius_cross3(*pts)
        scale = 1.0 + np.linalg.norm(g)
        worst = max(
            worst,
            np.linalg.norm(three.center - g) / scale,
            np.linalg.norm(cross - g) / scale,
            np.linalg.norm(three.center - cross) / scale,
            abs(r - np.linalg.norm(g - pts[0])) / (1.0 + r),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    check(
        "04 gram/three-point/cross3 agree on 1000 triples in R^3",
        ok,
        f"worst {worst:.2e}, {elapsed:.2f} s",
    )


def test_acceptance_05_invariance_suite():
    rng = np.random.default_rng(103)
    ok = True
    empties = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 9))
        pts = rng.normal(size=(m, n)) * float(rng.uniform(0.5, 4.0))
        if m >= 3 and rng.uniform() < 0.3:
            # plant an affinely dependent tuple so Empty cases occur
            pts[m - 1] = pts[0] + rng.uniform(0.2, 1.5) * (pts[1] - pts[0])
        base = circumcenter(pts)
        if base.is_empty:
            empties += 1
        y = rng.normal(size=n)
        shifted = circumcenter(pts + y)
        if base.is_empty != shifted.is_empty:
            ok = False
        elif not base.is_empty:
            ok = ok and rel_close(shifted.center, base.center + y, 1e-9)
        for lam in (-3.0, 0.5, 7.0):
            scaled = circumcenter(lam * pts)
            if base.is_empty != scaled.is_empty:
                ok = False
            elif not base.is_empty:
                ok = ok and rel_close(scaled.center, lam * base.center, 1e-9)
    ok = ok and empties >= 30
    check(
        "05 scaling and translation invariance over 500 sets",
        ok,
        f"{empties} empty cases exercised",
    )


def test_acceptance_06_cramer_consistency():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, min(n + 2, 7)))
        pts = conditioned_points(rng, m, n)
        alpha = cramer_coefficients(pts, 0)
        rebuilt = pts[0] + sum(c * (p - pts[0]) for c, p in zip(alpha, pts[1:]))
        ok = ok and rel_close(rebuilt, circumcenter_gram(pts), 1e-8)
        if m < 3:
            continue
        # full barycentric vectors must agree for every choice of base
        w0 = np.empty(m)
        w0[0] = 1.0 - sum(alpha)
        w0[1:] = alpha
        for k in range(1, m):
            beta = cramer_coefficients(pts, k)
            wk = np.empty(m)
            wk[k] = 1.0 - sum(beta)
            wk[[j for j in range(m) if j != k]] = beta
            ok = ok and np.abs(w0 - wk).max() <= 1e-9
    check("06 cramer coefficients: reconstruction and base change", ok)


def test_acceptance_07_projection_characterization():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        n = 20
        du = int(rng.integers(1, 10))
        dv = int(rng.integers(1, 10))
        c = rng.normal(size=n)
        span_u = rng.normal(size=(du, n))
        span_v = rng.normal(size=(dv, n))
        U = from_span(c + span_u.T @ rng.normal(size=du), span_u)
        V = from_span(c + span_v.T @ rng.normal(size=dv), span_v)
        prob = Problem([U, V], rng.normal(size=n))
        x = rng.normal(size=n) * 2.0
        ru = reflect(U, x)
        hull = affine_hull([x, ru, reflect(V, ru)])
        target = project(hull, project(prob.intersection, x))
        worst = max(worst, float(np.linalg.norm(cdrm_step(U, V, x) - target)))
    check(
        "07 cdrm step is P_aff(S(x)) of P_intersection(x) in R^20",
        worst <= 1e-8,
        f"worst gap {worst:.2e}",
    )
    # Wider: cdrm on two sets and crm on three in R^200, against the
    # least-squares projection of the solver tests, which shares no code
    # with the circumcenter kernel or affine_hull. Worst measured gap
    # under 4e-15 |x - w|.
    worst = 0.0
    for _ in range(50):
        n = 200
        c = rng.normal(size=n)
        sets = []
        for d in rng.integers(1, 50, size=3):
            span = rng.normal(size=(d, n))
            sets.append(from_span(c + span.T @ rng.normal(size=d), span))
        x = rng.normal(size=n) * 2.0
        for subspaces, step in ((sets[:2], cdrm_step(*sets[:2], x)), (sets, crm_step(sets, x))):
            w = Problem(subspaces, x).solution
            points = [x]
            for s in subspaces:
                points.append(reflect(s, points[-1]))
            gap = np.linalg.norm(step - project_onto_hull(points, w))
            worst = max(worst, float(gap / np.linalg.norm(x - w)))
    check(
        "07 cdrm and crm (three sets) steps are P_aff(S(x)) of P_intersection(x) in R^200",
        worst <= 1e-12,
        f"worst gap {worst:.2e} |x - w|",
    )


def test_acceptance_08_rate_bound():
    t0 = time.perf_counter()
    ok = True
    summary = []
    for cf in (0.5, 0.8, 0.95):
        worst_rate = 0.0
        for seed in range(20):
            prob = generate_two_subspace(50, 10, 10, cf, seed=seed)
            trace = run(
                Method.CDRM,
                prob,
                SolverConfig(
                    max_iter=2000,
                    initializer=Initializer.PROJECT_FIRST_SET,
                ),
            )
            if len(trace.dists) - 1 > 2000 or trace.dists[-1] > 1e-8:
                ok = False
            rate = estimate_rate(trace)
            worst_rate = max(worst_rate, rate)
            if rate > cf + 0.05:
                ok = False
        summary.append(f"cf={cf}: max rate {worst_rate:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    check(
        "08 cdrm rate <= c_F + 0.05 over 3 x 20 seeded problems",
        ok,
        "; ".join(summary) + f"; {elapsed:.1f} s",
    )


def coordinate_subspace(idx, n):
    onb = np.zeros((len(idx), n))
    for row, j in enumerate(idx):
        onb[row, j] = 1.0
    return from_span(np.zeros(n), onb)


def test_acceptance_09_crm_three_sets():
    rng = np.random.default_rng(106)
    n = 30
    families = [
        [range(0, 18), range(10, 25), list(range(5, 15)) + list(range(20, 30))],
        [range(0, 20), range(8, 28), range(4, 24)],
        [list(range(0, 10)) + list(range(15, 30)), range(5, 22), range(9, 30)],
    ]
    ok = True
    for idx_sets in families:
        sets = [coordinate_subspace(list(idx), n) for idx in idx_sets]
        z = rng.normal(size=n) * 2.0
        prob = Problem(sets, z)
        trace = run(Method.CRM, prob, SolverConfig(max_iter=500))
        ok = ok and np.linalg.norm(trace.final - prob.solution) <= 1e-8
        for a, b in zip(trace.dists, trace.dists[1:]):
            ok = ok and b <= a + 1e-10
        W = prob.intersection
        for _ in range(3):
            w = W.base + W.onb.T @ rng.normal(size=W.dim)
            gaps = [np.linalg.norm(x - w) for x in trace.iterates]
            for a, b in zip(gaps, gaps[1:]):
                ok = ok and b <= a + 1e-10
    check("09 crm on m=3 coordinate subspaces in R^30", ok)


def test_acceptance_10_cli_round_trip(tmp_path):
    def pipeline(workdir: Path) -> bytes:
        code = (
            "import sys\n"
            "from circumlib.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        prob = workdir / "p.json"
        trace = workdir / "trace.csv"
        gen = subprocess.run(
            [sys.executable, "-c", code, "gen", "--n", "40", "--dims", "12,9",
             "--cf", "0.8", "--seed", "2024", "-o", str(prob)],
            capture_output=True, text=True,
        )
        assert gen.returncode == 0, gen.stderr
        solve = subprocess.run(
            [sys.executable, "-c", code, "solve", str(prob), "--method", "cdrm",
             "--csv", str(trace)],
            capture_output=True, text=True,
        )
        assert solve.returncode == 0, solve.stderr
        assert "method cdrm" in solve.stdout
        return trace.read_bytes()

    for sub in ("run1", "run2"):
        (tmp_path / sub).mkdir(exist_ok=True)
    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    rows = list(csv.reader(first.decode().splitlines()))
    ok = (
        first == second
        and rows[0] == ["iter", "step_norm", "dist_to_solution", "residual", "method"]
        and len(rows) > 2
    )
    check("10 gen -> solve -> csv pipeline, rerun bit-identical", ok)
