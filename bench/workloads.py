"""Seeded inputs, operations and output checks for each benchmark workload.

Every workload is a fixed list of operations built from the seed; one round
runs each operation once, in order, and each call starts when the previous
one returns (closed loop, one client). Expected answers come from the
construction of the inputs (a planted sphere, a planted common subspace, a
planted Friedrichs angle) and are checked with numpy alone, never against
stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import circumlib
import circumlib.cli

SOL_TOL = 1e-8
# Centers and radii of planted spheres must match to this share of the radius.
CC_REL_TOL = 1e-10
# Cosines from the library and from the benchmark's own SVD must agree to this.
COS_TOL = 1e-9
TWO_SUBSPACE_CFS = (0.5, 0.8, 0.95)


@dataclass
class Op:
    """One timed call and the check of its result (None when correct)."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    name = ""
    why = ""
    # How round_s reduces one operation's calls over a run (see run.measure).
    call_stat = staticmethod(min)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Make this workload's inputs from the seed (timed, repeated)."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Checks made once per run, untimed, after set-up."""
        return []

    def operations(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Planted constructions (numpy only)


def orthonormal_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k random orthonormal vectors of R^n, as rows."""
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q.T


def sphere_points(rng, n: int, m: int, k: int, center, radius) -> np.ndarray:
    """m points on the (k-1)-sphere of the given center and radius, inside a
    random k-dimensional affine plane through the center of R^n.

    The first k+1 points are a jittered regular simplex of that sphere, so
    they are well conditioned and affinely independent; any further points
    are random on the same sphere.
    """
    verts = np.eye(k + 1) - 1.0 / (k + 1)
    basis, _ = np.linalg.qr(verts)
    simplex = verts @ basis[:, :k] @ orthonormal_rows(rng, k, k)
    simplex += 0.25 * rng.normal(size=simplex.shape) / math.sqrt(k)
    extra = rng.normal(size=(m - k - 1, k))
    u = np.vstack([simplex, extra])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return center + radius * (u @ orthonormal_rows(rng, k, n))


def random_center_radius(rng, n: int) -> tuple[np.ndarray, float]:
    radius = 10.0 ** rng.uniform(-1.0, 2.0)
    return rng.normal(size=n) * (2.0 * radius / math.sqrt(n)), radius


def mixed_basis(rng, rows: np.ndarray) -> np.ndarray:
    """Another basis of the span of orthonormal rows: a random rotation with
    row scales in [0.5, 2], so its condition number stays at most 4."""
    k = rows.shape[0]
    mix = orthonormal_rows(rng, k, k) * rng.uniform(0.5, 2.0, size=(k, 1))
    return mix @ rows


def planted_two_subspace(rng, n: int, d: int, cf: float) -> dict:
    """Two linear subspaces of R^n, dimension d each, with principal-angle
    cosines cf * (d - i) / d, so their Friedrichs cosine is cf and their
    intersection is {0}. The spans are written in a random mixed basis."""
    q = orthonormal_rows(rng, 2 * d, n)
    cos = cf * (d - np.arange(d)) / d
    u = q[0::2]
    v = cos[:, None] * q[0::2] + np.sqrt(1.0 - cos**2)[:, None] * q[1::2]
    return {
        "dim": n,
        "subspaces": [
            {"base": [0.0] * n, "span": mixed_basis(rng, u).tolist()},
            {"base": [0.0] * n, "span": mixed_basis(rng, v).tolist()},
        ],
        "z": rng.normal(size=n).tolist(),
    }


def planted_multi_subspace(rng, n: int, m: int, w: int, d: int) -> tuple[dict, np.ndarray]:
    """m affine subspaces c + span(W, D_i) of R^n sharing exactly c + W.

    W has dimension w and each D_i is d random directions orthogonal to W,
    so for 2 (w + d) - w <= n the pairwise intersections are c + W. Spans
    are written in a well-conditioned mixed basis (see mixed_basis). Returns
    the problem document and the solution c + P_W(z - c) known by
    construction.
    """
    c = rng.normal(size=n)
    W = orthonormal_rows(rng, w, n)
    z = c + 3.0 * rng.normal(size=n)
    subspaces = []
    for _ in range(m):
        extra = rng.normal(size=(d, n))
        extra -= (extra @ W.T) @ W
        q, _ = np.linalg.qr(extra.T)
        dirs = np.vstack([W, q.T])
        base = c + rng.normal(size=w + d) @ dirs
        subspaces.append({"base": base.tolist(), "span": mixed_basis(rng, dirs).tolist()})
    solution = c + W.T @ (W @ (z - c))
    return {"dim": n, "subspaces": subspaces, "z": z.tolist()}, solution


def friedrichs_cos_np(span_a, span_b, common_dim: int) -> float:
    """Friedrichs cosine of two direction spaces whose intersection has the
    given dimension: the (common_dim+1)-th largest principal-angle cosine."""
    qa, _ = np.linalg.qr(np.asarray(span_a, dtype=float).T)
    qb, _ = np.linalg.qr(np.asarray(span_b, dtype=float).T)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(s[common_dim]) if s.size > common_dim else 0.0


# ---------------------------------------------------------------------------
# cc-batch: library circumcenter() over planted point sets

DIMS = (3, 50, 200)


def _exists_sets(rng) -> list[tuple[str, np.ndarray, np.ndarray, float]]:
    """(label, points, center, radius) of sets whose circumcenter exists."""
    out = []
    for n in DIMS:
        # simplices: m points spanning an (m-1)-plane (m=3 only fits R^3 so)
        for m in (3, 5, 9):
            if m - 1 <= n:
                c, r = random_center_radius(rng, n)
                out.append((f"simplex m={m} n={n}", sphere_points(rng, n, m, m - 1, c, r), c, r))
        # cospherical: more points than the hull dimension + 1
        for m, k in ((5, 2), (9, 3)):
            c, r = random_center_radius(rng, n)
            out.append((f"cospherical m={m} k={k} n={n}", sphere_points(rng, n, m, k, c, r), c, r))
        # a simplex with exact duplicates of two of its points
        c, r = random_center_radius(rng, n)
        pts = sphere_points(rng, n, 4, 3, c, r)
        out.append((f"simplex+duplicates n={n}", np.vstack([pts, pts[[0, 2]]]), c, r))
        # duplicates only: the point itself, radius 0
        p = rng.normal(size=n)
        out.append((f"duplicates-only n={n}", np.vstack([p, p, p]), p, 0.0))
    return out


def _empty_sets(rng) -> list[tuple[str, np.ndarray]]:
    """(label, points) of sets that have no circumcenter."""
    out = []
    for n in DIMS:
        for _ in range(2):
            # distinct collinear triple, not symmetric about any of its points
            p = rng.normal(size=n)
            d = rng.normal(size=n)
            d *= 10.0 ** rng.uniform(-1.0, 2.0) / np.linalg.norm(d)
            t1, t2 = rng.uniform(1.0, 2.0), -rng.uniform(1.0, 2.0)
            out.append((f"collinear n={n}", np.vstack([p, p + t1 * d, p + t2 * d])))
        for off in (0.5, 1.5):
            # three points on a circle and a fourth in its plane, off the circle
            c, r = random_center_radius(rng, n)
            plane = orthonormal_rows(rng, 2, n)
            ang = 2.0 * math.pi * np.array([0.0, 1.0, 2.0, 0.5]) / 3.0 + rng.uniform(0.0, 0.3, size=4)
            rad = np.array([r, r, r, off * r])
            pts = c + (rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])) @ plane
            out.append((f"coplanar off-circle n={n}", pts))
    return out


class CcBatch(Workload):
    name = "cc-batch"
    why = "circumcenter() on planted spheres and on sets with no circumcenter: time in linalg and circumcenter only"

    def setup(self):
        self.exists = _exists_sets(np.random.default_rng([self.seed, 1]))
        self.empty = _empty_sets(np.random.default_rng([self.seed, 2]))

    def operations(self):
        ops = []
        for label, pts, c, r in self.exists:
            def check(out, label=label, c=c, r=r):
                if out.is_empty:
                    return f"{label}: Empty, expected radius {r}"
                if r == 0.0:
                    ok = out.radius == 0.0 and np.array_equal(out.center, c)
                else:
                    ok = (
                        np.linalg.norm(out.center - c) <= CC_REL_TOL * r
                        and abs(out.radius - r) <= CC_REL_TOL * r
                    )
                return None if ok else f"{label}: center/radius off the planted sphere"

            ops.append(Op("cc_exists", lambda pts=pts: circumlib.circumcenter(pts), check))
        for label, pts in self.empty:
            def check(out, label=label):
                return None if out.is_empty and out.radius == math.inf else f"{label}: expected Empty"

            ops.append(Op("cc_empty", lambda pts=pts: circumlib.circumcenter(pts), check))
        return ops


# ---------------------------------------------------------------------------
# two-subspace-circum / two-subspace-baseline: library run() to sol_tol


class TwoSubspace(Workload):
    """run(method) with SolverConfig(sol_tol=1e-8) for each of the
    workload's methods on generate_two_subspace(200, 50, 50, cf, s), for
    each planted cf and three instance seeds derived from the run's seed
    (with two, the iteration counts alone move a round by 7% from seed to
    seed). Generation is the set-up."""

    methods: tuple[str, ...] = ()

    def instance_seeds(self) -> list[int]:
        return [3 * self.seed + k for k in (1, 2, 3)]

    def setup(self):
        self.instances = [
            (cf, s, circumlib.generate_two_subspace(200, 50, 50, cf, s))
            for cf in TWO_SUBSPACE_CFS
            for s in self.instance_seeds()
        ]
        self.cfg = circumlib.SolverConfig(sol_tol=SOL_TOL)
        self.last_cdrm: dict[int, object] = {}

    def verify(self):
        errors = []
        for cf, s, prob in self.instances:
            U, V = prob.subspaces
            if abs(circumlib.friedrichs_cos(U, V) - cf) > COS_TOL:
                errors.append(f"cf={cf} seed={s}: friedrichs_cos is not the planted cf")
            if abs(friedrichs_cos_np(U.onb, V.onb, 0) - cf) > COS_TOL:
                errors.append(f"cf={cf} seed={s}: principal angles are not the planted ones")
        return errors

    def check_trace(self, trace, method: str, i: int) -> str | None:
        cf, s, _ = self.instances[i]
        where = f"{method} cf={cf} seed={s}"
        if method == "cdrm":
            self.last_cdrm[i] = trace
        # The planted cosines are all below 1, so the intersection is {0}.
        if trace.reason != "sol_tol" or np.linalg.norm(trace.final) > SOL_TOL:
            return f"{where}: stopped by {trace.reason} at |x| {np.linalg.norm(trace.final):.3e}"
        if method == "cdrm" and circumlib.estimate_rate(trace) > cf:
            return f"{where}: estimated rate {circumlib.estimate_rate(trace):.4f} above cf"
        if method == "crm":
            # On two sets crm is cdrm; cdrm ran on this instance just before.
            ref = self.last_cdrm.pop(i, None)
            if ref is None or trace.num_steps != ref.num_steps or not np.allclose(
                trace.final, ref.final, rtol=0.0, atol=1e-12
            ):
                return f"{where}: crm and cdrm disagree on two sets"
        return None

    def operations(self):
        return [
            Op(
                method,
                lambda prob=prob, method=method: circumlib.run(method, prob, self.cfg),
                lambda trace, method=method, i=i: self.check_trace(trace, method, i),
            )
            for i, (_, _, prob) in enumerate(self.instances)
            for method in self.methods
        ]


class TwoSubspaceCircum(TwoSubspace):
    name = "two-subspace-circum"
    methods = ("cdrm", "crm")
    why = "time to sol_tol of cdrm and crm on planted-angle pairs: reflections, the 3-point circumcenter, per-iteration measurement"


class TwoSubspaceBaseline(TwoSubspace):
    name = "two-subspace-baseline"
    methods = ("dr", "map")
    why = "time to sol_tol of the dr and map baselines on the same pairs: projections and measurement, no circumcenter"


# ---------------------------------------------------------------------------
# cli-files: the `circum` entry point, in-process, on files written at set-up


def parse_summary(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


class CliFiles(Workload):
    name = "cli-files"
    why = "circum cc, gen and solve through cli.main on JSON files: file I/O, from_span, intersect, pairwise friedrichs_cos"
    # Most calls take 0.1-0.3 s and are repeated about 25 times in a run.
    call_stat = staticmethod(statistics.median)

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {}

        def write(name: str, doc: dict) -> str:
            path = self.workdir / name
            path.write_text(json.dumps(doc))
            files[name] = str(path)
            return str(path)

        c, r = random_center_radius(rng, 20)
        pts = sphere_points(rng, 20, 6, 5, c, r)
        self.cc_expect = (c, r)
        write("cc.json", {"dim": 20, "points": pts.tolist()})

        doc = planted_two_subspace(rng, 200, 50, 0.8)
        write("two.json", doc)
        self.two_cf = friedrichs_cos_np(*(s["span"] for s in doc["subspaces"]), 0)

        self.multi = {}
        for m in (4, 5):
            doc, solution = planted_multi_subspace(rng, 200, m, 4, 15)
            name = write(f"multi{m}.json", doc)
            cf = max(
                friedrichs_cos_np(a["span"], b["span"], 4)
                for i, a in enumerate(doc["subspaces"])
                for b in doc["subspaces"][i + 1 :]
            )
            self.multi[name] = (cf, solution)
        self.gen_path = str(self.workdir / "gen.json")
        self.gen_seed = int(rng.integers(1, 2**31))
        self.files = files

    def verify(self):
        errors = []
        for path, (_, solution) in self.multi.items():
            got = circumlib.load_problem(path).solution
            if np.linalg.norm(got - solution) > 1e-8 * (1.0 + np.linalg.norm(solution)):
                errors.append(f"{path}: load_problem solution is not c + P_W(z - c)")
        return errors

    def cli(self, *args: str) -> str:
        """Run `circum ARGS` through circumlib.cli.main and return its output."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = circumlib.cli.main(list(args))
        if code != 0:
            raise RuntimeError(f"circum {' '.join(args)} exited {code}")
        return buf.getvalue()

    def check_cc(self, text: str) -> str | None:
        c, r = self.cc_expect
        got = parse_summary(text)
        center = np.array([float(v) for v in got.get("center", "").split()])
        if center.shape != c.shape or np.linalg.norm(center - c) > CC_REL_TOL * r:
            return "cc: center is not the planted one"
        if abs(float(got.get("radius", "nan")) - r) > CC_REL_TOL * r:
            return "cc: radius is not the planted one"
        return None

    def check_gen(self, _text: str) -> str | None:
        doc = json.loads(Path(self.gen_path).read_text())
        spans = [s["span"] for s in doc["subspaces"]]
        if doc["dim"] != 200 or [len(s) for s in spans] != [50, 50]:
            return "gen: wrong shape"
        if abs(friedrichs_cos_np(spans[0], spans[1], 0) - 0.8) > COS_TOL:
            return "gen: principal angles are not the planted ones"
        return None

    def check_solve(self, text: str, label: str, cf_key: str, cf: float) -> str | None:
        got = parse_summary(text)
        if got.get("reason") != "step_tol":
            return f"{label}: reason {got.get('reason')}"
        if not float(got["final_dist"]) <= 1e-8 or not float(got["final_residual"]) <= 1e-8:
            return f"{label}: final_dist {got['final_dist']} final_residual {got['final_residual']}"
        if abs(float(got.get(cf_key, "nan")) - cf) > COS_TOL:
            return f"{label}: {cf_key} {got.get(cf_key)} differs from principal angles {cf}"
        return None

    def operations(self):
        f = self.files
        ops = [
            Op("cli_cc", lambda: self.cli("cc", f["cc.json"]), self.check_cc),
            Op(
                "cli_gen",
                lambda: self.cli(
                    "gen", "--n", "200", "--dims", "50,50", "--cf", "0.8",
                    "--seed", str(self.gen_seed), "-o", self.gen_path,
                ),
                self.check_gen,
            ),
        ]
        for method in ("cdrm", "dr"):
            ops.append(Op(
                "cli_solve_two",
                lambda method=method: self.cli("solve", f["two.json"], "--method", method),
                lambda text, method=method: self.check_solve(text, f"solve two {method}", "cf", self.two_cf),
            ))
        for (path, (cf, _)), method in zip(self.multi.items(), ("crm", "map")):
            ops.append(Op(
                "cli_solve_multi",
                lambda path=path, method=method: self.cli("solve", path, "--method", method),
                lambda text, path=path, method=method, cf=cf: self.check_solve(
                    text, f"solve {Path(path).name} {method}", "cf_max_pairwise", cf
                ),
            ))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        CcBatch,
        TwoSubspaceCircum,
        TwoSubspaceBaseline,
        CliFiles,
    )
}
