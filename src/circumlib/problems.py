"""Problem generation and JSON file formats.

Random instances come from an explicitly specified xorshift64* stream,
whose raw words (Xorshift64Star._words) behind a seed are identical on
every platform; nothing here depends on numpy's generator state. The
generator's two draws are normal_vector and orthogonal. It keeps no
state but its position in the stream: a draw of k normals reads the
next 2 * ceil(k / 2) words, one Box-Muller pair per two words, and an
odd k drops its last sin. Each row of a random n x n frame is one such
draw, so every row starts on a pair; a frame of k columns reads every
word of its n rows, but Box-Muller and the QR see only each row's first
k columns. Words are drawn in batches that a GF(2) jump matrix splits
into lanes; the normals go through libm and the frame through LAPACK's
QR, so a generated instance is bit-identical on one installation, not
across platforms.

Files are JSON indented by two spaces, with each vector on one line and
floats written in shortest round-trip decimal form, which preserves
every bit on reload. Loading validates each vector once: the types of
its entries in one pass, then one numpy conversion per vector (per span
for a subspace) and one finiteness check. A failed check names the
first offending entry, such as points[2][1].
"""

from __future__ import annotations

import json
import math
import operator

import numpy as np

from .affine import AffineSubspace, from_span
from .linalg import as_points
from .solvers import Problem

# xorshift64* constants: shifts 12/25/27, multiplier from the reference
# implementation; seeds are scrambled once through a splitmix64 step so
# that small seeds do not produce correlated leading outputs.
_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT2 = 0x94D049BB133111EB


class ParseError(ValueError):
    """A points or problem file failed to parse or validate."""


def _advance(x: np.ndarray) -> np.ndarray:
    """One xorshift64 state transition of each uint64 word, in place."""
    x ^= x >> np.uint64(12)
    x ^= x << np.uint64(25)
    x ^= x >> np.uint64(27)
    return x


# The transition is linear over GF(2): a 64x64 bit matrix, stored as the
# images of the 64 unit words (its columns).
_STEP_COLUMNS = _advance(np.uint64(1) << np.arange(64, dtype=np.uint64))


def _gf2_apply(columns: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Images of the 64-bit words under the bit matrix with these columns.

    Applied to the columns of another matrix, it gives the columns of
    the product, so it also composes jumps.
    """
    bits = np.unpackbits(
        words.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    return np.bitwise_xor.reduce(np.where(bits == 1, columns, np.uint64(0)), axis=1)


def _jump(steps: int) -> np.ndarray:
    """Columns of the transition raised to the power steps >= 1, by squaring."""
    result = _STEP_COLUMNS
    for bit in bin(steps)[3:]:
        result = _gf2_apply(result, result)
        if bit == "1":
            result = _gf2_apply(_STEP_COLUMNS, result)
    return result


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Box-Muller normals of an even number of words, cos then sin per pair.

    The first word of a pair gives the radius, through 1 - u in (0, 1]
    so that log stays finite, and the second the angle. log, cos and sin
    go through math, one call per value, because numpy's vectorized
    kernels may differ from libm in the last bit and choose their code
    path from the CPU at run time.
    """
    u = (words >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), float))
    angle = (2.0 * math.pi * u[1::2]).tolist()
    z = np.empty((r.size, 2))
    z[:, 0] = r * np.fromiter(map(math.cos, angle), float)
    z[:, 1] = r * np.fromiter(map(math.sin, angle), float)
    return z.ravel()


class Xorshift64Star:
    """Deterministic 64-bit xorshift* generator.

    Each step of the state is x ^= x >> 12; x ^= x << 25; x ^= x >> 27
    (all mod 2^64), and _words outputs (x * 0x2545F4914F6CDD1D) mod 2^64.

    The generator keeps no state but its position in the stream, so a
    draw depends only on where it starts. A draw of k normals reads the
    next 2 * ceil(k / 2) words and maps each pair through Box-Muller,
    cos then sin; an odd k drops its last sin. Words are drawn in
    batches: the transition is linear over GF(2), so a jump matrix
    splits the next k states into about sqrt(k) lanes that numpy uint64
    arithmetic steps together, exactly.
    """

    def __init__(self, seed: int):
        s = (operator.index(seed) + _SPLITMIX_GAMMA) & _MASK64
        s = ((s ^ (s >> 30)) * _SPLITMIX_MULT1) & _MASK64
        s = ((s ^ (s >> 27)) * _SPLITMIX_MULT2) & _MASK64
        s ^= s >> 31
        self._state = s if s != 0 else _SPLITMIX_GAMMA

    def _words(self, k: int) -> np.ndarray:
        """The next k output words of the stream as a uint64 array, in order."""
        if k == 0:
            return np.empty(0, dtype=np.uint64)
        lanes = 1 << ((k - 1).bit_length() // 2)
        steps = -(-k // lanes)
        x = np.array([self._state], dtype=np.uint64)
        if lanes > 1:
            # lane i starts i * steps states ahead of the current one
            jump = _jump(steps)
            while x.size < lanes:
                x = np.concatenate([x, _gf2_apply(jump, x)])
                jump = _gf2_apply(jump, jump)
        states = np.empty((steps, lanes), dtype=np.uint64)
        for row in states:
            row[:] = _advance(x)
        states = states.T.ravel()[:k]
        self._state = int(states[-1])
        return states * np.uint64(_XORSHIFT_MULT)

    def normal_vector(self, n: int) -> np.ndarray:
        """The next n normals, from the next 2 * ceil(n / 2) words."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"cannot draw {n} normals")
        return _box_muller(self._words(n + n % 2))[:n]

    def orthogonal(self, n: int, k: int | None = None) -> np.ndarray:
        """The first k columns (all n when k is None) of a random n x n
        orthogonal matrix: the QR of an n x n normal matrix, signs fixed.

        Each row of the matrix is a draw of n normals, so it reads
        2 * ceil(n / 2) words and starts on a Box-Muller pair. Every row
        is read whole, so the stream moves as for k = n, but Box-Muller
        and the QR see only the first 2 * ceil(k / 2) words and the
        first k columns. Those columns' Q is the first k columns of the
        full QR's Q (Mezzadri, Notices AMS 2007) up to rounding; k = n
        gives the full QR's bits.
        """
        n = operator.index(n)
        k = n if k is None else operator.index(k)
        if not 0 <= k <= n:
            raise ValueError(f"cannot take {k} columns of an {n} x {n} matrix")
        words = self._words(n * (n + n % 2)).reshape(n, n + n % 2)
        M = _box_muller(words[:, : k + k % 2].ravel()).reshape(n, k + k % 2)
        Q, R = np.linalg.qr(M[:, :k])
        return Q * np.where(np.diag(R) >= 0.0, 1.0, -1.0)


def generate_two_subspace(
    n: int, dim_u: int, dim_v: int, target_cf: float, seed: int
) -> Problem:
    """Two linear subspaces with a planted Friedrichs angle.

    p = min(dim_u, dim_v) coordinate-plane pairs are rotated apart with
    cosines target_cf * (p - i) / p, so the largest principal-angle
    cosine is exactly target_cf (all angles 90 degrees when it is 0);
    leftover directions are mutually orthogonal. The whole frame is then
    mapped through the first dim_u + dim_v columns of a seeded random
    n x n orthogonal matrix: every word of that matrix's rows is drawn,
    but Box-Muller and the QR see only those columns. z is the next
    draw of n standard normals. The subspaces keep the mapped frame's
    rows as drawn, which are
    orthonormal already. The single-angle construction is avoided on
    purpose: the circumcentered iteration terminates finitely on it,
    which leaves no tail to estimate a rate from.
    """
    if dim_u < 1 or dim_v < 1:
        raise ValueError("subspace dimensions must be at least 1")
    if dim_u + dim_v > n:
        raise ValueError(
            f"dim_u + dim_v = {dim_u + dim_v} exceeds ambient dimension {n}"
        )
    if not 0.0 <= target_cf < 1.0:
        raise ValueError("target Friedrichs cosine must lie in [0, 1)")

    rng = Xorshift64Star(seed)
    Q = rng.orthogonal(n, dim_u + dim_v)
    p = min(dim_u, dim_v)
    c = target_cf * np.arange(p, 0, -1) / p
    s = np.sqrt(1.0 - c * c)
    e1, e2 = Q[:, 0 : 2 * p : 2].T, Q[:, 1 : 2 * p : 2].T
    rest = Q[:, 2 * p :].T
    u_dirs = np.vstack([e1, rest[: dim_u - p]])
    v_dirs = np.vstack([c[:, None] * e1 + s[:, None] * e2, rest[dim_u - p :]])

    zero = np.zeros(n)
    U = AffineSubspace(zero, u_dirs)
    V = AffineSubspace(zero, v_dirs)
    z = rng.normal_vector(n)
    return Problem([U, V], z)


# ---------------------------------------------------------------------------
# File formats


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


_NUMBER_TYPES = {int, float}


def _finite_number(x: int | float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond float range
        return False


def _vectors(rows: list[tuple[str, object]], n: int) -> np.ndarray:
    """The named vectors as one (len(rows), n) float array.

    Each (where, vector) must be a JSON array of n finite numbers: int
    or float, not bool. Each vector's entry types are checked at once,
    then all vectors are converted at once; numpy converts an int as
    float() does, so the bits equal a per-number conversion. The entries
    are scanned one by one only to name the first bad one.
    """
    for where, v in rows:
        _require(isinstance(v, list), f"{where} must be an array")
        _require(len(v) == n, f"{where} has length {len(v)}, expected {n}")
        if not set(map(type, v)) <= _NUMBER_TYPES:
            i = next(i for i, x in enumerate(v) if type(x) not in _NUMBER_TYPES)
            raise ParseError(f"{where}[{i}] is not a number")
    try:
        A = np.array([v for _, v in rows], dtype=float).reshape(len(rows), n)
        finite = np.isfinite(A).all()
    except OverflowError:
        finite = False
    if not finite:
        where, i = next(
            (where, i)
            for where, v in rows
            for i, x in enumerate(v)
            if not _finite_number(x)
        )
        raise ParseError(f"{where}[{i}] is not a finite number")
    return A


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    return doc


def _dim(path: str, doc: dict) -> int:
    """The positive integer 'dim' of a point-set or problem file."""
    _require("dim" in doc, f"{path}: missing field 'dim'")
    n = doc["dim"]
    _require(type(n) is int and n >= 1, f"{path}: 'dim' must be a positive integer")
    return n


def load_points(path: str) -> np.ndarray:
    """Read a point-set file {"dim": n, "points": [[...], ...]} as an (m, n) array."""
    doc = _load_json(path)
    n = _dim(path, doc)
    _require("points" in doc, f"{path}: missing field 'points'")
    _require(isinstance(doc["points"], list), f"{path}: 'points' must be an array")
    _require(len(doc["points"]) >= 1, f"{path}: 'points' is empty")
    rows = [(f"points[{i}]", p) for i, p in enumerate(doc["points"])]
    return _vectors(rows, n)


def _write_json(path: str, doc: dict) -> None:
    """Write doc indented by two spaces, each numpy vector on one line.

    Vectors go through json.dumps of a plain list, which uses the C
    encoder; json.dump with an indent falls back to the pure-Python one.
    """

    def fmt(obj, pad: str) -> str:
        if isinstance(obj, np.ndarray):
            return json.dumps(obj.tolist())
        inner = pad + "  "
        if isinstance(obj, dict):
            items = [f"{inner}{json.dumps(k)}: {fmt(v, inner)}" for k, v in obj.items()]
        elif isinstance(obj, list) and obj:
            items = [inner + fmt(v, inner) for v in obj]
        else:
            return json.dumps(obj)
        brackets = "{}" if isinstance(obj, dict) else "[]"
        return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]

    with open(path, "w") as fh:
        fh.write(fmt(doc, "") + "\n")


def save_points(path: str, points) -> None:
    """Write points as load_points reads them; ValueError for what it rejects."""
    P = as_points(points)
    if not P.size:
        raise ValueError("cannot save an empty point set or points of length 0")
    _write_json(path, {"dim": P.shape[1], "points": list(P)})


def load_problem(path: str) -> Problem:
    """Read and validate a problem file.

    {"dim": n, "subspaces": [{"base": [...], "span": [[...], ...]}, ...],
     "z": [...]} with optional "seed" and "description". Spans are
    orthonormalized on load; an intersection that `Problem` finds empty
    at DEFAULT_MEMBERSHIP_TOL is a validation error.
    """
    doc = _load_json(path)
    for key in ("dim", "subspaces", "z"):
        _require(key in doc, f"{path}: missing field '{key}'")
    n = _dim(path, doc)
    _require(isinstance(doc["subspaces"], list), f"{path}: 'subspaces' must be an array")
    _require(
        len(doc["subspaces"]) >= 2, f"{path}: need at least two subspaces"
    )
    subspaces = []
    for i, sub in enumerate(doc["subspaces"]):
        where = f"subspaces[{i}]"
        _require(isinstance(sub, dict), f"{path}: {where} must be an object")
        _require("base" in sub, f"{path}: {where} missing field 'base'")
        _require("span" in sub, f"{path}: {where} missing field 'span'")
        (base,) = _vectors([(f"{where}.base", sub["base"])], n)
        _require(isinstance(sub["span"], list), f"{path}: {where}.span must be an array")
        span = _vectors([(f"{where}.span[{j}]", v) for j, v in enumerate(sub["span"])], n)
        subspaces.append(from_span(base, span))
    (z,) = _vectors([("z", doc["z"])], n)
    try:
        return Problem(subspaces, z)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_problem(
    path: str,
    problem: Problem,
    seed: int | None = None,
    description: str | None = None,
) -> None:
    doc: dict = {"dim": problem.dim}
    if description is not None:
        doc["description"] = description
    if seed is not None:
        doc["seed"] = int(seed)
    doc["subspaces"] = [
        {"base": s.base, "span": list(s.onb)} for s in problem.subspaces
    ]
    doc["z"] = problem.z
    _write_json(path, doc)
