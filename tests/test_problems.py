"""Tests for the deterministic PRNG, problem generation, and file formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib import (
    AffineSubspace,
    ParseError,
    Problem,
    Xorshift64Star,
    friedrichs_cos,
    from_span,
    generate_two_subspace,
    load_points,
    load_problem,
    orthonormalize,
    save_points,
    save_problem,
)

MASK = (1 << 64) - 1


def ref_splitmix_state(seed):
    """Straight transcription of one splitmix64 step."""
    s = (seed + 0x9E3779B97F4A7C15) & MASK
    s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & MASK
    return s ^ (s >> 31)


def ref_stream(seed, k):
    """Straight transcription of the xorshift64* recurrence."""
    x = ref_splitmix_state(seed)
    out = []
    for _ in range(k):
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & MASK)
    return out


def ref_draws(seed, sizes):
    """Straight transcription of Box-Muller on ref_stream, one draw of k
    normals per size k: each draw reads the next 2 * ceil(k / 2) words,
    a pair gives cos, then sin, and an odd k drops its last sin."""
    words = iter(ref_stream(seed, sum(k + k % 2 for k in sizes)))
    draws = []
    for k in sizes:
        out = []
        for _ in range((k + 1) // 2):
            u1 = 1.0 - (next(words) >> 11) * 2.0**-53
            u2 = (next(words) >> 11) * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
        draws.append(out[:k])
    return draws


def ref_orthogonal(rows, k=None):
    """QR of the first k columns (all when None) of the matrix with the
    given rows, signs fixed. The rows of an n x n frame are n draws of
    n normals, so each reads 2 * ceil(n / 2) words."""
    Q, R = np.linalg.qr(np.array(rows)[:, :k])
    return Q * np.where(np.diag(R) >= 0.0, 1.0, -1.0)


# generator


def test_seed_scramble_known_values():
    # first two outputs of splitmix64 started at zero
    assert Xorshift64Star(0)._state == 0xE220A8397B1DCDAF
    assert Xorshift64Star(1)._state == 0x910A2DEC89025CC1


def test_stream_matches_reference():
    for seed in (0, 1, 42, 2**63, 123456789):
        g = Xorshift64Star(seed)
        assert [g.next_u64() for _ in range(100)] == ref_stream(seed, 100)


def test_stream_frozen_values():
    g = Xorshift64Star(0)
    assert [g.next_u64() for _ in range(4)] == [
        0x7BBCB40D550682D0,
        0xDE7FE413D00CC9FD,
        0xB3C638353C668C91,
        0xE073AFC0949195FC,
    ]


def test_determinism_and_seed_sensitivity():
    a = [Xorshift64Star(5).next_u64() for _ in range(10)]
    b = [Xorshift64Star(5).next_u64() for _ in range(10)]
    c = [Xorshift64Star(6).next_u64() for _ in range(10)]
    assert a == b
    assert a != c


def test_uniform_range_and_bits():
    g = Xorshift64Star(42)
    h = Xorshift64Star(42)
    for _ in range(1000):
        u = g.uniform()
        assert 0.0 <= u < 1.0
        assert u == (h.next_u64() >> 11) * 2.0**-53


def test_uniform_mean():
    g = Xorshift64Star(8)
    mean = np.mean([g.uniform() for _ in range(4000)])
    assert abs(mean - 0.5) <= 0.03


def test_normal_frozen_values():
    # each normal() is the cos of its own pair
    g = Xorshift64Star(7)
    got = [g.normal() for _ in range(4)]
    want = [
        -0.021430159234816677,
        -0.8828865059932086,
        -1.154285610841311,
        -0.7465239564927503,
    ]
    assert got == want
    assert want == [d[0] for d in ref_draws(7, [1] * 4)]


def test_normal_pairs_consume_two_words():
    g = Xorshift64Star(9)
    g.normal()
    g.normal()
    rest = g.next_u64()
    assert rest == ref_stream(9, 5)[4]


def test_normal_moments():
    g = Xorshift64Star(10)
    xs = np.array([g.normal() for _ in range(4000)])
    assert abs(xs.mean()) <= 0.06
    assert 0.95 <= xs.std() <= 1.05


def test_batch_words_match_reference():
    sizes = (0, 1, 2, 63, 64, 65, 1000, 40200)
    for seed in (0, 1, 42, 2**63, 123456789):
        ref = ref_stream(seed, max(sizes) + 1)
        for k in sizes:
            g = Xorshift64Star(seed)
            words = g._words(k)
            assert words.dtype == np.uint64
            assert words.tolist() == ref[:k]
            # the scalar stream continues where the batch stopped
            assert g.next_u64() == ref[k]


def test_normal_vector_matches_reference():
    # an odd size drops its last sin and leaves nothing pending: the
    # next draw starts on the next pair
    sizes = (3, 4, 1, 0, 6, 5, 1000, 1, 2, 7)
    for seed in (0, 7, 2**63):
        g = Xorshift64Star(seed)
        got = []
        for k in sizes:
            v = g.normal_vector(k)
            assert v.shape == (k,) and v.dtype == np.float64
            got.append(v.tolist())
        got.append([g.normal()])
        assert got == ref_draws(seed, [*sizes, 1])
        words = sum(k + k % 2 for k in sizes) + 2
        assert g.next_u64() == ref_stream(seed, words + 1)[words]


def test_orthogonal_matches_reference():
    for n in (1, 3, 5, 12):
        g = Xorshift64Star(13)
        draws = ref_draws(13, [n] * n + [4])
        assert np.array_equal(g.orthogonal(n), ref_orthogonal(draws[:n]))
        # an odd n reads a whole pair at the end of each row
        assert g.normal_vector(4).tolist() == draws[n]


def test_orthogonal_columns_match_the_full_frame():
    # k columns take the full QR's first k columns up to rounding, and
    # the stream moves as it does for k = n.
    for n in (5, 6, 7, 20, 21):
        for k in range(n + 1):
            full, part = Xorshift64Star(n), Xorshift64Star(n)
            Q = part.orthogonal(n, k)
            assert Q.shape == (n, k)
            assert np.abs(Q - full.orthogonal(n)[:, :k]).max(initial=0.0) <= 1e-14
            assert part.next_u64() == full.next_u64()
    with pytest.raises(ValueError):
        Xorshift64Star(1).orthogonal(3, 4)


def test_orthogonal_matrix():
    g = Xorshift64Star(11)
    for n in (1, 2, 5, 12):
        Q = g.orthogonal(n)
        assert Q.shape == (n, n)
        assert np.abs(Q @ Q.T - np.eye(n)).max() <= 1e-10
    a = Xorshift64Star(12).orthogonal(6)
    b = Xorshift64Star(12).orthogonal(6)
    assert np.array_equal(a, b)


# problem generation


def test_generate_two_lines_at_sixty_degrees():
    prob = generate_two_subspace(2, 1, 1, 0.5, seed=0)
    U, V = prob.subspaces
    assert abs(float(U.onb[0] @ V.onb[0])) == pytest.approx(0.5, abs=1e-12)
    assert friedrichs_cos(U, V) == pytest.approx(0.5, abs=1e-12)


def test_generate_orthogonal_case():
    prob = generate_two_subspace(10, 4, 4, 0.0, seed=2)
    U, V = prob.subspaces
    assert friedrichs_cos(U, V) <= 1e-9
    assert np.abs(U.onb @ V.onb.T).max() <= 1e-10


def test_generate_hits_target_cosine():
    grid = [
        (6, 2, 3, 0.3, 1),
        (12, 6, 6, 0.6, 4),
        (30, 5, 12, 0.95, 3),
        (50, 10, 10, 0.8, 7),
    ]
    for n, du, dv, cf, seed in grid:
        prob = generate_two_subspace(n, du, dv, cf, seed=seed)
        U, V = prob.subspaces
        assert U.dim == du and V.dim == dv
        assert abs(friedrichs_cos(U, V) - cf) <= 1e-8


def test_generate_intersection_is_origin():
    prob = generate_two_subspace(20, 7, 6, 0.7, seed=5)
    assert prob.intersection.dim == 0
    assert np.linalg.norm(prob.intersection.base) <= 1e-8
    assert np.linalg.norm(prob.solution) <= 1e-8


def test_generate_deterministic():
    a = generate_two_subspace(15, 4, 5, 0.4, seed=9)
    b = generate_two_subspace(15, 4, 5, 0.4, seed=9)
    assert np.array_equal(a.z, b.z)
    for sa, sb in zip(a.subspaces, b.subspaces):
        assert np.array_equal(sa.onb, sb.onb)
        assert np.array_equal(sa.base, sb.base)


def test_generate_matches_reference_construction():
    for n, d, cf, seed in ((7, 3, 0.6, 5), (21, 8, 0.5, 3), (200, 50, 0.8, 7)):
        draws = ref_draws(seed, [n] * (n + 1))
        Q = ref_orthogonal(draws[:n], 2 * d)
        u_dirs = [Q[:, 2 * i] for i in range(d)]
        v_dirs = []
        for i in range(d):
            c = cf * (d - i) / d
            v_dirs.append(c * Q[:, 2 * i] + math.sqrt(1.0 - c * c) * Q[:, 2 * i + 1])
        # The subspaces keep the frame's rows as drawn, bit for bit.
        zero = np.zeros(n)
        want = Problem(
            [AffineSubspace(zero, u_dirs), AffineSubspace(zero, v_dirs)],
            np.array(draws[n]),
        )
        got = generate_two_subspace(n, d, d, cf, seed)
        assert np.array_equal(got.z, want.z)
        assert np.array_equal(got.solution, want.solution)
        for a, b in zip(got.subspaces, want.subspaces):
            assert np.array_equal(a.onb, b.onb)


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate_two_subspace(5, 0, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_two_subspace(5, 3, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_two_subspace(5, 2, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_two_subspace(5, 2, 2, -0.1, seed=0)


# point files


def test_points_roundtrip_bits(tmp_path):
    pts = [
        np.array([1.0 / 3.0, 1e-300]),
        np.array([math.pi, -(2.0**-52)]),
        np.array([6.02214076e23, -0.0]),
    ]
    path = tmp_path / "pts.json"
    save_points(str(path), pts)
    back = load_points(str(path))
    assert isinstance(back, np.ndarray) and back.shape == (3, 2)
    for p, q in zip(pts, back):
        assert p.tobytes() == q.tobytes()


def test_points_roundtrip_square(tmp_path):
    pts = [np.array(p, dtype=float) for p in [[0, 0], [4, 0], [0, 4], [4, 4]]]
    path = tmp_path / "square.json"
    save_points(str(path), pts)
    back = load_points(str(path))
    for p, q in zip(pts, back):
        assert np.array_equal(p, q)


@pytest.mark.parametrize(
    "points, message",
    [
        ([[0, math.nan], [1, 2]], "non-finite"),
        ([[0, 1], [1, 2, 3]], "do not form an"),
        ([], "empty"),
    ],
    ids=["nan", "ragged", "empty"],
)
def test_save_points_rejects_what_load_points_rejects(tmp_path, points, message):
    path = tmp_path / "pts.json"
    with pytest.raises(ValueError, match=message):
        save_points(str(path), points)
    assert not path.exists()


def test_points_missing_dim(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": [[1, 2]]}\n')
    with pytest.raises(ParseError, match="dim"):
        load_points(str(path))


def test_points_dim_wrong_type(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": "2", "points": [[1, 2]]}\n')
    with pytest.raises(ParseError, match="dim"):
        load_points(str(path))


def test_points_length_mismatch_names_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "points": [[1, 2], [1, 2, 3]]}\n')
    with pytest.raises(ParseError, match=r"points\[1\].*length 3.*expected 2"):
        load_points(str(path))


def test_points_non_number_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "points": [[1, "x"]]}\n')
    with pytest.raises(ParseError, match=r"points\[0\]\[1\]"):
        load_points(str(path))


def test_points_empty_set_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "points": []}\n')
    with pytest.raises(ParseError, match="empty"):
        load_points(str(path))


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,,}\n')
    with pytest.raises(ParseError, match="line 1 column"):
        load_points(str(path))


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_points(str(tmp_path / "nope.json"))


# problem files


def test_problem_roundtrip_values(tmp_path):
    prob = generate_two_subspace(8, 3, 2, 0.7, seed=21)
    path = tmp_path / "p.json"
    save_problem(str(path), prob, seed=21, description="generated instance")
    doc = json.loads(path.read_text())
    assert doc["dim"] == 8
    assert doc["seed"] == 21
    assert doc["description"] == "generated instance"
    assert np.array(doc["z"]).tobytes() == prob.z.tobytes()
    for sub, orig in zip(doc["subspaces"], prob.subspaces):
        assert np.array(sub["base"]).tobytes() == orig.base.tobytes()
        assert np.array(sub["span"]).tobytes() == orig.onb.tobytes()

    back = load_problem(str(path))
    assert back.dim == prob.dim
    assert np.array_equal(back.z, prob.z)
    for sa, sb in zip(back.subspaces, prob.subspaces):
        assert sa.dim == sb.dim
        # loaded spans are re-orthonormalized, so compare the spaces
        assert np.abs(sa.onb @ sa.onb.T - np.eye(sa.dim)).max() <= 1e-12
        proj = sb.onb.T @ (sb.onb @ sa.onb.T)
        assert np.abs(proj - sa.onb.T).max() <= 1e-10


def test_problem_roundtrip_without_seed_or_description(tmp_path):
    # The default call writes neither optional key. The file holds every
    # vector bit for bit; load re-orthonormalizes each basis, which moves
    # its entries by an ulp or so, and gives z, the bases and the
    # solution back bit for bit.
    prob = generate_two_subspace(8, 3, 2, 0.7, seed=21)
    path = tmp_path / "p.json"
    save_problem(str(path), prob)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["dim", "subspaces", "z"]
    for sub, orig in zip(doc["subspaces"], prob.subspaces):
        assert np.array(sub["span"]).tobytes() == orig.onb.tobytes()
    back = load_problem(str(path))
    assert back.z.tobytes() == prob.z.tobytes()
    assert back.solution.tobytes() == prob.solution.tobytes()
    for sa, sb in zip(back.subspaces, prob.subspaces):
        assert sa.base.tobytes() == sb.base.tobytes()
        assert np.abs(sa.onb - sb.onb).max() <= 4 * np.finfo(float).eps


def test_files_put_each_vector_on_one_line(tmp_path):
    prob = generate_two_subspace(9, 3, 4, 0.5, seed=3)
    path = tmp_path / "p.json"
    save_problem(str(path), prob, seed=3)
    lines = [line.strip().rstrip(",") for line in path.read_text().splitlines()]
    vectors = [prob.z] + [v for s in prob.subspaces for v in (s.base, *s.onb)]
    for v in vectors:
        assert any(line.endswith(json.dumps(v.tolist())) for line in lines)
    # braces, brackets and the scalar fields take one line each
    assert len(lines) == len(vectors) + 14

    doc = json.loads(path.read_text())
    assert np.array(doc["z"]).tobytes() == prob.z.tobytes()
    for sub, orig in zip(doc["subspaces"], prob.subspaces):
        assert np.array(sub["base"]).tobytes() == orig.base.tobytes()
        assert np.array(sub["span"]).tobytes() == orig.onb.tobytes()
    back = load_problem(str(path))
    assert back.z.tobytes() == prob.z.tobytes()
    for a, b in zip(back.subspaces, prob.subspaces):
        assert a.base.tobytes() == b.base.tobytes()

    pts = [np.array([1.0 / 3.0, -0.0]), np.array([1e-300, 2.0])]
    save_points(str(path), pts)
    assert path.read_text() == (
        '{\n  "dim": 2,\n  "points": [\n'
        "    [0.3333333333333333, -0.0],\n    [1e-300, 2.0]\n  ]\n}\n"
    )


def test_problem_missing_field(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"dim": 2, "z": [0, 0]}\n')
    with pytest.raises(ParseError, match="subspaces"):
        load_problem(str(path))


def test_problem_span_entry_named(tmp_path):
    path = tmp_path / "p.json"
    doc = {
        "dim": 2,
        "subspaces": [
            {"base": [0, 0], "span": [[1, 0]]},
            {"base": [0, 0], "span": [[1, "y"]]},
        ],
        "z": [1, 1],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"subspaces\[1\]\.span\[0\]\[1\]"):
        load_problem(str(path))


def test_problem_empty_intersection_rejected(tmp_path):
    path = tmp_path / "p.json"
    doc = {
        "dim": 2,
        "subspaces": [
            {"base": [0, 0], "span": [[1, 0]]},
            {"base": [0, 1], "span": [[1, 0]]},
        ],
        "z": [1, 1],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="share no point"):
        load_problem(str(path))


def test_problem_file_loads_to_working_instance(tmp_path):
    doc = {
        "dim": 2,
        "subspaces": [
            {"base": [0, 0], "span": [[1, 0]]},
            {"base": [0, 0], "span": [[1, 1]]},
        ],
        "z": [2.0, 0.5],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(str(path))
    assert isinstance(prob, Problem)
    assert prob.num_sets == 2
    assert np.allclose(prob.solution, [0, 0], atol=1e-9)


def test_problem_empty_span_is_a_point(tmp_path):
    doc = {
        "dim": 3,
        "subspaces": [
            {"base": [1, 2, 3], "span": []},
            {"base": [0, 0, 0], "span": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        ],
        "z": [0, 0, 0],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(str(path))
    point = prob.subspaces[0]
    assert point.dim == 0 and point.onb.shape == (0, 3)
    assert np.array_equal(point.base, [1.0, 2.0, 3.0])
    assert np.array_equal(prob.solution, [1.0, 2.0, 3.0])


# loaders against a per-number reference


def ref_vector(row):
    """Straight transcription of a per-number load."""
    return np.array([float(v) for v in row])


def ref_problem(doc):
    """The problem of a document, every vector converted by ref_vector."""
    subspaces = [
        from_span(ref_vector(s["base"]), [ref_vector(v) for v in s["span"]])
        for s in doc["subspaces"]
    ]
    return Problem(subspaces, ref_vector(doc["z"]))


def assert_same_problem(got, want):
    assert np.array_equal(got.z, want.z)
    assert np.array_equal(got.solution, want.solution)
    for a, b in zip(got.subspaces, want.subspaces, strict=True):
        assert np.array_equal(a.base, b.base)
        assert np.array_equal(a.onb, b.onb)


# Ints up to 2**1023 (2**1024 is beyond float range), ints around
# 2**64, any finite float, and -0.0, subnormals and 2**53 + 1.
finite_numbers = st.one_of(
    st.integers(-(2**1023), 2**1023),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 2**53 + 1]),
)


def number_rows():
    """1 to 5 rows of one length, 1 to 6."""
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(finite_numbers, min_size=n, max_size=n), min_size=1, max_size=5
        )
    )


# Rows near the float limit load, and span a subspace, without a numpy
# warning; the loaded rows must still match.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(number_rows())
def test_loaded_numbers_match_per_number_conversion(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("prop") / "pts.json"
    n = len(rows[0])
    path.write_text(json.dumps({"dim": n, "points": rows}))
    got = load_points(str(path))
    assert len(got) == len(rows)
    for p, row in zip(got, rows):
        assert p.dtype == np.float64 and p.shape == (n,)
        assert p.tobytes() == ref_vector(row).tobytes()
    # A point on a subspace through it: the problem holds whatever the rows.
    doc = {
        "dim": n,
        "subspaces": [
            {"base": rows[0], "span": []},
            {"base": rows[0], "span": rows},
        ],
        "z": rows[-1],
    }
    path.write_text(json.dumps(doc))
    prob = load_problem(str(path))
    assert prob.z.tobytes() == ref_vector(rows[-1]).tobytes()
    for U in prob.subspaces:
        assert U.base.tobytes() == ref_vector(rows[0]).tobytes()
    want = orthonormalize([ref_vector(row) for row in rows])
    assert np.array_equal(prob.subspaces[1].onb, want)


NOT_NUMBERS = [True, False, "1", None, [1.0], {"x": 1}]


def test_non_number_named_by_index(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "bad.json"
    for bad in NOT_NUMBERS:
        m, n = (int(k) for k in rng.integers(1, 6, size=2))
        i, j = int(rng.integers(m)), int(rng.integers(n))
        rows = rng.normal(size=(m, n)).tolist()
        rows[i][j] = bad
        path.write_text(json.dumps({"dim": n, "points": rows}))
        with pytest.raises(ParseError, match=rf"^points\[{i}\]\[{j}\] is not a number$"):
            load_points(str(path))
        good = rng.normal(size=n).tolist()
        doc = {
            "dim": n,
            "subspaces": [{"base": good, "span": rows}, {"base": good, "span": []}],
            "z": good,
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ParseError, match=rf"^subspaces\[0\]\.span\[{i}\]\[{j}\] is not a number$"
        ):
            load_problem(str(path))


# "1" followed by 400 zeros is a JSON integer beyond float range.
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]
NON_FINITE_IDS = ["nan", "inf", "-inf", "1e400", "int400"]


def points_text(entry):
    return '{"dim": 2, "points": [[0, 0], [1, 0], [0, %s]]}' % entry


def problem_text(base="0", span="1", z="1"):
    return (
        '{"dim": 2, "subspaces": [{"base": [0, %s], "span": [[1, %s]]},'
        ' {"base": [0, 0], "span": [[1, 1]]}], "z": [2, %s]}' % (base, span, z)
    )


@pytest.mark.parametrize("entry", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_number_named(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(points_text(entry))
    with pytest.raises(ParseError, match=r"^points\[2\]\[1\] is not a finite number$"):
        load_points(str(path))
    for field, where in (
        ("base", r"subspaces\[0\]\.base\[1\]"),
        ("span", r"subspaces\[0\]\.span\[0\]\[1\]"),
        ("z", r"z\[1\]"),
    ):
        path.write_text(problem_text(**{field: entry}))
        with pytest.raises(ParseError, match=rf"^{where} is not a finite number$"):
            load_problem(str(path))


def test_boolean_dim_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": true, "points": [[1], [3]]}')
    with pytest.raises(ParseError, match="'dim' must be a positive integer"):
        load_points(str(path))
    doc = {
        "dim": True,
        "subspaces": [{"base": [0], "span": [[1]]}, {"base": [0], "span": []}],
        "z": [1],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="'dim' must be a positive integer"):
        load_problem(str(path))


def planted_multi_doc(rng, n, m, w, d):
    """m affine subspaces of R^n sharing c + span(W), W of dimension w,
    each with d further random directions, spans in a mixed basis."""
    c = rng.normal(size=n)
    W = np.linalg.qr(rng.normal(size=(n, w)))[0].T
    subspaces = []
    for _ in range(m):
        extra = rng.normal(size=(d, n))
        extra -= (extra @ W.T) @ W
        dirs = np.vstack([W, extra])
        mix = rng.normal(size=(w + d, w + d)) + 3.0 * np.eye(w + d)
        base = c + rng.normal(size=w + d) @ dirs
        subspaces.append({"base": base.tolist(), "span": (mix @ dirs).tolist()})
    return {"dim": n, "subspaces": subspaces, "z": (c + 3.0 * rng.normal(size=n)).tolist()}


def test_files_load_as_per_number_reference(tmp_path):
    gen = tmp_path / "gen.json"
    save_problem(str(gen), generate_two_subspace(40, 10, 10, 0.8, seed=3), seed=3)
    multi = tmp_path / "multi.json"
    multi.write_text(json.dumps(planted_multi_doc(np.random.default_rng(4), 60, 4, 4, 10)))
    for path in (gen, multi):
        want = ref_problem(json.loads(path.read_text()))
        assert_same_problem(load_problem(str(path)), want)
