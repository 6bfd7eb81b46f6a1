import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandtile import simplicial
from bandtile.simplicial import (
    CollisionWitness,
    Complex,
    SimplicialMap,
    crossing_pair,
    is_embedding,
    perturb_to_embedding,
    random_map,
    triangulated_strip,
    verify_witness,
)


PROPERTY = settings(derandomize=True, deadline=None, database=None)


def crossing_edges():
    c = Complex.from_maximal([("a", "b"), ("c", "d")])
    return SimplicialMap(c, {"a": (0.0, 0.0), "b": (1.0, 1.0),
                             "c": (1.0, 0.0), "d": (0.0, 1.0)})


def test_crossing_edges_exact_witness():
    """The diagonals of the unit square meet only at (1/2, 1/2); the
    exact solver returns that point with dyadic barycentrics."""
    ok, w = is_embedding(crossing_edges())
    assert not ok
    assert w.point == (0.5, 0.5)
    assert w.bary_a == (0.5, 0.5)
    assert w.bary_b == (0.5, 0.5)
    assert verify_witness(crossing_edges(), w)


def test_edge_with_distinct_images_embeds():
    c = Complex.from_maximal([("a", "b")])
    m = SimplicialMap(c, {"a": (0.0, 0.0), "b": (1.0, 2.0)})
    ok, w = is_embedding(m)
    assert ok and w is None


def test_equal_vertex_images_collide():
    c = Complex.from_maximal([("a", "b"), ("b", "c")])
    m = SimplicialMap(c, {"a": (0.0,), "b": (1.0,), "c": (0.0,)})
    ok, w = is_embedding(m)
    assert not ok
    assert verify_witness(m, w)


def test_collinear_chain_embeds():
    c = Complex.from_maximal([("a", "b"), ("b", "c")])
    m = SimplicialMap(c, {"a": (0.0,), "b": (1.0,), "c": (2.0,)})
    ok, _ = is_embedding(m)
    assert ok


def test_glued_triangles_embed_but_folding_collides():
    c = Complex.from_maximal([(0, 1, 2), (1, 2, 3)])
    flat = SimplicialMap(c, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0),
                             3: (1.0, 1.0)})
    ok, _ = is_embedding(flat)
    assert ok
    folded = SimplicialMap(c, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0),
                               3: (-0.5, 0.5)})
    ok2, w = is_embedding(folded)
    assert not ok2
    assert verify_witness(folded, w)


def test_verify_witness_rejects_tampering():
    m = crossing_edges()
    _, w = is_embedding(m)
    wrong_bary = CollisionWitness(w.simplex_a, w.simplex_b, (1.0, 0.0),
                                  w.bary_b, w.point)
    assert not verify_witness(m, wrong_bary)
    same_point = CollisionWitness(w.simplex_a, w.simplex_a, w.bary_a,
                                  w.bary_a, w.point)
    assert not verify_witness(m, same_point)


def two_edges():
    """An embedding: the edges ab and cd are opposite sides of the square."""
    c = Complex.from_maximal([("a", "b"), ("c", "d")])
    return SimplicialMap(c, {"a": (0.0, 0.0), "b": (0.0, 1.0),
                             "c": (1.0, 1.0), "d": (1.0, 0.0)})


def nan_witness():
    m = crossing_edges()
    _, w = is_embedding(m)
    return m, CollisionWitness(w.simplex_a, w.simplex_b, (math.nan, math.nan),
                               w.bary_b, w.point)


@pytest.mark.parametrize("case", [
    # the diagonals ac and bd cross at (1/2, 1/2), but they are no simplices
    lambda: (two_edges(), CollisionWitness(("a", "c"), ("b", "d"), (0.5, 0.5),
                                           (0.5, 0.5), (0.5, 0.5))),
    # a NaN point would pass the distance bound, since nan > bound is false
    nan_witness,
    # ("a", "a") at (1/2, 1/2) is the vertex a, read as a point apart from a
    lambda: (two_edges(), CollisionWitness(("a", "a"), ("a", "b"), (0.5, 0.5),
                                           (1.0, 0.0), (0.0, 0.0))),
], ids=["not-a-simplex", "nan-barycentric", "repeated-vertex"])
def test_verify_witness_raises_on_a_witness_outside_the_complex(case):
    assert is_embedding(two_edges()) == (True, None)
    m, w = case()
    with pytest.raises(ValueError):
        verify_witness(m, w)


def test_verify_witness_reads_coordinates_in_the_witness_order():
    # eval and the distinctness test must pair the same coordinate with each
    # vertex: read in sorted vertex order, both sides would map to vertex 0
    # while the distinctness test sees vertex 1 against vertex 0
    m = SimplicialMap(Complex.from_maximal([(0, 1)]), {0: (0.0,), 1: (1.0,)})
    assert is_embedding(m)[0]
    w = CollisionWitness((1, 0), (0, 1), (1.0, 0.0), (1.0, 0.0), (0.0,))
    assert not verify_witness(m, w)
    assert m.eval((1, 0), (0.25, 0.75)).tolist() == [0.25]


@pytest.mark.parametrize("simplex, bary, message", [
    (("a", "b"), (1.0,), "barycentric length mismatch"),
    (("a", "b"), (1.5, -0.5), "not a barycentric point"),
    (("a", "b"), (1.0 + 2e-9, -2e-9), "not a barycentric point"),
    (("a", "b"), (0.5, 0.5 + 2e-9), "not a barycentric point"),
    (("a", "b"), (0.5, 0.25), "not a barycentric point"),
    (("a", "b"), (math.nan, 1.0), "not a barycentric point"),
    (("a", "b"), (math.nan, math.nan), "not a barycentric point"),
    (("a", "b"), (math.inf, 0.0), "not a barycentric point"),
    (("a", "b"), (-math.inf, math.inf), "not a barycentric point"),
    (("a", "c"), (0.5, 0.5), "is not a simplex of the complex"),
    (("a", "b", "c"), (0.2, 0.3, 0.5), "is not a simplex of the complex"),
    (("a", "a"), (0.5, 0.5), "is not a simplex of the complex"),
    (("a", "z"), (0.5, 0.5), "is not a simplex of the complex"),
], ids=["length", "below-snap", "just-below-snap", "sum-just-off-one",
        "sum-off-one", "nan", "all-nan", "inf", "both-infs", "non-simplex",
        "too-wide", "repeated-vertex", "unknown-vertex"])
def test_eval_rejects_what_is_not_a_barycentric_point_of_a_simplex(
        simplex, bary, message):
    with pytest.raises(ValueError, match=message):
        two_edges().eval(simplex, bary)


def test_eval_takes_coordinates_within_snap():
    got = two_edges().eval(("a", "b"), (1.0 + 1e-9, -1e-9))
    assert got.tolist() == [0.0, -1e-9]


@pytest.mark.parametrize("D", [2, 3, 4])
def test_crossing_pair_counterexamples(D):
    m = crossing_pair(D)
    ok, w = is_embedding(m)
    assert not ok
    assert {tuple(w.simplex_a), tuple(w.simplex_b)} <= {(0, 1, 2), (3, 4, 5)}
    assert verify_witness(m, w)


@settings(PROPERTY, max_examples=200)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_maximal_simplices_match_pairwise_scan(tops):
    c = Complex.from_maximal(tops)
    maxs = [s for s in c.simplices if not any(s < t for t in c.simplices)]
    want = sorted((tuple(sorted(s, key=c.vertices.index)) for s in maxs),
                  key=lambda s: [c.vertices.index(v) for v in s])
    assert c.maximal_simplices() == tuple(want)


def test_triangulated_strip_shape():
    strip = triangulated_strip(20)
    tops = strip.maximal_simplices()
    assert strip.dim == 2
    assert len(tops) == 20
    assert all(len(s) == 3 for s in tops)
    assert len(strip.vertices) == 22


@pytest.mark.parametrize("n", [2.5, True, 0, "3"])
def test_triangulated_strip_rejects_a_non_integer_count(n):
    # 2.5 used to raise TypeError from inside range()
    with pytest.raises(ValueError, match="integer number of triangles"):
        triangulated_strip(n)


@pytest.mark.parametrize("D", [2.5, True, 0, "3"])
def test_random_map_rejects_a_non_integer_dimension(D):
    with pytest.raises(ValueError, match="D must be an integer >= 1"):
        random_map(triangulated_strip(2), D, np.random.default_rng(0))


@pytest.mark.parametrize("D", [2.5, True, 1, "3"])
def test_crossing_pair_rejects_a_non_integer_dimension(D):
    with pytest.raises(ValueError, match="D must be an integer >= 2"):
        crossing_pair(D)


def test_random_strip_maps_embed_generically():
    rng = np.random.default_rng(7)
    strip = triangulated_strip(20)
    passed = 0
    for _ in range(25):
        ok, _ = is_embedding(random_map(strip, 5, rng))
        passed += ok
    assert passed == 25


def test_perturb_fixes_crossing_pair():
    bad = crossing_pair(5)
    fixed = perturb_to_embedding(bad, magnitude=0.25, rng_seed=3)
    ok, _ = is_embedding(fixed)
    assert ok
    drift = max(abs(a - b) for v in bad.complex.vertices
                for a, b in zip(bad.images[v], fixed.images[v]))
    assert drift <= 0.25


def test_perturb_keeps_existing_embedding():
    c = Complex.from_maximal([("a", "b"), ("b", "c")])
    m = SimplicialMap(c, {"a": (0.0, 0.0, 0.0), "b": (1.0, 0.0, 0.0),
                          "c": (2.0, 0.0, 0.0)})
    assert perturb_to_embedding(m, magnitude=0.1, rng_seed=0) is m


def test_perturb_at_magnitude_zero_checks_the_map_once(monkeypatch):
    # every candidate c + 0 * g equals the map, so one check decides
    calls = []
    plain = simplicial.is_embedding

    def counted(m):
        calls.append(m)
        return plain(m)

    monkeypatch.setattr(simplicial, "is_embedding", counted)
    with pytest.raises(RuntimeError, match="within 32 perturbations of "
                                           "magnitude 0.0"):
        perturb_to_embedding(crossing_pair(5), magnitude=0.0, rng_seed=0)
    assert len(calls) == 1


def test_perturb_rejects_low_dimension_target():
    with pytest.raises(ValueError):
        perturb_to_embedding(crossing_pair(4), magnitude=0.1, rng_seed=0)


@pytest.mark.parametrize("magnitude", [True, 10 ** 400, math.nan, -0.5,
                                       "0.25", None],
                         ids=["bool", "huge", "nan", "negative", "str",
                              "none"])
def test_perturb_rejects_a_magnitude_that_is_not_a_finite_real(magnitude):
    # True ran as 1.0, and 10**400 raised OverflowError
    with pytest.raises(ValueError, match="magnitude must be finite"):
        perturb_to_embedding(crossing_pair(5), magnitude, 0)


@pytest.mark.parametrize("seed", [1.5, 2.0, -1, True, "3", None])
def test_perturb_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # 1.5 raised numpy's TypeError
    with pytest.raises(ValueError, match="rng_seed must be an integer"):
        perturb_to_embedding(crossing_pair(5), 0.25, seed)


def test_collapse_map_on_an_edge_gets_fixed():
    c = Complex.from_maximal([(0, 1)])
    squashed = SimplicialMap(c, {0: (0.0, 0.0, 0.0), 1: (0.0, 0.0, 0.0)})
    fixed = perturb_to_embedding(squashed, magnitude=0.5, rng_seed=1)
    ok, _ = is_embedding(fixed)
    assert ok


def test_json_round_trips():
    m = crossing_edges()
    assert SimplicialMap.from_json(m.to_json()) == m
    strip = triangulated_strip(6)
    assert Complex.from_json(strip.to_json()) == strip


PATH_3 = {"vertices": [0, 1, 2], "simplices": [[0], [1], [2], [0, 1], [1, 2]]}


@pytest.mark.parametrize("label", [True, False, 1.5, 2.0, None, {"a": 0},
                                   ["a", True]])
def test_complex_from_json_takes_int_str_and_list_labels_only(label):
    # True == 1 == 1.0, so such labels would collide with an int label
    rule = "is not an int, a str or a list"
    with pytest.raises(ValueError, match=rule):
        Complex.from_json({"vertices": [label, 2],
                           "simplices": [[label], [2], [label, 2]]})
    with pytest.raises(ValueError, match=rule):
        Complex.from_json({"vertices": [0, 2],
                           "simplices": [[0], [2], [label, 2]]})
    listed = {"vertices": [["a", 0], "b", 3],
              "simplices": [[["a", 0]], ["b"], [3], [["a", 0], 3]]}
    assert Complex.from_json(listed).vertices == (("a", 0), "b", 3)


@pytest.mark.parametrize("images", [
    [[0, 0], [1, 0], [2, 0], [9, 9]],
    [[0, 0], [1, 0]],
])
def test_map_from_json_rejects_an_image_count_off_the_vertex_count(images):
    # zip would drop the surplus image silently
    with pytest.raises(ValueError, match=f"{len(images)} images for 3"):
        SimplicialMap.from_json({**PATH_3, "images": images})


@pytest.mark.parametrize("coord", ["0.5", True, False, None, [0.5],
                                   np.bool_(True), 1 + 0j])
def test_map_rejects_a_coordinate_that_is_not_a_real_number(coord):
    images = [[coord, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(ValueError, match="is not a number"):
        SimplicialMap.from_json({**PATH_3, "images": images})
    with pytest.raises(ValueError, match="is not a number"):
        SimplicialMap(Complex.from_json(PATH_3),
                      dict(zip(range(3), images)))


def test_map_takes_numpy_and_integer_coordinates_as_floats():
    images = {0: (np.float64(0.5), np.int64(1)), 1: (1, 0.0), 2: (2, -0.0)}
    m = SimplicialMap(Complex.from_json(PATH_3), images)
    assert m.images == {0: (0.5, 1.0), 1: (1.0, 0.0), 2: (2.0, -0.0)}
    assert all(type(c) is float for img in m.images.values() for c in img)


# Reference solver: reduced row echelon form over Fractions, the exact
# rational arithmetic the integer elimination in the package replaced.
def _rref_ref(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def _key_points(keys):
    """The solver's vertex keys (den, n_1, ..., n_k) as Fraction tuples,
    in the solver's order."""
    return [tuple(Fraction(n, key[0]) for n in key[1:]) for key in keys]


def _polytope_vertices_ref(A, b):
    k = len(A[0])
    aug = [row[:] + [rhs] for row, rhs in zip(A, b)]
    pivots = _rref_ref(aug)
    if k in pivots:
        return []
    rows = [row for row in aug if any(x != 0 for x in row)]
    rank = len(rows)
    if rank == k:
        z = [Fraction(0)] * k
        for row, col in zip(rows, pivots):
            z[col] = row[k]
        return [tuple(z)] if all(x >= 0 for x in z) else []
    R = [row[:k] for row in rows]
    c = [row[k] for row in rows]
    found = set()
    for basis in itertools.combinations(range(k), rank):
        sub = [[R[i][j] for j in basis] + [c[i]] for i in range(rank)]
        piv = _rref_ref(sub)
        if len(piv) != rank or rank in piv:
            continue
        z = [Fraction(0)] * k
        singular = False
        for row, col in zip(sub, piv):
            if col >= rank:
                singular = True
                break
            z[basis[col]] = row[rank]
        if singular or any(x < 0 for x in z):
            continue
        found.add(tuple(z))
    return sorted(found)


def _pair_system_ref(va, vb, exact, D):
    na, nb = len(va), len(vb)
    A = [[Fraction(1)] * na + [Fraction(0)] * nb,
         [Fraction(0)] * na + [Fraction(1)] * nb]
    b = [Fraction(1), Fraction(1)]
    for d in range(D):
        A.append([exact[v][d] for v in va] + [-exact[u][d] for u in vb])
        b.append(Fraction(0))
    return A, b


def _exact_images(m):
    return {v: tuple(Fraction(c) for c in img) for v, img in m.images.items()}


def is_embedding_ref(m):
    """The package's is_embedding with the pair systems solved over
    Fractions: same pair order, bounding-box test and witness choice."""
    maxs = m.complex.maximal_simplices()
    exact = _exact_images(m)
    D = m.dim_target
    boxes = []
    for s in maxs:
        pts = [m.images[v] for v in s]
        boxes.append(([min(p[d] for p in pts) for d in range(D)],
                      [max(p[d] for p in pts) for d in range(D)]))
    for i in range(len(maxs)):
        for j in range(i, len(maxs)):
            lo_i, hi_i = boxes[i]
            lo_j, hi_j = boxes[j]
            if any(hi_i[d] < lo_j[d] or hi_j[d] < lo_i[d]
                   for d in range(D)):
                continue
            va, vb = maxs[i], maxs[j]
            shared = set(va) & set(vb)
            for z in _polytope_vertices_ref(*_pair_system_ref(va, vb, exact,
                                                              D)):
                x, y = z[:len(va)], z[len(va):]
                if simplicial._same_point(va, vb, x, y, shared):
                    continue
                pt = [sum(exact[v][d] * c for v, c in zip(va, x))
                      for d in range(D)]
                return False, CollisionWitness(
                    simplex_a=va, simplex_b=vb,
                    bary_a=tuple(float(c) for c in x),
                    bary_b=tuple(float(c) for c in y),
                    point=tuple(float(c) for c in pt))
    return True, None


def assert_matches_reference(m):
    """Verdict and witness JSON of is_embedding equal the reference's."""
    got, want = is_embedding(m), is_embedding_ref(m)
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert json.dumps(got[1].to_json()) == json.dumps(want[1].to_json())
    return got


DYADIC = st.integers(0, 2 ** 20).map(lambda g: g / 2 ** 20)
SMALL = st.integers(-2, 2).map(float)  # forces coincident and flat images


def _prefix_pivots(pivots):
    """The pivots before the first column without one."""
    return [p for i, p in itertools.takewhile(lambda ip: ip[0] == ip[1],
                                              enumerate(pivots))]


@st.composite
def integer_matrices(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])  # many rank drops
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(PROPERTY, max_examples=400)
@given(integer_matrices())
def test_forward_and_back_give_det_times_rref(rows):
    ref = [[Fraction(x) for x in row] for row in rows]
    want = _rref_ref(ref)
    got = [row[:] for row in rows]
    pivots, det = simplicial._forward(got)
    assert pivots == want
    simplicial._back(got, pivots, det)
    for row, rrow in zip(got, ref[:len(pivots)]):
        assert row == [det * x for x in rrow]
    assert all(x == 0 for row in got[len(pivots):] for x in row)
    short = [row[:] for row in rows]
    assert (simplicial._forward(short, through_gaps=False)[0]
            == _prefix_pivots(want))


@st.composite
def small_maps(draw):
    """Edges, triangles or a strip: 1-6 maximal simplices into R^1..R^6,
    with coordinates on the dyadic 2^-20 grid or on {-2, ..., 2}."""
    kind = draw(st.sampled_from(["edges", "triangles", "strip"]))
    if kind == "strip":
        comp = triangulated_strip(draw(st.integers(1, 6)))
    else:
        size = 2 if kind == "edges" else 3
        nv = draw(st.integers(size, 6))
        tops = draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=size,
                                     max_size=size), min_size=1, max_size=6))
        comp = Complex.from_maximal(tops)
    D = draw(st.integers(1, 6))
    coord = draw(st.sampled_from([DYADIC, SMALL]))
    images = {v: tuple(draw(coord) for _ in range(D)) for v in comp.vertices}
    return SimplicialMap(comp, images)


@settings(PROPERTY, max_examples=300)
@given(small_maps())
def test_is_embedding_matches_fraction_reference(m):
    assert_matches_reference(m)


def _corpus_map(kind, arg):
    if kind == "crossing":
        return crossing_pair(arg)
    if kind == "perturbed":
        return perturb_to_embedding(crossing_pair(5), 0.25, arg)
    if kind == "collapsed":
        edge = SimplicialMap(Complex.from_maximal([(0, 1)]),
                             {0: (0.0,) * 3, 1: (0.0,) * 3})
        return perturb_to_embedding(edge, 0.5, arg)
    n, D = arg  # a strip map like the embed-check benchmark's
    return random_map(triangulated_strip(n), D, np.random.default_rng(n))


@pytest.mark.parametrize("kind, arg", [
    *(("crossing", D) for D in (2, 3, 4, 5)),
    *(("perturbed", seed) for seed in range(3)),
    ("collapsed", 1),
    *(("strip", nD) for nD in ((8, 5), (9, 6), (10, 3))),
])
def test_polytope_vertices_match_reference_pair_by_pair(kind, arg):
    """Every pair of maximal simplices, bounding-box test or not, has the
    vertex set of the Fraction reference."""
    m = _corpus_map(kind, arg)
    maxs = m.complex.maximal_simplices()
    ints, _ = simplicial._scaled_images(m)
    exact = _exact_images(m)
    D = m.dim_target
    for va, vb in itertools.combinations_with_replacement(maxs, 2):
        got = simplicial._polytope_vertices(
            simplicial._pair_system(va, vb, ints, D))
        assert _key_points(got) == _polytope_vertices_ref(
            *_pair_system_ref(va, vb, exact, D))


@st.composite
def simplex_sections(draw):
    """Augmented rows of {z >= 0 : sum z = 1, C z = 0}: the standard
    simplex cut by one or two integer rows, so its vertices sit on the
    simplex's faces over denominators such as |c_i| + |c_j|."""
    k = draw(st.integers(3, 7))
    entry = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 5])
    cuts = draw(st.integers(1, 2))
    return [[1] * k + [1]] + [[draw(entry) for _ in range(k)] + [0]
                              for _ in range(cuts)]


@settings(PROPERTY, max_examples=200)
@given(simplex_sections())
def test_integer_keys_sort_in_the_order_of_their_points(rows):
    """Keys over several denominators, ordered by their numerators scaled
    to the common denominator, come in the sorted order of the
    reference's Fraction points."""
    keys = simplicial._polytope_vertices([row[:] for row in rows])
    assume(len({key[0] for key in keys}) >= 2)
    assert all(math.gcd(*key) == 1 and key[0] > 0 for key in keys)
    ref = _polytope_vertices_ref([[Fraction(x) for x in row[:-1]]
                                  for row in rows],
                                 [Fraction(row[-1]) for row in rows])
    assert _key_points(keys) == ref


def _verdict_json(m):
    ok, w = is_embedding(m)
    return ok, None if w is None else json.dumps(w.to_json())


def test_complex_cache_holds_nothing_that_depends_on_the_images():
    """One Complex object checked under an image dict that embeds and one
    that does not, in both orders, gives the verdicts and witnesses of
    freshly built complexes; its equality, hash and JSON stay as they
    were before the per-complex cache filled."""
    strip = triangulated_strip(12)
    rng = np.random.default_rng(3)
    embeds = random_map(strip, 6, rng).images
    collides = random_map(strip, 3, rng).images

    def fresh():
        return Complex(strip.vertices, strip.simplices)

    cases = [(images, _verdict_json(SimplicialMap(fresh(), images)))
             for images in (embeds, collides)]
    assert cases[0][1] == (True, None) and cases[1][1][0] is False
    for order in (cases, cases[::-1]):
        comp = fresh()
        before = (hash(comp), json.dumps(comp.to_json()))
        for images, want in order + order:
            assert _verdict_json(SimplicialMap(comp, images)) == want
        assert "_maximal_indices" in vars(comp)  # the cache is filled
        assert (hash(comp), json.dumps(comp.to_json())) == before
        assert comp == fresh() and hash(comp) == hash(fresh())
        assert comp.maximal_simplices() == fresh().maximal_simplices()


def _edge_pair(a, b, c, d):
    comp = Complex.from_maximal([("a", "b"), ("c", "d")])
    return SimplicialMap(comp, {"a": a, "b": b, "c": c, "d": d})


SCALING_CASES = [
    # crossing diagonals of squares of side 1e300 and 5e-324
    _edge_pair((0.0, 0.0), (1e300, 1e300), (1e300, 0.0), (0.0, 1e300)),
    _edge_pair((0.0, 0.0), (5e-324, 5e-324), (5e-324, 0.0), (0.0, 5e-324)),
    # exponents 2^-1074 to 2^996 in one system, and -0.0 beside 0.0
    _edge_pair((-0.0, 1e-300), (1.0, 1e300), (1.0, 5e-324), (-0.0, 1.0)),
    _edge_pair((1e-300, 1.0), (1e-300, -1.0), (0.0, 0.0), (1.0, 0.0)),
    _edge_pair((1e-300, 1.0), (1e-300, -1.0), (-0.0, 0.0), (5e-324, 0.0)),
    # non-dyadic decimals: 0.1 + 0.2 is not the float 0.3
    _edge_pair((0.1, 0.1), (0.3, 0.3), (0.2, 0.2), (0.5, 0.5)),
    _edge_pair((0.1, 0.2), (0.3, 0.6), (0.2, 0.4), (0.1, 0.0)),
    SimplicialMap(Complex.from_maximal([(0, 1), (1, 2)]),
                  {0: (0.1,), 1: (0.3,), 2: (0.1 + 0.2,)}),
    SimplicialMap(Complex.from_maximal([(0, 1, 2), (3, 4, 5)]),
                  {0: (0.0, 0.0, 1e300), 1: (0.3, 0.0, -1e300),
                   2: (0.0, 0.3, 5e-324), 3: (0.2, 0.2, 0.0),
                   4: (-0.1, 0.2, -0.0), 5: (0.2, -0.1, 1e-300)}),
]


@pytest.mark.parametrize("m", SCALING_CASES)
def test_power_of_two_scaling_is_lossless(m):
    ok, w = assert_matches_reference(m)
    if not ok:
        assert verify_witness(m, w)


def test_verify_witness_accepts_exact_witnesses_on_large_images():
    """Float evaluation of an exact witness rounds relative to the image
    size, so the point-equality tolerance scales with it."""
    rng = np.random.default_rng(1)
    strip = triangulated_strip(10)
    witnesses = 0
    for _ in range(40):
        m = random_map(strip, 3, rng)
        big = SimplicialMap(strip, {v: tuple(1e8 * c for c in img)
                                    for v, img in m.images.items()})
        for mm in (m, big):
            ok, w = is_embedding(mm)
            if not ok:
                witnesses += 1
                assert verify_witness(mm, w)
    assert witnesses >= 40


def test_polytope_vertices_exits_on_an_inconsistent_system(monkeypatch):
    """Parallel edges at heights 0 and 1: the height row reads
    -(y_c + y_d) = 0 against y_c + y_d = 1, so the forward pass pivots in
    the right-hand-side column and no back pass runs."""
    m = _edge_pair((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    ints, _ = simplicial._scaled_images(m)
    va, vb = ("a", "b"), ("c", "d")
    rows = simplicial._pair_system(va, vb, ints, 2)
    assert simplicial._forward([r[:] for r in rows])[0][-1] == 4
    assert _polytope_vertices_ref(
        *_pair_system_ref(va, vb, _exact_images(m), 2)) == []
    assert_matches_reference(m)

    def no_back_pass(*args):
        raise AssertionError("back pass ran on an inconsistent system")

    monkeypatch.setattr(simplicial, "_back", no_back_pass)
    assert simplicial._polytope_vertices(rows) == []


@st.composite
def degenerate_maps(draw):
    """1-6 maximal edges, triangles or tetrahedra into R^1..R^6 with images
    on a coarse grid {0, ..., g}^D, g <= 3, drawn from a pool of at most as
    many points as vertices: images repeat and lie flat, so many unions are
    affinely dependent and fall through to the solver."""
    size = draw(st.integers(2, 4))
    nv = draw(st.integers(size, 7))
    tops = draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=size,
                                 max_size=size), min_size=1, max_size=6))
    comp = Complex.from_maximal(tops)
    D = draw(st.integers(1, 6))
    coord = st.integers(0, draw(st.integers(1, 3))).map(float)
    pool = draw(st.lists(st.tuples(*[coord] * D), min_size=1,
                         max_size=len(comp.vertices)))
    return SimplicialMap(comp, {v: draw(st.sampled_from(pool))
                                for v in comp.vertices})


def _affine_rank_ref(verts, exact):
    rows = [[Fraction(1)] * len(verts)]
    rows += [[exact[v][d] for v in verts] for d in range(len(exact[verts[0]]))]
    return len(_rref_ref(rows))


def test_union_filter_falls_through_on_dependent_unions():
    """Collinear images, a repeated image and more than D + 1 points are
    left open for the solver; affinely independent images are certified."""
    plane = [(0, 0), (1, 0), (2, 0), (0, 0), (0, 1), (1, 1)]
    cols = [(1,) + img for img in plane]
    pad = len(cols)
    simplices = np.array([(0, 1, 2, pad), (4, 0, 3, pad), (0, 1, 4, 5),
                          (0, 1, 4, pad), (1, 4, pad, pad)])
    pairs = np.array([[i, i] for i in range(len(simplices))])
    assert simplicial._certified_pairs(simplices, pairs, cols) == [
        False, False, False, True, True]


def _all_pairs(maxs):
    pairs = list(itertools.combinations_with_replacement(range(len(maxs)), 2))
    return np.array(pairs), [maxs[i] + tuple(v for v in maxs[j]
                                            if v not in maxs[i])
                             for i, j in pairs]


@st.composite
def full_rank_maps(draw):
    """Edges, triangles, tetrahedra or a strip, with images on the dyadic
    2^-20 grid in R^5 or R^6: almost every union of at most D + 1
    vertices is affinely independent."""
    kind = draw(st.sampled_from(["simplices", "strip"]))
    if kind == "strip":
        comp = triangulated_strip(draw(st.integers(1, 8)))
    else:
        size = draw(st.integers(2, 4))
        nv = draw(st.integers(size, 8))
        tops = draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=size,
                                     max_size=size), min_size=1, max_size=6))
        comp = Complex.from_maximal(tops)
    D = draw(st.sampled_from([5, 6]))
    return SimplicialMap(comp, {v: tuple(draw(DYADIC) for _ in range(D))
                                for v in comp.vertices})


def _certified_unions(m):
    """Yield (va, vb, union) for every pair of maximal simplices whose
    union the residue test certifies."""
    ints, _ = simplicial._scaled_images(m)
    cols = [(1,) + ints[v] for v in m.complex.vertices]
    maxs = m.complex.maximal_simplices()
    pairs, unions = _all_pairs(maxs)
    certified = simplicial._certified_pairs(m.complex._maximal_indices,
                                            pairs, cols)
    for (i, j), sure, union in zip(pairs.tolist(), certified, unions):
        if sure:
            yield maxs[i], maxs[j], union


@settings(PROPERTY, max_examples=200)
@given(st.one_of(degenerate_maps(), full_rank_maps()))
def test_residue_test_certifies_only_independent_unions(m):
    """A union the residue test certifies has full Fraction rank."""
    exact = _exact_images(m)
    for _, _, union in _certified_unions(m):
        assert _affine_rank_ref(union, exact) == len(union)
    assert_matches_reference(m)


@settings(PROPERTY, max_examples=200)
@given(st.one_of(degenerate_maps(), full_rank_maps()))
def test_union_filter_skips_only_pairs_without_witness(m):
    """Every pair the residue test skips has no reference vertex off the
    shared-face diagonal: the certificate never skips a pair with a
    witness."""
    exact = _exact_images(m)
    for va, vb, _ in _certified_unions(m):
        shared = set(va) & set(vb)
        for z in _polytope_vertices_ref(*_pair_system_ref(
                va, vb, exact, m.dim_target)):
            assert simplicial._same_point(va, vb, z[:len(va)],
                                          z[len(va):], shared)


def _pair_solver_calls(monkeypatch):
    """Record (union size, found a witness) for every pair that reaches
    the pair solver."""
    calls = []
    solve = simplicial._pair_witness

    def counted(va, vb, ints, D):
        hit = solve(va, vb, ints, D)
        calls.append((len(set(va) | set(vb)), hit is not None))
        return hit

    monkeypatch.setattr(simplicial, "_pair_witness", counted)
    return calls


def test_a_minor_divisible_by_the_prime_falls_back_to_the_exact_test(
        monkeypatch):
    """The edge 0 -> p has the single 2 x 2 minor p: zero mod p, so the
    residue test leaves the union open and the exact pair solver decides
    it, finding no vertex off the diagonal."""
    p = simplicial.RESIDUE_PRIME
    m = SimplicialMap(Complex.from_maximal([(0, 1)]),
                      {0: (0.0,), 1: (float(p),)})
    ints, _ = simplicial._scaled_images(m)
    cols = [(1,) + ints[v] for v in m.complex.vertices]
    assert simplicial._certified_pairs(m.complex._maximal_indices,
                                       np.array([[0, 0]]), cols) == [False]
    calls = _pair_solver_calls(monkeypatch)
    assert is_embedding(m) == (True, None)
    assert calls == [(2, False)]


def _rank_mod_p_ref(rows, p):
    """Rank mod p by Gauss-Jordan elimination on Python ints."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def residue_stacks(draw):
    """Stacks of (rows, k) residue matrices, k <= rows, with their first
    counts[n] columns set and the rest zero; entries from {0, 1, p - 2,
    p - 1}, where the products come closest to 2^60."""
    p = simplicial.RESIDUE_PRIME
    nrows, k = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = min(k, nrows)
    entry = st.sampled_from([0, 1, p - 2, p - 1, p - 1, p - 1])
    mats, counts = [], []
    for _ in range(draw(st.integers(1, 5))):
        count = draw(st.integers(1, k))
        mats.append([[draw(entry) for _ in range(count)] + [0] * (k - count)
                     for _ in range(nrows)])
        counts.append(count)
    return mats, counts


@settings(PROPERTY, max_examples=300)
@given(residue_stacks())
def test_residue_elimination_matches_a_python_int_rank_mod_p(stack):
    """int64 arithmetic wraps without a warning, so the vectorized
    elimination is checked against Python ints mod p, on residues next to
    p where the products are largest."""
    mats, counts = stack
    p = simplicial.RESIDUE_PRIME
    got = simplicial._full_rank_mod_p(np.array(mats, dtype=np.int64),
                                      np.array(counts))
    want = [_rank_mod_p_ref([row[:c] for row in mat], p) == c
            for mat, c in zip(mats, counts)]
    assert got.tolist() == want


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_residues_of_p_minus_one_everywhere(k):
    """All entries p - 1: rank 1 mod p, full only for one column. Each
    product (p - 1)^2 is within a factor 10 of the int64 limit."""
    p = simplicial.RESIDUE_PRIME
    mat = [[p - 1] * k for _ in range(7)]
    got = simplicial._full_rank_mod_p(np.array([mat], dtype=np.int64),
                                      np.array([k]))
    assert _rank_mod_p_ref(mat, p) == 1
    assert got.tolist() == [k == 1]


def test_full_rank_strips_never_reach_the_pair_solver(monkeypatch):
    """On 24-triangle dyadic strips into R^6 every union has at most
    D + 1 = 7 vertices and the residue test certifies each one."""
    calls = _pair_solver_calls(monkeypatch)
    rng = np.random.default_rng(13)
    strip = triangulated_strip(24)
    for _ in range(10):
        assert is_embedding(random_map(strip, 6, rng)) == (True, None)
    assert calls == []


def test_low_dimensional_maps_send_only_overfull_unions_to_the_exact_test(
        monkeypatch):
    """Into R^3, a union of more than D + 1 = 4 vertices is dependent and
    goes on to the solver; every smaller union is certified."""
    calls = _pair_solver_calls(monkeypatch)
    rng = np.random.default_rng(13)
    for n in range(8, 28):
        is_embedding(random_map(triangulated_strip(n), 3, rng))
    assert calls and min(size for size, _ in calls) > 4
