"""Finite simplicial complexes and exact embedding checks for affine maps.

A map sending vertices to points of R^D extends affinely over each
simplex. It embeds the geometric realization iff no pair of maximal
simplices shares an image point beyond the face they have in common, and
for one pair that is a linear feasibility question: barycentric x, y with
equal images, off the shared-face diagonal. The feasible set is a polytope,
and it lies inside the diagonal iff all of its vertices do, so enumerating
basic solutions of the equality system decides the pair exactly. Every
finite float is an integer times a power of two, so each map's images are
scaled once by a common power of two to Python ints, and each pair system
is solved by fraction-free elimination on those ints. The vertices found
stay integers over one denominator, and only the witness becomes
rationals, so the verdict never depends on a tolerance.

Each pair goes through four steps, and the cheaper ones drop the pairs
that cannot give a witness before the costlier ones run:
1. a strict bounding-box test drops pairs whose image boxes are apart;
2. the union test drops pairs whose union of vertices has affinely
   independent images: the map is then injective on the simplex they
   span, so equal images mean the same point of the shared face. It
   covers the self pair of every simplex in general position. It runs
   once for all pairs whose union has at most D + 1 vertices, as one
   vectorized rank test on the images mod a fixed prime p < 2^30: full
   rank mod p is full rank over the integers, since a minor that is
   nonzero mod p is a nonzero integer. A union it leaves open (a
   dependent one, one of more than D + 1 vertices, or one whose minors
   all happen to be multiples of p) goes on to steps 3 and 4, which are
   exact on their own;
3. the forward pass on the pair system ends the pair when a pivot lands
   in the right-hand-side column (an inconsistent system), before the
   back pass;
4. the basic solutions of the remaining system are enumerated.
Steps 2 and 3 drop no pair with a witness, so the pair order and the
first witness are those of the plain enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numutil import is_finite_real, is_integer

SNAP = 1e-9
# A prime below 2^30 for the residue test of is_embedding: a product of two
# residues stays below 2^60, inside int64.
RESIDUE_PRIME = 1_000_000_007


def _freeze(v):
    """A vertex label read from JSON, made hashable: an int, a str, or a
    list of labels as a tuple. A bool, a float or null raises, since
    True == 1 == 1.0 would make labels of different types collide."""
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(u) for u in v)
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"vertex label {v!r} is not an int, a str or a list")
    return v


def _plain(v):
    """Inverse of _freeze: nested tuples back to JSON lists."""
    return [_plain(u) for u in v] if isinstance(v, tuple) else v


def _sorted_labels(labels):
    try:
        return tuple(sorted(labels))
    except TypeError:
        return tuple(sorted(labels, key=repr))


@dataclass(frozen=True)
class Complex:
    """Abstract simplicial complex: an ordered vertex set and a face-closed
    family of simplices. Every vertex must occur as a 0-simplex, so
    isolated vertices are spelled out rather than implied."""

    vertices: tuple
    simplices: frozenset

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(verts)})
        if len(self._index) != len(verts):
            raise ValueError("duplicate vertices")
        simps = frozenset(frozenset(s) for s in self.simplices)
        object.__setattr__(self, "simplices", simps)
        if not simps:
            raise ValueError("complex needs at least one simplex")
        for s in simps:
            if not s:
                raise ValueError("empty simplex")
            if not s.issubset(self._index):
                raise ValueError("simplex uses unknown vertices")
            if len(s) >= 2:
                for v in s:
                    if s - {v} not in simps:
                        raise ValueError(
                            "simplices are not closed under faces")
        for v in verts:
            if frozenset((v,)) not in simps:
                raise ValueError(f"vertex {v!r} is not a 0-simplex")

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def canonical(self) -> tuple:
        """All simplices, deterministically ordered by size then indices."""
        keys = sorted((len(s), sorted(self._index[v] for v in s))
                      for s in self.simplices)
        return tuple(tuple(self.vertices[i] for i in key) for _, key in keys)

    def maximal_simplices(self) -> tuple:
        return self._maximal

    # Per-complex work that is_embedding repeats on every map of one
    # complex, held on the instance. It depends on the complex alone, and
    # the dataclass equality, hash and JSON read the fields only.
    @functools.cached_property
    def _maximal(self) -> tuple:
        # the family is face-closed, so a simplex inside a larger one is a
        # facet of some simplex: s < t gives s + {w} in it for w in t - s
        facets = {s - {v} for s in self.simplices if len(s) > 1 for v in s}
        keys = sorted(sorted(self._index[v] for v in s)
                      for s in self.simplices if s not in facets)
        return tuple(tuple(self.vertices[i] for i in key) for key in keys)

    @functools.cached_property
    def _maximal_indices(self) -> np.ndarray:
        """The maximal simplices as rows of vertex indices, read-only, each
        padded with len(vertices), which sorts after every index."""
        widest = max(map(len, self._maximal))
        pad = len(self.vertices)
        out = np.array([[self._index[v] for v in s] + [pad] * (widest - len(s))
                        for s in self._maximal])
        out.flags.writeable = False
        return out

    @classmethod
    def from_maximal(cls, maximal) -> "Complex":
        """Face closure of the given simplices; vertices sorted."""
        simps = set()
        for s in maximal:
            s = frozenset(s)
            for r in range(1, len(s) + 1):
                for face in itertools.combinations(_sorted_labels(s), r):
                    simps.add(frozenset(face))
        verts = _sorted_labels(set().union(*simps))
        return cls(verts, frozenset(simps))

    def to_json(self) -> dict:
        return {"vertices": [_plain(v) for v in self.vertices],
                "simplices": [[_plain(v) for v in s]
                              for s in self.canonical()]}

    @classmethod
    def from_json(cls, d: dict) -> "Complex":
        verts = tuple(_freeze(v) for v in d["vertices"])
        simps = frozenset(frozenset(_freeze(v) for v in s)
                          for s in d["simplices"])
        return cls(verts, simps)


def _image_coordinate(c) -> float:
    """An image coordinate as a float; non-real values, bools and reals
    whose float is not finite raise."""
    if isinstance(c, bool) or not isinstance(c, numbers.Real):
        raise ValueError(f"vertex image coordinate {c!r} is not a number")
    if not is_finite_real(c):
        raise ValueError("vertex images must be finite")
    return float(c)


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex images in R^D; the map extends affinely over each simplex."""

    complex: Complex
    images: dict

    def __post_init__(self):
        if set(self.images) != set(self.complex.vertices):
            raise ValueError("images must cover exactly the vertex set")
        images = {v: tuple(_image_coordinate(c) for c in img)
                  for v, img in self.images.items()}
        object.__setattr__(self, "images", images)
        dims = {len(img) for img in images.values()}
        if len(dims) != 1 or min(dims) < 1:
            raise ValueError("vertex images must share one dimension >= 1")

    @property
    def dim_target(self) -> int:
        return len(next(iter(self.images.values())))

    def eval(self, simplex, bary) -> np.ndarray:
        """Affine value at the barycentric point of the given simplex, whose
        coordinates follow the simplex's own order. A simplex that repeats a
        vertex or is not in the complex raises, and so do coordinates that
        are not barycentric: one below -SNAP, a sum off 1 by over SNAP, NaN
        or an infinity."""
        verts = frozenset(simplex)
        if len(verts) != len(simplex) or verts not in self.complex.simplices:
            raise ValueError(f"{tuple(simplex)!r} is not a simplex of the "
                             "complex")
        if len(bary) != len(simplex):
            raise ValueError("barycentric length mismatch")
        # stated as what must hold, so NaN, which fails every comparison,
        # fails it too
        if not (all(c >= -SNAP for c in bary)
                and abs(sum(bary) - 1.0) <= SNAP):
            raise ValueError("not a barycentric point")
        out = np.zeros(self.dim_target)
        for v, c in zip(simplex, bary):
            out += float(c) * np.array(self.images[v])
        return out

    def to_json(self) -> dict:
        cj = self.complex.to_json()
        cj["images"] = [list(self.images[v]) for v in self.complex.vertices]
        return cj

    @classmethod
    def from_json(cls, d: dict) -> "SimplicialMap":
        c = Complex.from_json(d)
        if len(d["images"]) != len(c.vertices):
            raise ValueError(f"{len(d['images'])} images for "
                             f"{len(c.vertices)} vertices")
        images = {v: tuple(img) for v, img in
                  zip(c.vertices, d["images"])}
        return cls(c, images)


def _forward(rows, through_gaps=True):
    """Fraction-free forward elimination of integer rows, in place (Bareiss
    1968). Every update (piv*a - f*b) // prev divides exactly, since each
    entry stays an integer minor of the input. On return the pivot rows
    come first in echelon form, and the rows after them are zero in every
    column passed. Returns (pivot columns, det), det being the last pivot
    (1 with no pivot). With through_gaps false the pass stops at the first
    column that has no pivot, which is all a square solve needs."""
    pivots = []
    prev = 1
    r = 0
    for col in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            if through_gaps:
                continue
            break
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[col]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = [(piv * a - f * b) // prev
                           for a, b in zip(row, prow)]
            elif piv != prev:
                rows[i] = [piv * a // prev for a in row]
        prev = piv
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots, prev


def _back(rows, pivots, det):
    """Back pass after _forward: each pivot row becomes det times its row
    of the reduced row echelon form R, holding det at its own pivot column
    and 0 at the others. Forward row k is d_k R_k + sum_{j>k} g_j R_j with
    d_k its pivot and g_j its entry at pivot j, so det R_k is
    (det row_k - sum_{j>k} g_j det R_j) / d_k; det R is the adjugate of
    the pivot block times the rows, so the division is exact."""
    for k in range(len(pivots) - 2, -1, -1):
        row = rows[k]
        acc = [det * a for a in row]
        for j in range(k + 1, len(pivots)):
            g = row[pivots[j]]
            if g:
                acc = [a - g * b for a, b in zip(acc, rows[j])]
        dk = row[pivots[k]]
        rows[k] = [a // dk for a in acc]


def _polytope_vertices(aug):
    """All vertices of {z >= 0 : A z = b}, exactly, from the augmented
    integer rows [A | b] (consumed), each as a key (den, n_1, ..., n_k)
    for the point z_i = n_i / den in lowest terms (den > 0), sorted in the
    order of the points' coordinate tuples. The polytope here is always
    bounded (barycentric coordinates), so it is the convex hull of these
    points; returns [] when the system is infeasible. An inconsistent
    system shows as a pivot in the right-hand-side column of the forward
    pass, and returns before the back pass.

    After one elimination, row i reads det z_{p_i} + sum_f g_if z_f = c_i
    over the free columns f. A basis keeps some free columns T and drops
    the pivots of rows S (|S| = |T|); its basic solution solves the small
    system g[S, T] z_T = c_S and then each kept pivot row for z_{p_i}. All
    values, the vertices returned too, are integers over one denominator."""
    k = len(aug[0]) - 1
    pivots, det = _forward(aug)
    if pivots and pivots[-1] == k:
        return []
    _back(aug, pivots, det)
    rank = len(pivots)
    rows = aug[:rank]
    found = set()
    for basis in itertools.combinations(range(k), rank):
        kept = set(basis)
        T = [j for j in basis if j not in pivots]
        S = [row for row, p in zip(rows, pivots) if p not in kept]
        s = len(T)
        e, zT = 1, []
        if s:
            sub = [[row[j] for j in T] + [row[k]] for row in S]
            piv, e = _forward(sub, through_gaps=False)
            if len(piv) != s:
                continue  # singular basis
            _back(sub, piv, e)
            zT = [row[s] for row in sub]  # z_T = zT / e
        den = det * e
        z = [0] * k
        for j, v in zip(T, zT):
            z[j] = v * det
        for row, p in zip(rows, pivots):
            if p in kept:
                z[p] = row[k] * e - sum(row[j] * v for j, v in zip(T, zT))
        if den < 0:
            den, z = -den, [-x for x in z]
        if all(x >= 0 for x in z):
            g = math.gcd(den, *z)  # one key per point, however reached
            found.add((den // g,) + tuple(x // g for x in z))
    # over the common denominator the numerators order as the points do;
    # keys in lowest terms are one per point, so no two tie
    common = math.lcm(*(key[0] for key in found))
    return sorted(found, key=lambda key: [x * (common // key[0])
                                          for x in key[1:]])


@dataclass(frozen=True)
class CollisionWitness:
    """Two simplices with a common image point off their shared face.
    Barycentric coordinates follow each simplex's vertex order."""

    simplex_a: tuple
    simplex_b: tuple
    bary_a: tuple
    bary_b: tuple
    point: tuple

    def to_json(self) -> dict:
        return {"simplex_a": [_plain(v) for v in self.simplex_a],
                "simplex_b": [_plain(v) for v in self.simplex_b],
                "bary_a": list(self.bary_a), "bary_b": list(self.bary_b),
                "point": list(self.point)}


def _same_point(va, vb, x, y, shared):
    for v, c in zip(va, x):
        if v not in shared and c != 0:
            return False
    for v, c in zip(vb, y):
        if v not in shared and c != 0:
            return False
    xs = dict(zip(va, x))
    ys = dict(zip(vb, y))
    return all(xs[v] == ys[v] for v in shared)


def _scaled_images(m: SimplicialMap) -> tuple:
    """(images as integers, scale): every coordinate times one power of
    two, the largest denominator of their float.as_integer_ratio(). Each
    finite float is an integer over a power of two, so this is lossless."""
    ratios = {v: [c.as_integer_ratio() for c in img]
              for v, img in m.images.items()}
    scale = max(den for r in ratios.values() for _, den in r)
    return {v: tuple(n * (scale // den) for n, den in r)
            for v, r in ratios.items()}, scale


def _pair_system(va, vb, ints, D):
    """Augmented rows [A | b] for barycentric x on va, y on vb with equal
    images. The image rows have right-hand side 0, so the common scale of
    the integer images leaves the solution set unchanged."""
    na, nb = len(va), len(vb)
    rows = [[1] * na + [0] * nb + [1], [0] * na + [1] * nb + [1]]
    for d in range(D):
        rows.append([ints[v][d] for v in va] + [-ints[u][d] for u in vb]
                    + [0])
    return rows


def _pair_witness(va, vb, ints, D):
    """The first vertex of the pair polytope off the shared-face diagonal,
    as (den, x, y) with barycentric numerators x on va and y on vb over
    den, or None."""
    na = len(va)
    shared = set(va) & set(vb)
    for den, *z in _polytope_vertices(_pair_system(va, vb, ints, D)):
        x, y = z[:na], z[na:]
        if not _same_point(va, vb, x, y, shared):  # one den: compare ints
            return den, x, y
    return None


def _full_rank_mod_p(cols, counts) -> np.ndarray:
    """Whether the first counts[n] columns of each matrix cols[n] of
    residues mod RESIDUE_PRIME are independent mod the prime; the columns
    after them must be zero. One vectorized elimination: each step takes
    the row with the largest entry in the leading column as pivot row,
    replaces every row by (piv*row - f*pivrow) % p, which zeroes that
    column (the pivot row too), and drops the column. A zero leading
    column gives no pivot and zeroes the rest, so the pivots found reach
    counts[n] only at full rank. Residues are below 2^30, so no product
    reaches 2^60 and int64 never wraps."""
    stack = np.arange(len(cols))
    pivots = []
    for _ in range(cols.shape[2]):
        lead = cols[:, :, 0]
        pivrow = cols[stack, lead.argmax(axis=1)]
        piv = pivrow[:, :1]
        pivots.append(piv[:, 0])
        cols = (piv[:, :, None] * cols[:, :, 1:]
                - lead[:, :, None] * pivrow[:, None, 1:]) % RESIDUE_PRIME
    return np.count_nonzero(pivots, axis=0) == counts


def _certified_pairs(simplices, pairs, cols) -> list:
    """For each pair (i, j) of rows of simplices, whether the residue test
    certifies the union of their vertices affinely independent: True
    proves that the columns (1, image) of cols are independent, and False
    leaves it open. simplices holds vertex indices into cols, a list of
    integer columns, each row padded with len(cols). Full rank mod a prime
    is full rank over the integers, since a minor that is nonzero mod the
    prime is a nonzero integer. A union of more than D + 1 vertices is
    never independent and stays uncertified. All other unions go through
    one elimination, each as its vertex columns in index order, padded
    with zero columns."""
    size = len(cols[0])  # D + 1
    pad = len(cols)
    a, b = simplices[pairs[:, 0]], simplices[pairs[:, 1]]
    b = np.where((b[:, :, None] == a[:, None, :]).any(axis=2), pad, b)
    at = np.sort(np.concatenate([a, b], axis=1), axis=1)
    counts = (at < pad).sum(axis=1)
    eligible = counts <= size
    certified = np.zeros(len(pairs), dtype=bool)
    if eligible.any():
        residues = np.array([[c % RESIDUE_PRIME for c in col]
                             for col in cols] + [[0] * size],
                            dtype=np.int64)
        at, counts = at[eligible, :counts[eligible].max()], counts[eligible]
        certified[eligible] = _full_rank_mod_p(
            residues[at].transpose(0, 2, 1), counts)
    return certified.tolist()


def is_embedding(m: SimplicialMap) -> tuple:
    """Decide exactly whether the affine extension of m is injective on
    the geometric realization. Returns (True, None) or (False, witness)
    where the witness carries two maximal simplices and barycentric
    points with equal images that are distinct in the complex."""
    comp = m.complex
    maxs = comp.maximal_simplices()
    ints, scale = _scaled_images(m)
    D = m.dim_target
    pts = np.array([m.images[v] for s in maxs for v in s])
    starts = list(itertools.accumulate(map(len, maxs[:-1]), initial=0))
    lo, hi = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
    below = (hi[:, None] < lo[None]).any(axis=2)  # an axis has i below j
    # argwhere walks the upper triangle in C order: i, then j >= i
    pairs = np.argwhere(np.triu(~(below | below.T)))
    certified = _certified_pairs(comp._maximal_indices, pairs,
                                 [(1,) + ints[v] for v in comp.vertices])
    for (i, j), sure in zip(pairs.tolist(), certified):
        if sure:
            continue  # the map is injective on the simplex of the union
        hit = _pair_witness(maxs[i], maxs[j], ints, D)
        if hit is None:
            continue
        den, x, y = hit
        pt = [sum(ints[v][d] * c for v, c in zip(maxs[i], x))
              for d in range(D)]
        other = [sum(ints[u][d] * c for u, c in zip(maxs[j], y))
                 for d in range(D)]
        assert pt == other  # exact arithmetic; the solver guarantees it
        witness = CollisionWitness(
            simplex_a=maxs[i], simplex_b=maxs[j],
            bary_a=tuple(float(Fraction(c, den)) for c in x),
            bary_b=tuple(float(Fraction(c, den)) for c in y),
            point=tuple(float(Fraction(c, den * scale)) for c in pt))
        return False, witness
    return True, None


def verify_witness(m: SimplicialMap, w: CollisionWitness) -> bool:
    """Re-check a collision witness against the map itself: both
    barycentric points must map to the same target point while being
    distinct points of the realization. The points may differ by SNAP
    times the largest |coordinate| of the two simplices' images (at least
    SNAP), since float evaluation rounds relative to that size.
    Distinctness compares the support-restricted coordinate maps,
    treating coordinates <= SNAP as zero. A witness whose simplices or
    coordinates eval rejects raises ValueError."""
    pa = m.eval(w.simplex_a, w.bary_a)
    pb = m.eval(w.simplex_b, w.bary_b)
    size = max([1.0] + [abs(c) for v in w.simplex_a + w.simplex_b
                        for c in m.images[v]])
    if float(np.max(np.abs(pa - pb))) > SNAP * size:
        return False
    xs = {v: c for v, c in zip(w.simplex_a, w.bary_a) if c > SNAP}
    ys = {v: c for v, c in zip(w.simplex_b, w.bary_b) if c > SNAP}
    if set(xs) == set(ys) and all(abs(xs[v] - ys[v]) <= SNAP for v in xs):
        return False
    return True


def perturb_to_embedding(m: SimplicialMap, magnitude: float,
                         rng_seed: int) -> SimplicialMap:
    """Nudge vertex images (each coordinate by at most magnitude) until
    is_embedding passes; the unperturbed map is tried first and returned
    itself when it embeds, then up to 32 perturbations. At magnitude 0
    every perturbation is the map itself, so none is tried. Requires
    target dimension >= 2 dim + 1, where random maps embed generically."""
    if m.dim_target < 2 * m.complex.dim + 1:
        raise ValueError(
            f"target dimension {m.dim_target} below 2*dim+1 = "
            f"{2 * m.complex.dim + 1}; generic maps are not embeddings")
    if not (is_finite_real(magnitude) and magnitude >= 0):
        raise ValueError(f"magnitude must be finite and >= 0, got {magnitude}")
    if not (is_integer(rng_seed) and rng_seed >= 0):
        raise ValueError(f"rng_seed must be an integer >= 0, got {rng_seed!r}")
    ok, _ = is_embedding(m)
    if ok:
        return m
    rng = np.random.default_rng(rng_seed)
    verts = m.complex.vertices
    D = m.dim_target
    for _ in range(32 if magnitude > 0 else 0):
        # dyadic offsets keep the scaled integer images short
        grid = rng.integers(-(2 ** 20), 2 ** 20, size=(len(verts), D))
        images = {v: tuple(c + magnitude * g / 2.0 ** 20
                           for c, g in zip(m.images[v], row))
                  for v, row in zip(verts, grid)}
        cand = SimplicialMap(m.complex, images)
        ok, _ = is_embedding(cand)
        if ok:
            return cand
    raise RuntimeError(
        "no embedding found within 32 perturbations of "
        f"magnitude {magnitude}")


def triangulated_strip(n: int) -> Complex:
    """A strip of n triangles on two vertex rows (the usual ladder
    triangulation); a handy dimension-2 example complex."""
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"need an integer number of triangles >= 1, "
                         f"got {n!r}")
    cols = n // 2 + 1
    tris = []
    for i in range(cols):
        if len(tris) < n:
            tris.append((("a", i), ("b", i), ("a", i + 1)))
        if len(tris) < n:
            tris.append((("b", i), ("a", i + 1), ("b", i + 1)))
    return Complex.from_maximal(tris[:n])


def random_map(c: Complex, D: int, rng) -> SimplicialMap:
    """Vertex images uniform on the dyadic grid {0, 1/2^20, ..., 1}^D; on
    a power-of-two grid the scaled integer images stay short, which keeps
    the exact solver fast."""
    if not (is_integer(D) and D >= 1):
        raise ValueError(f"D must be an integer >= 1, got {D!r}")
    grid = 2 ** 20
    images = {}
    for v in c.vertices:
        row = rng.integers(0, grid + 1, size=D)
        images[v] = tuple(float(x) / grid for x in row)
    return SimplicialMap(c, images)


def crossing_pair(D: int) -> SimplicialMap:
    """Two disjoint triangles in R^D sharing their barycenter (1,1,0,...):
    a constructed embedding failure for any D, with witness barycentrics
    (1/3, 1/3, 1/3) on both sides."""
    if not (is_integer(D) and D >= 2):
        raise ValueError(f"D must be an integer >= 2, got {D!r}")
    pad = (0.0,) * (D - 2)
    images = {0: (0.0, 0.0) + pad, 1: (3.0, 0.0) + pad,
              2: (0.0, 3.0) + pad,
              3: (2.0, 2.0) + pad, 4: (-1.0, 2.0) + pad,
              5: (2.0, -1.0) + pad}
    comp = Complex.from_maximal([(0, 1, 2), (3, 4, 5)])
    return SimplicialMap(comp, images)
