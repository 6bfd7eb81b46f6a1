import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile import interpolation, numutil
from bandtile.interpolation import (
    CONDITION_SLACK,
    POSITION_ZERO_TOL,
    BlockOverflowError,
    GridParams,
    NodeMultiset,
    agreeing_pair,
    bump_transform,
    cardinal_kernel,
    check_conditions,
    decay_constant,
    locality_radius,
    random_admissible_multiset,
    saturate,
    truncation_radius,
    weierstrass_product,
)

PARAMS = GridParams(l=1, rho=Fraction(1), tau=0.5)

# decay envelope constant for (l=1, rho=1, tau=0.5); the randomized family
# never beats the deterministic worst-case patterns, so this is exact
KAPPA = 3.113966244209678


def unit_lattice(radius):
    return NodeMultiset(tuple((float(n), 1)
                              for n in range(-radius, radius + 1) if n != 0),
                        PARAMS, (-radius, radius))


def test_conditions_uniform_grid_all_true():
    rep = check_conditions(unit_lattice(4))
    assert rep.c1 and rep.c2 and rep.c3


def test_conditions_half_spacing_violates_separation():
    close = NodeMultiset(((0.2, 1), (0.7, 1)), PARAMS, (-4, 4))
    assert not check_conditions(close).c1


def test_conditions_empty_block_breaks_c3_only():
    holey = NodeMultiset(tuple((float(n), 1)
                               for n in range(-4, 5) if n not in (0, 2)),
                         PARAMS, (-4, 4))
    rep = check_conditions(holey)
    assert rep.c2 and not rep.c3


def test_saturate_fixed_point_and_idempotent():
    uni = unit_lattice(4)
    assert saturate(uni).entries.tolist() == uni.entries.tolist()
    m = random_admissible_multiset(PARAMS, (-16, 16), np.random.default_rng(3))
    s = saturate(m)
    assert saturate(s).entries.tolist() == s.entries.tolist()
    assert check_conditions(s).c3


def test_saturate_empty_fills_anchors():
    s = saturate(NodeMultiset((), PARAMS, (-4, 4)))
    assert s.entries.tolist() == [(float(n), 1)
                                  for n in range(-4, 5) if n != 0]


def test_saturate_matches_blockwise_reference():
    # pad every deficient nonzero block up to l*rho nodes at its anchor
    params = GridParams(l=2, rho=Fraction(3, 2), tau=0.5)
    m = random_admissible_multiset(params, (-9, 9), np.random.default_rng(5))
    cap = params.lrho
    masses = dict(m.entries.tolist())
    for n, c in zip(range(m.window[0], m.window[1] + 1), m.block_counts()):
        if n == 0 or c == cap:
            continue
        anchor = float(n * params.l)
        masses[anchor] = masses.get(anchor, 0) + (cap - c)
    assert saturate(m).entries.tolist() == sorted(masses.items())


def test_weierstrass_sinc_oracle():
    """Over the saturated unit lattice the windowed product with the ideal
    tail reproduces sin(pi z)/(pi z)."""
    lat = saturate(NodeMultiset((), PARAMS, (-256, 256)))
    zs = np.linspace(-10.0, 10.0, 1001).astype(complex)
    vals = weierstrass_product(lat, zs, 128, lattice_tail=True)
    assert float(np.max(np.abs(vals - np.sinc(zs.real)))) < 1e-6


def test_weierstrass_frozen_point_value():
    lat = saturate(NodeMultiset((), PARAMS, (-256, 256)))
    v = weierstrass_product(lat, np.array([0.5 + 0.0j]), 128,
                            lattice_tail=True)
    assert abs(complex(v[0]) - 2.0 / math.pi) < 1e-6


def test_weierstrass_exact_zero_at_node():
    lat = saturate(NodeMultiset((), PARAMS, (-40, 40)))
    v = weierstrass_product(lat, np.array([3.0 + 0.0j]), 40,
                            lattice_tail=True)
    assert complex(v[0]) == 0.0


def test_window_kernel_even_and_decaying():
    assert bump_transform(PARAMS.tau, 7.3) == bump_transform(PARAMS.tau, -7.3)
    # t = 50 / tau
    assert abs(bump_transform(PARAMS.tau, 100.0)) < 1e-6


def test_cardinal_kernel_duality_small_family():
    # kernel centered at the origin: 1 there, vanishing at actual nodes
    rng = np.random.default_rng(11)
    for _ in range(5):
        mset = saturate(random_admissible_multiset(PARAMS, (-16, 16), rng))
        inner = [float(q) for q in mset.positions() if abs(q) <= 8.0]
        vals = cardinal_kernel(mset, np.array([0.0] + inner, dtype=complex),
                               12)
        assert abs(abs(vals[0]) - 1.0) <= 1e-4
        for q, v in zip(inner, vals[1:]):
            if abs(q) > 1e-9:
                assert abs(v) <= 1e-4, (q, abs(v))


def test_decay_constant_frozen_and_seed_stable():
    k0 = decay_constant(PARAMS, seed=0)
    assert k0 == KAPPA
    # worst case comes from the deterministic extreme patterns, so other
    # seeds land on the same value
    assert decay_constant(PARAMS, seed=1) == k0


def test_decay_envelope_holds_for_random_kernels():
    rng = np.random.default_rng(2)
    xs = np.linspace(-24.0, 24.0, 193).astype(complex)
    for _ in range(3):
        mset = saturate(random_admissible_multiset(PARAMS, (-48, 48), rng))
        vals = cardinal_kernel(mset, xs, 40)
        lhs = np.abs(vals) * (1.0 + xs.real ** 2)
        assert float(np.max(lhs)) <= KAPPA + 1e-9


def test_truncation_radius_trivial_origin():
    cert = truncation_radius(0.0, 1e-3, PARAMS)
    assert cert.certified
    assert cert.radius == 1.0
    assert cert.sup_error == 0.0


def test_truncation_radius_monotone_in_eps():
    a = truncation_radius(2.0, 1e-2, PARAMS, window_blocks=2048)
    b = truncation_radius(2.0, 2e-2, PARAMS, window_blocks=2048)
    assert a.certified and b.certified
    assert b.radius <= a.radius
    assert a.radius == 512.0


def test_truncation_radius_full_window_oracle():
    """r = 5, eps = 1e-3 over the full 32768-block window: the log-series
    bound certifies the radius the sampled certificate certifies, and reads
    at or above the sampled products on the circle |z| = 5, where the
    dropped-tail error peaks."""
    cert = truncation_radius(5.0, 1e-3, PARAMS, window_blocks=32768)
    radius, sampled, radii = reference_truncation_radius(
        5.0, 1e-3, PARAMS, window_blocks=32768)
    assert cert.certified
    assert cert.radius == radius == 16384.0
    assert cert.radii_tested == radii
    assert sampled <= cert.sup_error < 1e-3


def test_locality_radius_frozen():
    cert = locality_radius(4.0, 1e-2, PARAMS)
    assert cert.certified
    assert cert.radius == 16.0
    assert cert.sup_error == 0.008406082293035744


CERTIFICATES = {
    "truncation": lambda r, eps, family_size: truncation_radius(
        r, eps, PARAMS, family_size=family_size, window_blocks=16),
    "locality": lambda r, eps, family_size: locality_radius(
        r, eps, PARAMS, family_size=family_size, window_blocks=16),
}


@pytest.mark.parametrize("cert", sorted(CERTIFICATES))
@pytest.mark.parametrize("r, eps, family_size, message", [
    (1.0, 1e-2, 0, "family_size"),
    (1.0, 1e-2, -3, "family_size"),
    # a fractional or boolean family size is not an integer
    (1.0, 1e-2, 2.5, "family_size"),
    (1.0, 1e-2, True, "family_size"),
    (math.nan, 1e-2, 2, "r must"),
    (math.inf, 1e-2, 2, "r must"),
    (-1.0, 1e-2, 2, "r must"),
    (1.0, 0.0, 2, "eps must"),
    (1.0, -1e-2, 2, "eps must"),
    (1.0, math.nan, 2, "eps must"),
    (1.0, math.inf, 2, "eps must"),
])
def test_radius_certificates_reject_unchecked_arguments(cert, r, eps,
                                                        family_size, message):
    # with no member, a non-finite or negative r, or an eps that every
    # error meets or none can, a certificate would check nothing
    with pytest.raises(ValueError, match=message):
        CERTIFICATES[cert](r, eps, family_size)


@pytest.mark.parametrize("cert", sorted(CERTIFICATES))
@pytest.mark.parametrize("name", ["r", "eps"])
@pytest.mark.parametrize("value", [True, "4", 4 + 0j, None, 10 ** 400],
                         ids=["True", "str", "complex", "None", "10**400"])
def test_certificate_radius_and_eps_must_be_finite_reals(cert, name, value):
    # True ran as r = 1 or eps = 1, and "4" and 4+0j raised TypeError
    args = {"r": 4.0, "eps": 1e-2, name: value}
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a finite real number") + ".*" + re.escape(
            f"got {value!r}")):
        CERTIFICATES[cert](args["r"], args["eps"], 1)


@pytest.mark.parametrize("cert", sorted(CERTIFICATES))
def test_certificates_take_numpy_and_rational_reals(cert):
    want = CERTIFICATES[cert](4.0, 0.5, 1)
    assert CERTIFICATES[cert](np.float64(4.0), np.float64(0.5), 1) == want
    assert CERTIFICATES[cert](Fraction(4), Fraction(1, 2), 1) == want


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -0.5,
                                 True, False, 1j, "0.5", None])
def test_grid_params_reject_a_window_support_that_is_not_finite_positive(tau):
    # rejected at construction, not late inside cardinal_kernel; True is
    # not a number here, and was written to JSON as true
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        GridParams(l=1, rho=Fraction(1), tau=tau)


@pytest.mark.parametrize("l", [0, -1, 1.5, 2.0, True, "2"])
def test_grid_params_reject_an_l_that_is_not_a_positive_integer(l):
    with pytest.raises(ValueError, match="l must be a positive integer"):
        GridParams(l=l, rho=Fraction(1), tau=0.5)


def test_grid_params_store_a_numpy_integer_l_as_int():
    p = GridParams(l=np.int64(2), rho=Fraction(1, 2), tau=0.5)
    assert p == GridParams(l=2, rho=Fraction(1, 2), tau=0.5)
    assert type(p.l) is int and type(p.to_json()["l"]) is int


@pytest.mark.parametrize("rho", [True, False, math.inf, -math.inf, math.nan,
                                 "1", 1j])
def test_grid_params_reject_a_rho_that_is_not_a_finite_real_number(rho):
    # a bool would become a density of 1 or 0, and an infinite float
    # raised OverflowError from Fraction
    with pytest.raises(ValueError, match="rho must be a finite real number"):
        GridParams(l=1, rho=rho, tau=0.5)


def test_grid_params_write_plain_json_from_numpy_numbers():
    p = GridParams(l=np.int64(2), rho=np.int64(1), tau=np.float64(0.5))
    assert p == GridParams(l=2, rho=Fraction(1), tau=0.5)
    assert json.dumps(p.to_json()) == '{"l": 2, "rho": [1, 1], "tau": 0.5}'
    assert type(p.tau) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", ["pairs", "records"])
def test_node_multiset_rejects_non_finite_positions(bad, form):
    entries = (interpolation.node_records([0.5, bad], [1, 1])
               if form == "records" else [(0.5, 1), (bad, 1)])
    with pytest.raises(ValueError, match="positions must be finite"):
        NodeMultiset(entries, PARAMS, (-2, 2))


@pytest.mark.parametrize("pair", [
    # a fractional or boolean multiplicity was cut to 2, 1 and 1
    (1.5, 2.7), (1.5, 1.5), (1.5, True),
    # strings were parsed, and True read as position 1.0
    ("2.5", 1), (2.5, "3"), (True, 1),
    # raised OverflowError
    (1.5, 2 ** 63),
])
def test_node_multiset_rejects_pairs_it_would_coerce(pair):
    with pytest.raises(ValueError):
        NodeMultiset([(0.5, 1), pair], PARAMS, (-4, 4))


def test_node_multiset_takes_numpy_and_rational_pairs():
    got = NodeMultiset([(np.float32(0.5), np.int8(2)), (Fraction(3, 2), 1),
                        (2, 2 ** 63 - 1), (np.int64(3), np.uint64(1))],
                       PARAMS, (-4, 4))
    assert got.entries.tolist() == [(0.5, 2), (1.5, 1), (2.0, 2 ** 63 - 1),
                                    (3.0, 1)]


def test_lattice_tail_reports_its_term_limit(monkeypatch):
    lat = saturate(NodeMultiset((), PARAMS, (-8, 8)))
    z = np.array([2.5 + 0.0j])
    weierstrass_product(lat, z, 8, lattice_tail=True)
    monkeypatch.setattr(interpolation, "LATTICE_TAIL_TERMS", 3)
    with pytest.raises(ValueError, match="did not converge in 3 terms"):
        weierstrass_product(lat, z, 8, lattice_tail=True)


BLOCK_RADIUS_EVALUATORS = {
    "product": lambda m, z, a: weierstrass_product(m, z, a),
    "product-tail": lambda m, z, a: weierstrass_product(m, z, a,
                                                        lattice_tail=True),
    "cardinal_kernel": lambda m, z, a: cardinal_kernel(m, z, a),
}


@pytest.mark.parametrize("bad", [-1, 2.5, True, np.float64(8.0), "8", None])
@pytest.mark.parametrize("name", sorted(BLOCK_RADIUS_EVALUATORS))
def test_block_radius_must_be_a_non_negative_integer(name, bad):
    # -1 used to give the empty product 1 without the tail and a message
    # about the tail's reach with it; 2.5 and True ran
    f = BLOCK_RADIUS_EVALUATORS[name]
    lat = saturate(NodeMultiset((), PARAMS, (-8, 8)))
    with pytest.raises(ValueError, match=re.escape(
            f"block_radius must be a non-negative integer, got {bad!r}")):
        f(lat, np.array([0.5, 2.5]), bad)
    # a NumPy integer is one
    z = np.array([0.5, 2.5, 0.0])
    assert np.array_equal(f(lat, z, np.int64(8)), f(lat, z, 8))
    assert f(lat, z / 10.0, 0).shape == z.shape


def test_kernel_and_tailed_product_take_an_empty_point_array():
    mset = saturate(random_admissible_multiset(PARAMS, (-12, 12),
                                               np.random.default_rng(3)))
    empty = np.array([], complex)
    for got in (cardinal_kernel(mset, empty, 8),
                weierstrass_product(mset, empty, 8, lattice_tail=True),
                weierstrass_product(mset, empty, 8)):
        assert got.shape == (0,) and got.dtype == complex


def test_certificates_build_kernel_factors_once(monkeypatch):
    interpolation._factor_cache.clear()
    calls = {"bump_transform": 0, "_lattice_tail": 0}
    for name in calls:
        inner = getattr(interpolation, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(interpolation, name, counted)
    locality_radius(4.0, 1e-2, PARAMS, family_size=4, window_blocks=24)
    assert calls == {"bump_transform": 1, "_lattice_tail": 1}
    decay_constant(PARAMS)
    assert calls == {"bump_transform": 2, "_lattice_tail": 2}


def test_identical_multisets_give_identical_kernels():
    rng = np.random.default_rng(8)
    mset = saturate(random_admissible_multiset(PARAMS, (-40, 40), rng))
    xs = np.linspace(-4.0, 4.0, 65).astype(complex)
    v1 = cardinal_kernel(mset, xs, 32)
    v2 = cardinal_kernel(mset, xs, 32)
    assert np.array_equal(v1, v2)


def test_agreeing_pair_agrees_inside_radius():
    rng = np.random.default_rng(4)
    m1, m2 = agreeing_pair(PARAMS, (-48, 48), 16.0, rng)
    inner1 = [e for e in m1.entries.tolist() if abs(e[0]) <= 16.0]
    inner2 = [e for e in m2.entries.tolist() if abs(e[0]) <= 16.0]
    assert inner1 == inner2
    assert m1.entries.tolist() != m2.entries.tolist()
    # certified radius 16 puts their kernels within 1e-2 near the origin
    xs = np.linspace(-4.0, 4.0, 65).astype(complex)
    gap = np.max(np.abs(cardinal_kernel(m1, xs, 40)
                        - cardinal_kernel(m2, xs, 40)))
    assert float(gap) < 1e-2


# ---------------------------------------------------------------------------
# properties of the record-array representation, against per-entry loops

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def grid_params(draw):
    l = draw(st.integers(1, 3))
    # l*rho >= 1 keeps the origin gap 1/rho within one block
    return GridParams(l=l, rho=Fraction(draw(st.integers(1, 4)), l), tau=0.5)


@st.composite
def multisets(draw):
    """Arbitrary multisets, integer positions (block anchors among them)
    and nodes outside the window included; about a third overflow a
    block."""
    params = draw(grid_params())
    lo = draw(st.integers(-5, 1))
    hi = draw(st.integers(lo, 5))
    span = st.floats((lo - 1) * params.l, (hi + 2) * params.l)
    pos = draw(st.lists(st.one_of(span, span.map(round)), unique=True,
                        max_size=24))
    mult = draw(st.lists(st.integers(1, 3), min_size=len(pos),
                         max_size=len(pos)))
    return NodeMultiset(sorted(zip(map(float, pos), mult)), params, (lo, hi))


def reference_block_counts(mset, window):
    lo, hi = window
    counts = {n: 0 for n in range(lo, hi + 1)}
    for p, m in mset.entries.tolist():
        n = math.floor(p / mset.params.l)
        if lo <= n <= hi:
            counts[n] += m
    return counts


@PROPERTY
@given(multisets(), st.integers(-2, 2), st.integers(-2, 2))
def test_conditions_match_per_entry_reference(mset, dlo, dhi):
    lo, hi = mset.window
    window = (lo + dlo, max(lo + dlo, hi + dhi))
    rewindowed = NodeMultiset(mset.entries, mset.params, window)
    counts = reference_block_counts(mset, window)
    assert rewindowed.block_counts().tolist() == list(counts.values())
    cap = mset.params.lrho
    nonzero = [abs(p) for p, _ in mset.entries.tolist()
               if abs(p) > POSITION_ZERO_TOL]
    c1 = not nonzero or min(nonzero) >= mset.params.min_gap - CONDITION_SLACK
    over = tuple(n for n, c in counts.items() if c > cap)
    c3 = not over and all(c == cap for n, c in counts.items() if n != 0)
    rep = check_conditions(rewindowed)
    assert (rep.c1, rep.c2, rep.c3) == (c1, not over, c3)
    assert rep.offending_blocks == over


@PROPERTY
@given(multisets())
def test_saturate_pads_blocks_and_is_idempotent(mset):
    counts = reference_block_counts(mset, mset.window)
    cap = mset.params.lrho
    if any(c > cap for c in counts.values()):
        with pytest.raises(BlockOverflowError):
            saturate(mset)
        return
    masses = dict(mset.entries.tolist())
    for n, c in counts.items():
        if n != 0 and c < cap:
            anchor = float(n * mset.params.l)
            masses[anchor] = masses.get(anchor, 0) + cap - c
    s = saturate(mset)
    assert s.entries.tolist() == sorted(masses.items())
    assert saturate(s).entries.tolist() == s.entries.tolist()
    assert check_conditions(s).c3


def argsort_saturate(mset):
    """saturate as a merge by stable argsort: the entries, then the anchors,
    sorted stably by position, and runs of one position summed into their
    first record."""
    p, (lo, hi) = mset.params, mset.window
    counts = mset.block_counts()
    if counts.max(initial=0) > p.lrho:
        raise BlockOverflowError(0, 0, p.lrho)
    ns = np.arange(lo, hi + 1)
    fill = np.where(ns != 0, p.lrho - counts, 0)
    anchors = interpolation.node_records(ns[fill > 0] * float(p.l),
                                         fill[fill > 0])
    merged = np.concatenate([mset.entries, anchors])
    merged = merged[np.argsort(merged["pos"], kind="stable")]
    fresh = np.flatnonzero(np.diff(merged["pos"], prepend=-np.inf) > 0.0)
    out = merged[fresh]
    out["mult"] = np.add.reduceat(merged["mult"], fresh)
    return out


@st.composite
def anchored_multisets(draw):
    """Multisets with many nodes exactly on block anchors n*l, with
    multiplicities, beside nodes inside blocks and outside the window."""
    params = draw(grid_params())
    lo = draw(st.integers(-6, 0))
    hi = draw(st.integers(lo, 6))
    l = params.l
    anchors = st.integers(lo - 1, hi + 1).map(lambda n: float(n * l))
    inside = st.floats((lo - 1) * l, (hi + 2) * l)
    pos = draw(st.lists(st.one_of(anchors, anchors, inside), unique=True,
                        max_size=20))
    mult = draw(st.lists(st.integers(1, 3), min_size=len(pos),
                         max_size=len(pos)))
    return NodeMultiset(sorted(zip(pos, mult)), params, (lo, hi))


@settings(PROPERTY, max_examples=300)
@given(anchored_multisets())
def test_saturate_on_anchor_nodes_matches_argsort_merge(mset):
    try:
        want = argsort_saturate(mset)
    except BlockOverflowError:
        with pytest.raises(BlockOverflowError):
            saturate(mset)
        return
    got = saturate(mset)
    assert got.entries.dtype == interpolation.NODE_DTYPE
    assert got.entries.tobytes() == want.tobytes()
    assert got.window == mset.window and got.params is mset.params


def derived_multisets(params, half, radius, seed):
    """Every multiset a saturation or an agreeing pair returns from one
    seed: the saturated draw and both members of the pair."""
    rng = np.random.default_rng(seed)
    window = (-half, half)
    drawn = random_admissible_multiset(params, window, rng)
    pair = agreeing_pair(params, window, radius, rng)
    return [drawn, saturate(drawn), *pair]


@settings(PROPERTY, max_examples=200)
@given(grid_params(), st.integers(1, 12), st.floats(0.0, 16.0),
       st.integers(0, 2 ** 32 - 1))
def test_derived_multisets_are_read_only_and_pass_the_checks(params, half,
                                                             radius, seed):
    for mset in derived_multisets(params, half, radius, seed):
        assert not mset.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mset.entries["mult"][:1] = 7
        # the public constructor checks them and keeps their bytes
        again = NodeMultiset(mset.entries, mset.params, mset.window)
        assert again.entries.tobytes() == mset.entries.tobytes()
        assert again.window == mset.window
        assert all(type(end) is int for end in mset.window)


# ---------------------------------------------------------------------------
# the random draws against their per-member bodies, frozen here


def reference_random_admissible_multiset(params, window, rng,
                                         allow_multiplicity=True):
    """random_admissible_multiset as one member's body: records of the
    plain blocks and of blocks -1 and 0, each drawn in turn, then sorted
    by one argsort."""
    lo, hi = window
    l, cap, gap = params.l, params.lrho, params.min_gap
    blocks = np.arange(lo, hi + 1)
    counts = rng.integers(0, cap + 1, size=blocks.size)
    plain = (blocks != -1) & (blocks != 0) & (counts > 0)
    reps = counts[plain]
    pts = (np.repeat(blocks[plain] * l, reps).astype(float)
           + rng.uniform(0.0, l - 1e-9, size=int(reps.sum())))
    mult = np.ones(pts.size, dtype=int)
    if allow_multiplicity and pts.size:
        first = np.concatenate(([0], np.cumsum(reps)))[:-1]
        upgrade = (reps < cap) & (rng.random(size=reps.size) < 0.1)
        mult[first[upgrade]] = 2
    pos_parts, mult_parts = [pts], [mult]
    for n in (-1, 0):
        if not (lo <= n <= hi):
            continue
        count = int(rng.integers(0, cap + 1))
        a, b = (gap, l) if n == 0 else (-l, -gap)
        if count == 0 or b - a <= 1e-9:
            continue
        near = np.sort(rng.uniform(a, b - 1e-9, size=count))
        near = near[np.concatenate(([True], np.diff(near) > 1e-9))]
        m = np.ones(near.size, dtype=int)
        extra = cap - near.size
        for j in range(near.size):
            if allow_multiplicity and extra > 0 and rng.random() < 0.1:
                m[j] = 2
                extra -= 1
        pos_parts.append(near)
        mult_parts.append(m)
    rec = interpolation.node_records(np.concatenate(pos_parts),
                                     np.concatenate(mult_parts))
    rec = rec[np.argsort(rec["pos"])]
    return NodeMultiset(rec, params, (lo, hi))


def reference_agreeing_pair(params, window, inside_radius, rng):
    """agreeing_pair as one pair's body: two reference draws, and the
    variant as three sorted slices, outer below, inner, outer above."""
    base = reference_random_admissible_multiset(params, window, rng, False)
    other = reference_random_admissible_multiset(params, window, rng, False)
    lo, hi = base.window
    pos = base.positions()
    inner = base.entries[np.searchsorted(pos, -inside_radius, "left"):
                         np.searchsorted(pos, inside_radius, "right")]
    reach = inside_radius + params.min_gap
    pos = other.positions()
    below = other.entries[:np.searchsorted(pos, -reach, "left")]
    above = other.entries[np.searchsorted(pos, reach, "right"):]
    outer = np.concatenate([below["pos"], above["pos"]])
    blocks = np.floor(outer / params.l).astype(np.int64)
    rank = np.arange(blocks.size) - np.searchsorted(blocks, blocks)
    inner_blocks = np.floor(inner["pos"] / params.l).astype(np.int64)
    counts = np.bincount(inner_blocks - lo, minlength=hi - lo + 1)
    take = rank < params.lrho - counts[blocks - lo]
    variant = np.concatenate([below[take[:below.size]], inner,
                              above[take[below.size:]]])
    return base, NodeMultiset(variant, params, base.window)


@st.composite
def draw_windows(draw):
    """Windows with and without blocks -1 and 0, and with one of them."""
    lo = draw(st.integers(-9, 4))
    return lo, draw(st.integers(lo, lo + 12))


@settings(PROPERTY, max_examples=300)
@given(grid_params(), draw_windows(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_random_admissible_multiset_matches_frozen_reference(
        params, window, allow_multiplicity, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_admissible_multiset(params, window, rng, allow_multiplicity)
    want = reference_random_admissible_multiset(params, window, ref_rng,
                                                 allow_multiplicity)
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got.window == want.window
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(PROPERTY, max_examples=300)
@given(grid_params(), draw_windows(), st.floats(0.0, 16.0),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_agreeing_pair_family_matches_reference_calls(params, window, radius,
                                                      seed, size):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = agreeing_pair(params, window, radius, rng, size=size)
    want = [reference_agreeing_pair(params, window, radius, ref_rng)
            for _ in range(size)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert type(got) is list and len(got) == size
    for pair, ref in zip(got, want):
        assert type(pair) is tuple and len(pair) == 2
        for mset, ref_mset in zip(pair, ref):
            assert mset.entries.tobytes() == ref_mset.entries.tobytes()
            assert mset.window == ref_mset.window
            assert not mset.entries.flags.writeable
    # size=None is the one pair a size=1 call returns in a list
    one = agreeing_pair(params, window, radius, np.random.default_rng(seed))
    assert [m.entries.tobytes() for m in one] == [
        m.entries.tobytes() for m in want[0]]


@pytest.mark.parametrize("size", [0, -1, True, 2.0, "2", 1.5])
def test_agreeing_pair_size_must_be_a_positive_integer(size):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=re.escape(
            f"size must be None or an integer of at least 1, got {size!r}")):
        agreeing_pair(PARAMS, (-8, 8), 2.0, rng, size=size)
    # nothing was drawn
    fresh = np.random.default_rng(0)
    assert rng.bit_generator.state == fresh.bit_generator.state
    assert len(agreeing_pair(PARAMS, (-8, 8), 2.0, rng, size=np.int64(2))) == 2


def test_agreeing_pair_checks_the_stacked_draws_once(monkeypatch):
    # each member's positions must rise; one member may start below where
    # the one before it ended
    members = [np.array([-3.5, 2.5]), np.array([-2.5, 3.5]),
               np.array([-3.5, 1.5]), np.array([2.5, 2.5])]
    draws = iter(members)
    monkeypatch.setattr(interpolation, "_draw",
                        lambda *args: (p := next(draws), np.ones(p.size, int)))
    with pytest.raises(ValueError, match="strictly increasing"):
        agreeing_pair(PARAMS, (-4, 4), 1.0, np.random.default_rng(0), size=2)
    draws = iter(members[:2] + [np.array([-3.5, np.nan]), members[0]])
    with pytest.raises(ValueError, match="positions must be finite"):
        agreeing_pair(PARAMS, (-4, 4), 1.0, np.random.default_rng(0), size=2)
    # nodes at +-inside_radius are inner nodes
    draws = iter(members[:2]
                 + [np.array([-3.5, -1.0, 1.0]), np.array([-1.5, 3.5])])
    pairs = agreeing_pair(PARAMS, (-4, 4), 1.0, np.random.default_rng(0),
                          size=2)
    assert [[m.positions().tolist() for m in p] for p in pairs] == [
        [[-3.5, 2.5], [-2.5, 3.5]], [[-3.5, -1.0, 1.0], [-1.0, 1.0, 3.5]]]


# about 2 % of draws offer a boundary block more outer nodes than it has
# room for; 500 examples take that path several times
@settings(PROPERTY, max_examples=500)
@given(grid_params(), st.integers(1, 12), st.floats(0.0, 16.0),
       st.integers(0, 2 ** 32 - 1))
def test_agreeing_pair_matches_sequential_fill(params, half, radius, seed):
    window = (-half, half)
    base, variant = agreeing_pair(params, window, radius,
                                  np.random.default_rng(seed))
    # redraw the two multisets and fill outer nodes one at a time
    rng = np.random.default_rng(seed)
    inner = reference_random_admissible_multiset(params, window, rng,
                                                 allow_multiplicity=False)
    other = reference_random_admissible_multiset(params, window, rng,
                                                 allow_multiplicity=False)
    assert inner.entries.tolist() == base.entries.tolist()
    merged, counts = {}, {}
    for p, m in inner.entries.tolist():
        if abs(p) <= radius:
            merged[p] = m
            blk = math.floor(p / params.l)
            counts[blk] = counts.get(blk, 0) + 1
    for p, m in other.entries.tolist():
        if abs(p) <= radius + params.min_gap:
            continue
        blk = math.floor(p / params.l)
        if counts.get(blk, 0) + m > params.lrho:
            continue
        counts[blk] = counts.get(blk, 0) + m
        merged[p] = m
    assert variant.entries.tolist() == sorted(merged.items())
    assert check_conditions(variant).admissible


# ---------------------------------------------------------------------------
# the kernel split into node-free factors and the per-member product


def reference_kernel(mset, z, block_radius):
    """cardinal_kernel as one expression: window times the saturated
    product with its lattice tail."""
    work = NodeMultiset(mset.entries, mset.params,
                        (-block_radius, block_radius))
    prod = weierstrass_product(saturate(work), z, block_radius,
                               lattice_tail=True)
    return bump_transform(mset.params.tau, z) * prod


SPLIT_PARAMS = (PARAMS, GridParams(l=2, rho=Fraction(3, 2), tau=0.5),
                GridParams(l=3, rho=Fraction(2, 3), tau=0.9))


@PROPERTY
@given(st.sampled_from(SPLIT_PARAMS), st.sampled_from((4, 8, 12)),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(-0.8, 0.8), min_size=1, max_size=40),
       st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
def test_kernel_split_is_bitwise(params, radius, seed, fractions, imag):
    mset = random_admissible_multiset(params, (-radius - 4, radius + 4),
                                      np.random.default_rng(seed))
    z = np.array(fractions) * (radius * params.l) + 1j * imag
    assert np.array_equal(cardinal_kernel(mset, z, radius),
                          reference_kernel(mset, z, radius))


@st.composite
def families(draw):
    """Members of one grid with different windows and multiplicities, a
    block radius, and points that hit some of the members' saturated nodes;
    now and then a point off the real axis."""
    params = draw(st.sampled_from(SPLIT_PARAMS))
    radius = draw(st.sampled_from((4, 8, 12)))
    msets = []
    for _ in range(draw(st.integers(1, 20))):
        half = draw(st.integers(1, radius + 4))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        msets.append(random_admissible_multiset(params, (-half, half), rng))
    reach = 0.8 * radius * params.l
    nodes = {q for m in msets for q in saturate(NodeMultiset(
        m.entries, params, (-radius, radius))).positions().tolist()
        if abs(q) < reach}
    real = st.one_of(st.floats(-reach, reach),
                     st.sampled_from(sorted(nodes) + [0.0]))
    xs = draw(st.lists(real, min_size=1, max_size=40))
    imag = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    return params, radius, msets, np.array(xs) + 1j * imag


def _stacked_rows_match_reference(family):
    params, radius, msets, z = family
    factors = interpolation._kernel_factors(params, z, radius)
    rows = interpolation._kernel_rows(msets, z, radius, factors)
    assert rows.shape == (len(msets), z.size)
    for row, mset in zip(rows, msets):
        assert row.tobytes() == reference_kernel(mset, z, radius).tobytes()


@PROPERTY
@given(families())
def test_stacked_kernels_match_per_member_reference(family):
    _stacked_rows_match_reference(family)


@PROPERTY
@given(families(), st.integers(1, 3))
def test_stacked_kernels_in_member_groups_match_per_member_reference(
        family, share):
    # a cap of `share` members' products, so that 20 members take 7 to 20
    # groups; share 1 also splits a member's product into point blocks
    params, radius, msets, z = family
    width = (2 * radius + 1) * params.lrho * z.size
    cap = share * width - (share == 1) * width // 2
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "ROW_BLOCK_ENTRIES", cap)
        inner = interpolation._saturated_table
        mp.setattr(interpolation, "_saturated_table",
                   lambda *args: tables.append(inner(*args)) or tables[-1])
        _stacked_rows_match_reference(family)
    group = max(1, cap // width)
    assert [len(t) for t in tables] == [
        min(group, len(msets) - i) for i in range(0, len(msets), group)]


def test_stacked_kernels_name_an_inadmissible_member_and_its_blocks():
    # the third member has three nodes in block 2 and two in block -3,
    # where l*rho = 1 allows one
    rng = np.random.default_rng(1)
    good = [random_admissible_multiset(PARAMS, (-8, 8), rng) for _ in range(4)]
    bad = NodeMultiset(((-2.7, 1), (-2.2, 1), (2.1, 1), (2.5, 1), (2.7, 1)),
                       PARAMS, (-8, 8))
    xs = np.linspace(-2.0, 2.0, 9).astype(complex)
    message = re.escape("re-windowed multiset violates conditions (c1=True, "
                        "c2=False, blocks (-3, 2))")
    factors = interpolation._kernel_factors(PARAMS, xs, 6)
    with pytest.raises(ValueError, match=message):
        interpolation._kernel_rows(good[:2] + [bad] + good[2:], xs, 6,
                                   factors)
    with pytest.raises(ValueError, match=message):
        cardinal_kernel(bad, xs, 6)


# members that fail c1, c2 or both on blocks |n| <= 6, with the message
# the stacked path and cardinal_kernel raise for each
INADMISSIBLE = {
    "c1": (((0.5, 1), (3.5, 1)),
           "(c1=False, c2=True, blocks ())"),
    "c2": (((-2.7, 1), (-2.2, 1), (2.1, 1), (2.5, 1), (2.7, 1)),
           "(c1=True, c2=False, blocks (-3, 2))"),
    "both": (((-2.7, 1), (-2.2, 1), (0.3, 1), (2.1, 1), (2.5, 1)),
             "(c1=False, c2=False, blocks (-3, 2))"),
}


@PROPERTY
@given(st.sampled_from(sorted(INADMISSIBLE)), st.integers(1, 8),
       st.data(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_the_first_inadmissible_member_raises_its_message(kind, size, data,
                                                          seed, share):
    rng = np.random.default_rng(seed)
    family = [random_admissible_multiset(PARAMS, (-8, 8), rng)
              for _ in range(size)]
    # three nodes in block 7, beyond the block radius, are admissible there
    family.append(NodeMultiset(((7.1, 1), (7.5, 2)), PARAMS, (-8, 8)))
    entries, message = INADMISSIBLE[kind]
    bad = NodeMultiset(entries, PARAMS, (-8, 8))
    at = data.draw(st.integers(0, len(family)))
    family.insert(at, bad)
    # a later inadmissible member is not the one named
    if data.draw(st.booleans()):
        other = sorted(set(INADMISSIBLE) - {kind})[0]
        family.append(NodeMultiset(INADMISSIBLE[other][0], PARAMS, (-8, 8)))
    xs = np.linspace(-2.0, 2.0, 9).astype(complex)
    factors = interpolation._kernel_factors(PARAMS, xs, 6)
    want = re.escape(f"re-windowed multiset violates conditions {message}")
    report = check_conditions(NodeMultiset(entries, PARAMS, (-6, 6)))
    assert want == re.escape(
        "re-windowed multiset violates conditions (c1="
        f"{report.c1}, c2={report.c2}, blocks {report.offending_blocks})")
    # groups of `share` members, so the member may sit in a later group
    width = (2 * 6 + 1) * PARAMS.lrho * xs.size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "ROW_BLOCK_ENTRIES", share * width)
        with pytest.raises(ValueError, match=f"^{want}$"):
            interpolation._kernel_rows(family, xs, 6, factors)
    with pytest.raises(ValueError, match=f"^{want}$"):
        cardinal_kernel(bad, xs, 6)
    del family[at]
    if len(family) > size + 1:
        family.pop()
    assert interpolation._kernel_rows(family, xs, 6, factors).shape == (
        size + 1, xs.size)


def _locality_peak_mib():
    tracemalloc.start()
    try:
        locality_radius(4.0, 1e-2, PARAMS, seed=3, window_blocks=80)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_locality_family_memory_is_bounded():
    # 200 members of about 145 nodes on 65 points: the float64 product
    # holds 1.9e6 entries, and the call peaked at 15.4 MiB (0.21 MiB when
    # each member took its own product)
    assert _locality_peak_mib() < 24
    # with the cap at 1/8 of the entries, the members go in groups of 53
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "ROW_BLOCK_ENTRIES", 500_000)
        assert _locality_peak_mib() < 8


def test_locality_radius_matches_per_member_reference():
    # the certificate's loop, with the reference kernel per member
    r, eps, family, blocks = 4.0, 1e-2, 3, 24
    xs = np.linspace(-r, r, 65).astype(complex)
    radii = []
    for b in (1.0, 2.0, 4.0, 8.0):
        radii.append(b)
        rng = np.random.default_rng((0, int(b)))
        worst = 0.0
        for _ in range(family):
            m1, m2 = agreeing_pair(PARAMS, (-blocks, blocks), b, rng)
            gap = (reference_kernel(m1, xs, blocks - 8)
                   - reference_kernel(m2, xs, blocks - 8))
            worst = max(worst, float(np.max(np.abs(gap))))
        if worst < eps:
            break
    cert = locality_radius(r, eps, PARAMS, family_size=family,
                           window_blocks=blocks)
    assert cert.certified
    assert (cert.radius, cert.sup_error, cert.radii_tested) == (
        b, worst, tuple(radii))


def test_decay_constant_matches_per_member_reference():
    params = SPLIT_PARAMS[1]
    win = (-48, 48)
    xs = np.linspace(-32.0, 32.0, 513).astype(complex)
    family = [saturate(NodeMultiset((), params, win))]
    family += interpolation._extreme_multisets(params, win)
    family += [random_admissible_multiset(params, win,
                                          np.random.default_rng((5, i)))
               for i in range(64)]
    best = max(float(np.max(np.abs(reference_kernel(m, xs, 40))
                            * (1.0 + xs.real * xs.real)))
               for m in family)
    assert decay_constant(params, seed=5) == best


# ---------------------------------------------------------------------------
# the truncation bound against the sampled certificate it replaced


def sampled_truncation_errors(mset, r, radii, points=16):
    """The sampled error of a truncation at each cut radius B: the largest
    |1 - prod_{|n| > B} (1 - z/n)| over `points` equally spaced z on the
    circle |z| = r, from one running product over the nodes sorted
    outside-in."""
    if r > 0:
        angles = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        zs = r * np.exp(1j * angles)
    else:
        zs = np.array([0.0 + 0.0j])
    pos = np.repeat(mset.positions(), mset.multiplicities())
    absk = np.abs(pos)
    order = np.argsort(absk)
    asc = absk[order]
    # the tail beyond any cut radius is a prefix of this running product
    tails = np.cumprod(1.0 - zs[:, None] / pos[order[::-1]][None, :], axis=1)
    errs = []
    for b in radii:
        k = pos.size - int(np.searchsorted(asc, b, side="right"))
        errs.append(0.0 if k == 0
                    else float(np.max(np.abs(1.0 - tails[:, k - 1]))))
    return np.array(errs)


def reference_truncation_radius(r, eps, params, seed=0, family_size=100,
                                window_blocks=256):
    """The sampled certificate truncation_radius replaced: the same family
    and candidate radii, each member's error read at 16 points of the
    circle |z| = r. Returns (radius or None, error, radii tested)."""
    rng = np.random.default_rng(seed)
    win = (-window_blocks, window_blocks)
    family = [saturate(random_admissible_multiset(params, win, rng))
              for _ in range(family_size)]
    radii = []
    b = float(params.l)
    while b <= window_blocks * params.l / 2:
        radii.append(b)
        b *= 2
    worst = np.max([sampled_truncation_errors(m, r, radii) for m in family],
                   axis=0)
    for j, bj in enumerate(radii):
        if worst[j] < eps:
            return bj, float(worst[j]), tuple(radii[:j + 1])
    return None, float(worst[-1]), tuple(radii)


@pytest.mark.parametrize("r, eps, seed, window", [
    # the `interp radii` settings, seeds 0-3
    (4.0, 1e-2, 0, 4096), (4.0, 1e-2, 1, 4096),
    (4.0, 1e-2, 2, 4096), (4.0, 1e-2, 3, 4096),
    # test_truncation_radius_monotone_in_eps
    (2.0, 1e-2, 0, 2048), (2.0, 2e-2, 0, 2048),
])
def test_truncation_radius_matches_sampled_reference(r, eps, seed, window):
    cert = truncation_radius(r, eps, PARAMS, seed=seed, window_blocks=window)
    radius, sampled, radii = reference_truncation_radius(
        r, eps, PARAMS, seed=seed, window_blocks=window)
    assert cert.certified and radius is not None
    assert (cert.radius, cert.radii_tested) == (radius, radii)
    # measured: the bound reads 0.61 % above the sampled error at the
    # `interp radii` settings, 0.96 % and 2.08 % at r = 2
    assert sampled <= cert.sup_error <= 1.03 * sampled


@PROPERTY
@given(grid_params(), st.integers(2, 300), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 8), st.floats(0.01, 0.99))
def test_truncation_bound_holds_over_sampled_circles(params, half, seed,
                                                     cut, fraction):
    # r < B for the cut radius B the draw picks, B <= r for the ones below
    mset = saturate(random_admissible_multiset(params, (-half, half),
                                               np.random.default_rng(seed)))
    radii = np.array(interpolation._candidate_radii(params, half))
    r = fraction * radii[min(cut, radii.size - 1)]
    bound = interpolation._truncation_bound(mset, r, radii)
    covered = radii > r
    assert np.all(np.isinf(bound[~covered]))
    for points in (16, 256):
        sampled = sampled_truncation_errors(mset, r, radii[covered], points)
        assert np.all(bound[covered] >= sampled)


def test_truncation_bound_past_the_float_range_is_inf():
    # at r = 1000 the B = 1024 exponent overflows and reads inf, with no
    # RuntimeWarning (the test run turns warnings into errors)
    mset = saturate(random_admissible_multiset(PARAMS, (-4096, 4096),
                                               np.random.default_rng(1)))
    radii = np.array([512.0, 1000.0, 1024.0, 2048.0])
    bound = interpolation._truncation_bound(mset, 1000.0, radii)
    assert np.isinf(bound[:3]).all() and np.isfinite(bound[3])


def test_truncation_radius_never_certifies_a_radius_within_r():
    # every candidate radius of a 16-block window is at most r = 8
    cert = truncation_radius(8.0, 1e-2, PARAMS, family_size=2,
                             window_blocks=16)
    assert not cert.certified and cert.radius is None
    assert cert.radii_tested == (1.0, 2.0, 4.0, 8.0)
    assert cert.sup_error == math.inf


@pytest.mark.parametrize("cert, window_blocks", [
    ("truncation", 1), ("truncation", 0),
    # block radius -4 and 3: |x| <= 4 lies beyond the lattice tail's reach
    ("locality", 4), ("locality", 11),
    # a fractional or boolean window is not an integer
    ("truncation", 64.5), ("locality", 64.5), ("truncation", True),
])
def test_radius_certificates_reject_too_small_windows(cert, window_blocks):
    make = {"truncation": truncation_radius, "locality": locality_radius}
    with pytest.raises(ValueError, match="window_blocks"):
        make[cert](4.0, 1e-2, PARAMS, family_size=2,
                   window_blocks=window_blocks)


def test_locality_radius_runs_at_the_smallest_window():
    # block radius 4 holds |x| <= 4 (4 < 0.95 * 5); the largest candidate
    # radius, 4, cannot pin the kernels within 1e-9
    cert = locality_radius(4.0, 1e-9, PARAMS, family_size=1, window_blocks=12)
    assert cert.radii_tested == (1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# integer windows and seeds, and the agreeing radius


NOT_INTEGER_WINDOWS = [(-2.7, 3.9), (True, 3), (-2, 3.0), (np.float64(-2.0), 3),
                       ("-2", 3), (-2, None)]


@pytest.mark.parametrize("window", NOT_INTEGER_WINDOWS)
@pytest.mark.parametrize("make", ["multiset", "random"])
def test_window_ends_must_be_integers(make, window):
    # (-2.7, 3.9) used to become (-2, 3) and (True, 3) (1, 3); a random
    # multiset on (-2.5, 3.5) drew from half-integer blocks
    build = {"multiset": lambda w: NodeMultiset((), PARAMS, w),
             "random": lambda w: random_admissible_multiset(
                 PARAMS, w, np.random.default_rng(0))}[make]
    with pytest.raises(ValueError, match="window ends must be integers"):
        build(window)
    got = build((np.int64(-2), np.int64(3)))
    assert got.window == (-2, 3)
    assert all(type(end) is int for end in got.window)


SEED_CALLS = {
    "truncation": lambda seed: truncation_radius(
        4.0, 1e-2, PARAMS, seed=seed, family_size=2, window_blocks=16),
    "locality": lambda seed: locality_radius(
        4.0, 1e-2, PARAMS, seed=seed, family_size=2, window_blocks=16),
    "decay": lambda seed: decay_constant(PARAMS, seed=seed),
}


@pytest.mark.parametrize("seed", [True, "3", 1.5, -1, None, np.float64(3.0)])
@pytest.mark.parametrize("name", sorted(SEED_CALLS))
def test_seeds_must_be_non_negative_integers(name, seed):
    # True ran as seed 1, and decay_constant read seed "3" as 3
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a non-negative integer, got {seed!r}")):
        SEED_CALLS[name](seed)


@pytest.mark.parametrize("name", sorted(SEED_CALLS))
def test_a_numpy_integer_seed_is_a_seed(name):
    assert SEED_CALLS[name](np.int64(3)) == SEED_CALLS[name](3)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0,
                                    True, "4", None, 1j])
def test_agreeing_pair_needs_a_finite_non_negative_radius(radius):
    # nan gave a variant with no nodes beside a base with 11, and inf the
    # base twice
    with pytest.raises(ValueError, match="inside_radius must be a finite"):
        agreeing_pair(PARAMS, (-8, 8), radius, np.random.default_rng(0))
