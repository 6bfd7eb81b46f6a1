"""Weierstrass products, cardinal kernels, the decay constant and the
truncation bound against 30-digit products over the saturated nodes."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from test_bump_oracle import reference as bump_reference

from bandtile import interpolation
from bandtile.interpolation import (
    GridParams,
    NodeMultiset,
    _extreme_multisets,
    bump_transform,
    cardinal_kernel,
    decay_constant,
    random_admissible_multiset,
    saturate,
    weierstrass_product,
)

PARAMS = GridParams(l=1, rho=Fraction(1), tau=0.5)
GRIDS = [PARAMS, GridParams(l=2, rho=Fraction(3, 2), tau=0.5),
         GridParams(l=3, rho=Fraction(2, 3), tau=0.9)]


def saturated_nodes(mset, block_radius):
    """(position, multiplicity) of the saturated multiset on blocks
    |n| <= block_radius, one block at a time: the nodes there, plus the
    anchor n*l of every nonzero block with the multiplicity it lacks."""
    p = mset.params
    nodes = {}
    for n in range(-block_radius, block_radius + 1):
        inside = [(q, m) for q, m in mset.entries.tolist()
                  if n * p.l <= q < (n + 1) * p.l]
        for q, m in inside:
            nodes[q] = nodes.get(q, 0) + m
        missing = p.lrho - sum(m for _, m in inside)
        if n != 0 and missing > 0:
            nodes[float(n * p.l)] = nodes.get(float(n * p.l), 0) + missing
    return sorted(nodes.items())


def product_reference(nodes, z, block_radius, params, lattice_tail):
    """prod (1 - z/n)^m over the nonzero nodes, times, with lattice_tail,
    prod_{n > A} (1 - w^2/n^2)^(l rho) at w = z/l in its Gamma closed form
    Gamma(A+1)^2 / (Gamma(A+1-w) Gamma(A+1+w)), at 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        out = mpmath.mpf(1)
        for q, m in nodes:
            if q != 0.0:
                out *= (1 - z / q) ** m
        if lattice_tail:
            w, q = z / params.l, block_radius + 1
            out *= (mpmath.gamma(q) ** 2
                    / (mpmath.gamma(q - w) * mpmath.gamma(q + w))) ** params.lrho
        return complex(out)


def _points(params, block_radius, seed):
    """40 points with |Re z| <= 0.6 A l: 24 on the real axis, 16 with
    |Im z| <= 2 l."""
    rng = np.random.default_rng(seed)
    span = 0.6 * block_radius * params.l
    real = rng.uniform(-span, span, 24)
    cplx = (rng.uniform(-span, span, 16)
            + 1j * rng.uniform(-2.0, 2.0, 16) * params.l)
    return np.concatenate([real.astype(complex), cplx])


@pytest.mark.parametrize("params", GRIDS)
def test_product_and_kernel_match_30_digit_products(params):
    block_radius = 24
    mset = random_admissible_multiset(params, (-32, 32),
                                      np.random.default_rng(11))
    nodes = saturated_nodes(mset, block_radius)
    sat = saturate(NodeMultiset(mset.entries, params,
                                (-block_radius, block_radius)))
    z = _points(params, block_radius, 12)
    plain = np.array([product_reference(nodes, x, block_radius, params, False)
                      for x in z])
    tailed = np.array([product_reference(nodes, x, block_radius, params, True)
                       for x in z])
    checks = [
        (weierstrass_product(sat, z, block_radius), plain),
        (weierstrass_product(sat, z, block_radius, lattice_tail=True), tailed),
        # the window factor has its own oracle in test_bump_oracle.py
        (cardinal_kernel(mset, z, block_radius),
         bump_transform(params.tau, z) * tailed),
    ]
    for got, want in checks:
        rel = np.abs(got - want) / np.abs(want)
        # measured worst: 8.0e-14 (l = 2, l rho = 3), 6.3e-14 on the unit
        # grid; products of 50 to 150 factors, each rounded to 2**-53
        assert np.max(rel) <= 1e-12


@pytest.mark.parametrize("params", GRIDS)
def test_decay_constant_patterns_match_30_digit_kernels(params):
    """decay_constant's bare lattice and five extreme patterns (blocks
    -48..48, block radius 40), each at the arg-max of |kernel(x)| (1 + x^2)
    on its 513-point grid of [-32, 32]: the window from the 30-digit bump
    reference, times the 30-digit product over the saturated nodes with
    the lattice tail in Gamma form. The patterns pin K on these grids."""
    win, block_radius = (-48, 48), 40
    xs = np.linspace(-32.0, 32.0, 513)
    weight = 1.0 + xs * xs
    msets = ([saturate(NodeMultiset((), params, win))]
             + _extreme_multisets(params, win))
    peaks = []
    for mset in msets:
        env = np.abs(cardinal_kernel(mset, xs.astype(complex),
                                     block_radius)) * weight
        i = int(np.argmax(env))
        want = (abs(bump_reference(params.tau, xs[i])
                    * product_reference(saturated_nodes(mset, block_radius),
                                        xs[i], block_radius, params, True))
                * weight[i])
        # measured worst: 1.8e-14 (l = 2, l rho = 3, right-edge pattern at
        # x = 1.625); 7.4e-15 on the unit grid
        assert abs(env[i] - want) <= 1e-12 * want
        peaks.append(env[i])
    assert decay_constant(params) == max(peaks)


# fixed-point fraction bits of the circle products: about 48 digits
FRAC = 160


def _fixed(x):
    return int(mpmath.floor(x * 2 ** FRAC))


def circle_sup(pos, mult, r, cuts, points=64):
    """max over `points` equally spaced z on |z| = r of
    |1 - prod_{|n| > B} (1 - z/n)^m| for each cut radius B. The nodes are
    real, so the product at conj(z) is the conjugate of the one at z, and
    the points of the upper half circle carry the whole maximum.

    mpmath gives the reciprocals 1/n and the points at 50 digits; the
    products run in fixed point on Python integers, 2**-160 per rounding,
    since about 6000 factors at 64 points take mpmath's own complex
    arithmetic several seconds. Each factor is at most 1 + r/|n| in
    modulus, so for r = 4 and |n| <= 4096 every running product stays
    below e^(r sum 1/|n|) < e^12, and the k < 8192 steps, each rounding
    by a few 2**-160 of at most e^12, leave every product within 1e-33 of
    the exact one."""
    one = 1 << FRAC
    far = np.abs(pos) > min(cuts)
    pos, mult = pos[far], mult[far]
    order = np.argsort(-np.abs(pos), kind="stable")
    with mpmath.workdps(50):
        inv = [(_fixed(1 / mpmath.mpf(float(pos[i]))), int(mult[i]),
                abs(float(pos[i]))) for i in order]
        zs = [(_fixed(r * mpmath.cospi(mpmath.mpf(2 * j) / points)),
               _fixed(r * mpmath.sinpi(mpmath.mpf(2 * j) / points)))
              for j in range(points // 2 + 1)]
    sup = {b: mpmath.mpf(0) for b in cuts}
    for zr, zi in zs:
        pr, pi = one, 0
        cut = iter(sorted(cuts, reverse=True))
        b = next(cut)
        for v, m, a in inv + [(0, 0, 0.0)]:
            while b is not None and a <= b:
                with mpmath.workdps(30):
                    gap = mpmath.mpc(one - pr, -pi) / one
                    sup[b] = max(sup[b], abs(gap))
                b = next(cut, None)
            if b is None:
                break
            fr, fi = one - ((zr * v) >> FRAC), -((zi * v) >> FRAC)
            for _ in range(m):
                pr, pi = (pr * fr - pi * fi) >> FRAC, (pr * fi + pi * fr) >> FRAC
    return sup


def test_truncation_bound_holds_over_30_digit_circle_products():
    """Two family members at the `interp radii` settings (r = 4, window
    4096 blocks, seed 3), cut at B = 1024 and 2048: the float sums match
    30-digit sums within their allowance, and the bound sits above the
    largest |1 - prod| at 64 points of |z| = 4."""
    r, cuts = 4.0, (1024.0, 2048.0)
    rng = np.random.default_rng(3)
    for _ in range(2):
        mset = saturate(random_admissible_multiset(PARAMS, (-4096, 4096),
                                                   rng))
        pos, mult = mset.positions(), mset.multiplicities()
        sums, slack = interpolation._dropped_sums(mset, np.array(cuts))
        with mpmath.workdps(30):
            for j, b in enumerate(cuts):
                far = [(mpmath.mpf(float(q)), int(m))
                       for q, m in zip(pos, mult) if abs(q) > b]
                exact = [mpmath.fsum(m / q for q, m in far),
                         mpmath.fsum(m / q ** 2 for q, m in far),
                         mpmath.fsum(m / abs(q) ** 3 for q, m in far)]
                # measured: the sums are 1e-3 of their allowance or closer
                for row in range(3):
                    assert abs(float(sums[row, j]) - exact[row]) <= slack[row, j]
        bound = interpolation._truncation_bound(mset, r, np.array(cuts))
        sup = circle_sup(pos, mult, r, cuts)
        for j, b in enumerate(cuts):
            # measured: 1.6 % above at 1024, 0.6 % at 2048
            assert sup[b] <= bound[j]
