"""The kernel's node-free factors: the lattice tail summed in one array pass
against the term-by-term sum it replaces, bit for bit, and the cache that
keeps the window and the tail of each probe grid."""

from fractions import Fraction

import numpy as np
import pytest

from bandtile import interpolation, numutil
from bandtile.interpolation import (TAIL_REACH, GridParams, _kernel_factors,
                                    _lattice_tail, bump_transform,
                                    cardinal_kernel,
                                    random_admissible_multiset, saturate)

PARAMS = GridParams(l=1, rho=Fraction(1), tau=0.5)


def reference_tail(w, block_radius, lrho):
    """The lattice tail as the series was summed before, one term at a
    time, stopping at the first k where max|term| <= 1e-18 (1 + max|total|)
    over all points."""
    if not w.size:
        return np.ones_like(w)
    wmax = float(np.max(np.abs(w)))
    q = block_radius + 1
    if wmax >= TAIL_REACH * q:
        raise ValueError("evaluation point too close to the idealized tail")
    r2 = (w / q) ** 2
    power = np.array(r2, copy=True)
    total = np.zeros_like(r2)
    for k in range(1, interpolation.LATTICE_TAIL_TERMS + 1):
        term = power * (interpolation._zeta_tail_scaled(2 * k, q) / k)
        total += term
        if np.max(np.abs(term)) <= 1e-18 * (1.0 + np.max(np.abs(total))):
            break
        power = power * r2
    else:
        raise ValueError("lattice tail series did not converge")
    return np.exp(-lrho * total)


def tail_points(block_radius, kind, seed=0):
    """Points w = z/l for the tail at block radius A: on the real axis, off
    it, all zero (both signs), or near the reach TAIL_REACH (A+1)."""
    q = block_radius + 1
    rng = np.random.default_rng((block_radius, seed))
    re = rng.uniform(-0.9, 0.9, 60) * TAIL_REACH * q
    if kind == "axis":
        # real points as complex, the integers among them and both zeros
        zeros = np.array([0.0, -0.0])
        real = np.concatenate([re, np.trunc(re[:20]), zeros])
        signs = rng.choice([0.0, -0.0], real.size)
        return real + 1j * signs
    if kind == "off-axis":
        room = np.sqrt((0.94 * TAIL_REACH * q) ** 2 - re ** 2)
        return re + 1j * rng.uniform(-1.0, 1.0, re.size) * room
    if kind == "zero":
        return np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
    # near the reach, on the axis and off it, beside small points
    edge = TAIL_REACH * q * (1.0 - 1e-9)
    turns = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 9))
    return np.concatenate([[edge, -edge], edge * turns, re[:10] / 100.0])


KINDS = ["axis", "off-axis", "zero", "reach"]


@pytest.mark.parametrize("lrho", [1, 2, 3])
@pytest.mark.parametrize("block_radius", [0, 8, 56, 128])
@pytest.mark.parametrize("kind", KINDS)
def test_lattice_tail_equals_term_by_term_reference_bitwise(kind,
                                                            block_radius,
                                                            lrho):
    w = tail_points(block_radius, kind)
    got = _lattice_tail(w, block_radius, lrho)
    assert got.tobytes() == reference_tail(w, block_radius, lrho).tobytes()


# Points whose tail moves in the last place when their row block stops
# the series at its own first small term, not at the row where the point
# at 0.93 (A+1) lets the whole call stop; found by a random search, 3
# parts of 160,000.
STOP_SENSITIVE = [(127, 57.89847996643537 + 54.217543176478635j),
                  (30, 0.11635553525060027 + 27.768050897003498j)]


@pytest.mark.parametrize("cap", [1, 37, 500])
@pytest.mark.parametrize("block_radius, point", STOP_SENSITIVE)
def test_lattice_tail_in_row_blocks_equals_reference_bitwise(
        monkeypatch, cap, block_radius, point):
    # the point that sets the stop comes last, in another block
    q = block_radius + 1
    rng = np.random.default_rng(cap)
    others = rng.uniform(0.0, 0.9, 30) ** 3 * q * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, 30))
    w = np.concatenate([[point], others, [0.93 * q]])
    want = reference_tail(w, block_radius, 1).tobytes()
    monkeypatch.setattr(numutil, "ROW_BLOCK_ENTRIES", cap)
    assert _lattice_tail(w, block_radius, 1).tobytes() == want


def test_lattice_tail_past_a_short_estimate_equals_reference_bitwise(
        monkeypatch):
    # the series length starts from an estimate and doubles while the stop
    # is not met; from one term it must double its way to the same row
    w = tail_points(56, "axis")
    want = reference_tail(w, 56, 1).tobytes()
    monkeypatch.setattr(interpolation, "_tail_length", lambda *args: 1)
    assert _lattice_tail(w, 56, 1).tobytes() == want


def fresh_factors(params, z, block_radius):
    return (bump_transform(params.tau, z),
            _lattice_tail(z / params.l, block_radius, params.lrho))


def test_cached_factors_equal_fresh_ones_and_are_read_only():
    interpolation._factor_cache.clear()
    z = np.linspace(-6.0, 6.0, 97).astype(complex)
    first = _kernel_factors(PARAMS, z, 12)
    again = _kernel_factors(PARAMS, z.copy(), 12)
    assert all(a is b for a, b in zip(first, again))
    for got, want in zip(again, fresh_factors(PARAMS, z, 12)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0


def test_factor_keys_that_differ_do_not_collide():
    interpolation._factor_cache.clear()
    z = np.linspace(-6.0, 6.0, 65).astype(complex)
    moved = z.copy()
    moved[7] += 1e-12
    signed = z.copy()
    signed[32] = complex(0.0, -0.0)
    cases = [(PARAMS, z, 12),
             (GridParams(l=1, rho=Fraction(1), tau=0.7), z, 12),
             (GridParams(l=1, rho=Fraction(2), tau=0.5), z, 12),
             (GridParams(l=2, rho=Fraction(1, 2), tau=0.5), z, 12),
             (PARAMS, z, 13),
             (PARAMS, moved, 12),
             (PARAMS, signed, 12)]
    assert len({(p.tau, p.l, p.lrho) for p, _, _ in cases}) == 4
    for params, points, radius in cases:
        _kernel_factors(params, points, radius)
    assert len(interpolation._factor_cache) == len(cases)
    for params, points, radius in cases:
        got = _kernel_factors(params, points, radius)
        for a, b in zip(got, fresh_factors(params, points, radius)):
            assert a.tobytes() == b.tobytes()


def test_factor_cache_keeps_its_bounds():
    interpolation._factor_cache.clear()
    entries = interpolation.FACTOR_CACHE_ENTRIES
    for i in range(entries + 5):
        z = np.linspace(-4.0, 4.0, 33 + i).astype(complex)
        _kernel_factors(PARAMS, z, 8)
        assert len(interpolation._factor_cache) <= entries
    # the last grids are the ones kept
    kept = [len(key[-1]) // 16 for key in interpolation._factor_cache]
    assert kept == list(range(38, 38 + entries))
    per_entry = interpolation.FACTOR_CACHE_BYTES // entries
    big = np.linspace(-4.0, 4.0, per_entry // 16).astype(complex)
    factors = _kernel_factors(PARAMS, big, 8)
    for got, want in zip(factors, fresh_factors(PARAMS, big, 8)):
        assert got.tobytes() == want.tobytes()
    assert all(len(key[-1]) < big.nbytes for key in interpolation._factor_cache)
    held = sum(len(key[-1]) + sum(f.nbytes for f in factors)
               for key, factors in interpolation._factor_cache.items())
    assert held <= interpolation.FACTOR_CACHE_BYTES


def test_kernels_on_one_grid_build_the_factors_once(monkeypatch):
    interpolation._factor_cache.clear()
    calls = {"bump_transform": 0, "_lattice_tail": 0}
    for name in calls:
        inner = getattr(interpolation, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(interpolation, name, counted)
    rng = np.random.default_rng(4)
    xs = np.linspace(-28.0, 28.0, 225)
    for _ in range(4):
        mset = saturate(random_admissible_multiset(PARAMS, (-64, 64), rng))
        got = cardinal_kernel(mset, xs, 56)
        assert np.all(np.isfinite(got))
    assert calls == {"bump_transform": 1, "_lattice_tail": 1}
