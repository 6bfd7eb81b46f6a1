"""Interpolation kernels built from node multisets on the line.

A node multiset is a read-only array of (position, multiplicity) records,
grouped into blocks [n*l, (n+1)*l). Admissible multisets keep every nonzero
node at distance >= 1/rho from the origin (condition c1) and at most l*rho
nodes per block (c2); saturated multisets additionally fill every nonzero
block to exactly l*rho nodes (c3). Saturation pads deficient blocks with
copies of the block anchor n*l.

From a saturated multiset the conditionally convergent product
f(z) = prod (1 - z/lambda), taken over symmetric block pairs, defines an
entire function with f(0) = 1 and zeros exactly at the nodes. Multiplying by
the Fourier transform of a smooth bump window gives a rapidly decreasing
cardinal kernel: value 1 at the origin, 0 at every other node. The bump
window, its quadrature rule and bump_transform live in bandlimited, beside
the bump kernel of band-limited signals; this module imports
bump_transform for the window factor.

Products are evaluated over a finite block radius A. The plain mode is a
bare partial product; the `lattice_tail` mode completes blocks beyond A with
the idealized saturated lattice (l*rho nodes at each anchor), summed in
closed form through the Hurwitz zeta function. The idealized tail is exact
for the unit lattice, which is what makes desk-scale evaluations match the
sin(pi z)/(pi z) limit to near machine precision. Its log series is summed
in one array pass over all terms and points, with the bits and the stopping
rule of the sum taken term by term.

A cardinal kernel's window and tail depend on the grid, the points and the
block radius, not on the nodes: they are computed once per probe grid and
kept, read-only, for the last few grids, so the certificates and repeated
kernels on one grid pay only for the finite product.

All kernels go through one path, which takes a list of multisets on one
grid and gives one row per member: cardinal_kernel and each decay_constant
member pass one, and locality_radius passes the 2 * family_size members of
one candidate radius, its agreeing pairs drawn first. Each member is
re-windowed and checked by check_conditions on its own; then the members'
saturation (one block count, one anchor fill, one sort) and their finite
products are taken in one stacked pass over a zero-padded table of
reciprocal nodes, in member groups whose product holds at most
numutil.ROW_BLOCK_ENTRIES entries. Each row has the bits of a one-member
call.

Like bump_transform, the finite product reduces points on the real axis.
When every point is real it is a float64 product over the reciprocal
nodes, node by node, whose real parts are those of the complex product bit
for bit; a pad's factor 1 - 0*x is exactly 1.0, and a point on a node,
whose zero takes its sign from the complex product, is recomputed that way
over its member's nodes alone. Otherwise the whole call takes the complex
product, member by member. On the real axis only the sign of a zero
imaginary part may differ from the complex product's.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .bandlimited import bump_transform
from .numutil import (block_rows, is_finite_real, is_integer, pointwise,
                      row_blocks)

POSITION_ZERO_TOL = 1e-12
CONDITION_SLACK = 1e-9
# the lattice tail accepts |w| < TAIL_REACH * (A+1); at that ratio its log
# series converges in about 400 terms, and a series that reaches the limit
# raises
TAIL_REACH = 0.95
LATTICE_TAIL_TERMS = 1999


class BlockOverflowError(ValueError):
    """A block holds more nodes than l*rho; saturation is impossible."""

    def __init__(self, block: int, count: int, capacity: int):
        self.block = block
        self.count = count
        self.capacity = capacity
        super().__init__(f"block {block} holds {count} nodes, capacity {capacity}")


@dataclass(frozen=True)
class GridParams:
    """Block length l, density rho (rational), window support tau.

    l must be a positive integer (a bool is not one), stored as an int;
    rho a finite real number, stored as a Fraction, with l*rho a positive
    integer: it is the per-block node capacity; tau a finite positive
    real number, stored as a float. A bool is a number for none of them.
    """

    l: int
    rho: Fraction
    tau: float

    def __post_init__(self):
        if not (is_integer(self.l) and self.l > 0):
            raise ValueError(f"l must be a positive integer, got {self.l!r}")
        object.__setattr__(self, "l", int(self.l))
        if not is_finite_real(self.rho):
            raise ValueError(
                f"rho must be a finite real number, got {self.rho!r}")
        rho = Fraction(self.rho)
        # a NumPy integer would stay one inside the Fraction, and to_json
        # could not write it
        rho = Fraction(int(rho.numerator), int(rho.denominator))
        object.__setattr__(self, "rho", rho)
        if rho <= 0:
            raise ValueError("rho must be positive")
        if (self.l * rho).denominator != 1:
            raise ValueError("l*rho must be an integer")
        if not (is_finite_real(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got "
                             f"{self.tau!r}")
        object.__setattr__(self, "tau", float(self.tau))

    # computed once per instance: saturate, check_conditions and the
    # random families read them on every call, and each read was a
    # Fraction product or quotient
    @cached_property
    def lrho(self) -> int:
        return int(self.l * self.rho)

    @cached_property
    def min_gap(self) -> float:
        return float(1 / self.rho)

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "rho": [self.rho.numerator, self.rho.denominator],
            "tau": self.tau,
        }


NODE_DTYPE = np.dtype([("pos", np.float64), ("mult", np.int64)])


def node_records(pos, mult) -> np.ndarray:
    """NODE_DTYPE records from position and multiplicity arrays."""
    rec = np.empty(len(pos), dtype=NODE_DTYPE)
    rec["pos"], rec["mult"] = pos, mult
    return rec


@dataclass(frozen=True, eq=False)
class NodeMultiset:
    """Point masses on the line with integer multiplicities.

    entries: read-only structured array of NODE_DTYPE records (pos: float64,
    mult: int64), positions finite and strictly increasing, multiplicities
    positive; the constructor raises ValueError otherwise. It takes such
    an array (copied, never iterated in Python) or any sequence of
    (position, multiplicity) pairs. window: inclusive block index range
    (lo, hi) of integers with lo <= hi, stored as ints; conditions and
    saturation are evaluated relative to it.
    """

    entries: np.ndarray
    params: GridParams
    window: tuple

    def __post_init__(self):
        entries = self.entries
        if not (isinstance(entries, np.ndarray) and entries.dtype == NODE_DTYPE):
            entries = [tuple(e) for e in entries]
        entries = np.array(entries, dtype=NODE_DTYPE)
        pos = entries["pos"]
        if not np.isfinite(pos).all():
            raise ValueError("entry positions must be finite")
        if np.any(pos[1:] <= pos[:-1]):
            raise ValueError("entry positions must be strictly increasing")
        if np.any(entries["mult"] <= 0):
            raise ValueError("multiplicities must be positive")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "window", _block_window(self.window))

    def positions(self) -> np.ndarray:
        return self.entries["pos"]

    def multiplicities(self) -> np.ndarray:
        return self.entries["mult"]

    def block_index(self) -> np.ndarray:
        """Block n with n*l <= position < (n+1)*l, per entry."""
        return np.floor(self.positions() / self.params.l).astype(np.int64)

    def block_counts(self) -> np.ndarray:
        """Multiplicity-weighted node count per block; element i counts
        block lo + i of the multiset's window (lo, hi)."""
        lo, hi = self.window
        blocks = self.block_index()
        inside = (blocks >= lo) & (blocks <= hi)
        return np.bincount(blocks[inside] - lo,
                           weights=self.multiplicities()[inside],
                           minlength=hi - lo + 1).astype(np.int64)

    def to_json(self) -> dict:
        obj = self.params.to_json()
        obj["window"] = [self.window[0], self.window[1]]
        obj["entries"] = [[p, m] for p, m in self.entries.tolist()]
        return obj


def _block_window(window) -> tuple:
    """The block window (lo, hi) as ints. Raises ValueError unless both
    ends are integers (a bool or 2.0 is not one: such a window is rejected,
    not cut) and lo <= hi."""
    lo, hi = window
    if not (is_integer(lo) and is_integer(hi)):
        raise ValueError(f"window ends must be integers, got {window!r}")
    if hi < lo:
        raise ValueError("empty block window")
    return int(lo), int(hi)


@dataclass(frozen=True)
class ConditionReport:
    c1: bool
    c2: bool
    c3: bool
    window: tuple
    offending_blocks: tuple = ()

    @property
    def admissible(self) -> bool:
        return self.c1 and self.c2


def check_conditions(mset: NodeMultiset) -> ConditionReport:
    """Evaluate c1 (origin gap), c2 (block capacity), c3 (full nonzero
    blocks) on the multiset's block window."""
    win = mset.window
    p = mset.params
    dist = np.abs(mset.positions())
    c1 = bool(np.all(dist[dist > POSITION_ZERO_TOL] >= p.min_gap - CONDITION_SLACK))
    counts = mset.block_counts()
    ns = np.arange(win[0], win[1] + 1)
    cap = p.lrho
    over = tuple(ns[counts > cap].tolist())
    c2 = not over
    c3 = c2 and bool(np.all((counts == cap) | (ns == 0)))
    return ConditionReport(c1=c1, c2=c2, c3=c3, window=win, offending_blocks=over)


def _anchor_fill(counts: np.ndarray, lo: int, cap: int) -> np.ndarray:
    """The multiplicity that saturation adds at each block's anchor n*l:
    cap - count in every nonzero block, 0 in block 0. The last axis of
    counts runs over blocks lo, lo + 1, ...; a count over cap raises
    BlockOverflowError, at the first such entry in row-major order."""
    if counts.size and counts.max() > cap:
        first = tuple(np.argwhere(counts > cap)[0])
        raise BlockOverflowError(lo + int(first[-1]), int(counts[first]), cap)
    ns = np.arange(lo, lo + counts.shape[-1])
    return np.where(ns != 0, cap - counts, 0)


def saturate(mset: NodeMultiset) -> NodeMultiset:
    """Fill every nonzero block in the window up to l*rho nodes by adding the
    block anchor n*l with the missing multiplicity."""
    p = mset.params
    lo = mset.window[0]
    fill = _anchor_fill(mset.block_counts(), lo, p.lrho)
    add = np.flatnonzero(fill)
    anchors = node_records((lo + add) * float(p.l), fill[add])
    merged = np.concatenate([mset.entries, anchors])
    merged = merged[np.argsort(merged["pos"], kind="stable")]
    # an anchor that is already a node adds to that node's multiplicity
    fresh = np.flatnonzero(np.diff(merged["pos"], prepend=-np.inf) > 0.0)
    out = merged[fresh]
    out["mult"] = np.add.reduceat(merged["mult"], fresh)
    return NodeMultiset(out, p, mset.window)


def _zeta_tail_scaled(k2: int, q: int) -> float:
    """zeta(k2, q) * q**k2 = sum_j (q/(q+j))**k2, computed without overflow."""
    if k2 * math.log10(q) < 250.0:
        return float(hurwitz_zeta(k2, q)) * float(q) ** k2
    total, j = 0.0, 0
    while True:
        t = (q / (q + j)) ** k2
        total += t
        if t < 1e-20:
            return total
        j += 1


# the caches of the tail's coefficients and of _kernel_factors; held while
# a cache is read or changed
_cache_lock = threading.Lock()
# q -> the read-only coefficients zeta(2k, q) q^2k / k, k = 1, 2, ... of
# the tail's log series, as many as a call has needed, for the last
# TAIL_TABLES values of q; complex, as the product power * coefficient
# converts a float coefficient
_tail_tables: OrderedDict = OrderedDict()
TAIL_TABLES = 64
_TAIL_STOP = 1e-18


def _tail_coefficients(q: int, count: int) -> np.ndarray:
    """The first `count` coefficients of the log series at q = A + 1."""
    with _cache_lock:
        have = _tail_tables.pop(q, np.zeros(0, complex))
        if have.size < count:
            more = [_zeta_tail_scaled(2 * k, q) / k
                    for k in range(have.size + 1, count + 1)]
            have = np.concatenate([have, np.array(more, complex)])
            have.flags.writeable = False
        _tail_tables[q] = have
        while len(_tail_tables) > TAIL_TABLES:
            _tail_tables.popitem(last=False)
    return have[:count]


def _tail_length(rmax2: float, q: int, limit: int) -> int:
    """Terms the series should need where the largest |w/q|^2 is rmax2: up
    to the first k whose bound rmax2^k c_k on the largest term is under
    half the stop tolerance, at most `limit`."""
    n = min(limit, 64)
    while True:
        bound = rmax2 ** np.arange(1, n + 1) * _tail_coefficients(q, n).real
        small = np.flatnonzero(bound <= 0.5 * _TAIL_STOP)
        if small.size:
            return min(limit, int(small[0]) + 2)
        if n == limit:
            return limit
        n = min(limit, 4 * n)


def _tail_rows(r2: np.ndarray, coef: np.ndarray):
    """The log series at the points r2 in one array pass: the running
    totals, one row per coefficient, with each row's largest |term| and
    largest |total|. Each entry takes the operations of the term-by-term
    sum: the powers multiplied up one row at a time, a term as power *
    coefficient, and the total from zero by one addition a term."""
    powers = np.empty((coef.size, r2.size), complex)
    powers[0] = r2
    for k in range(1, coef.size):
        np.multiply(powers[k - 1], r2, out=powers[k])
    terms = np.multiply(powers, coef[:, None], out=powers)
    big_term = np.abs(terms).max(axis=1)
    # the total starts at zero, and 0 + term turns a -0 part into +0
    np.add(terms[0], 0.0, out=terms[0])
    totals = np.add.accumulate(terms, axis=0, out=terms)
    return totals, big_term, np.abs(totals).max(axis=1)


def _tail_sum(r2: np.ndarray, coef: np.ndarray):
    """(stop, total): the first row where max|term| <= _TAIL_STOP (1 +
    max|total|) over all points, and the totals there; (None, None) when
    no row of coef reaches it. The points go in row blocks of the series'
    length; with more than one block, every block's maxima are taken before
    the row is chosen, and its totals are summed again up to that row."""
    rows = block_rows(coef.size)
    if r2.size <= rows:
        totals, big_term, big_total = _tail_rows(r2, coef)
    else:
        maxima = [_tail_rows(r2[i:i + rows], coef)[1:]
                  for i in range(0, r2.size, rows)]
        big_term, big_total = np.max(maxima, axis=0)
    done = np.flatnonzero(big_term <= _TAIL_STOP * (1.0 + big_total))
    if not done.size:
        return None, None
    stop = int(done[0])
    if r2.size <= rows:
        return stop, totals[stop]
    return stop, row_blocks(lambda b: _tail_rows(b, coef[:stop + 1])[0][stop],
                            r2, coef.size)


def _lattice_tail(w: np.ndarray, block_radius: int, lrho: int) -> np.ndarray:
    """Product over idealized saturated blocks |n| > A, in symmetric pairs:
    prod_{n>A} (1 - w^2/n^2)^{lrho} = exp(-lrho sum_k c_k (w/q)^2k), with
    q = A + 1 and c_k = zeta(2k, q) q^2k / k (Hurwitz zeta).

    The series is summed in one array pass over all its terms and points
    (_tail_rows), from a cached table of the c_k. It stops at the first k
    where the largest |term| is at most 1e-18 (1 + the largest |total|),
    over all points, with the bits of the sum taken term by term. The
    number of terms is estimated from the largest point and doubled while
    the rule is not met; a series that reaches LATTICE_TAIL_TERMS without
    meeting it raises ValueError."""
    if not w.size:
        return np.ones_like(w)
    wmax = float(np.max(np.abs(w)))
    q = block_radius + 1
    if wmax >= TAIL_REACH * q:
        raise ValueError(
            "evaluation point too close to the idealized tail; "
            f"|z|/l = {wmax:.3g} with block radius {block_radius}")
    r2 = (w / q) ** 2
    limit = LATTICE_TAIL_TERMS
    terms = _tail_length((wmax / q) ** 2, q, limit)
    while True:
        stop, total = _tail_sum(r2, _tail_coefficients(q, terms))
        if stop is not None:
            return np.exp(-lrho * total)
        if terms >= limit:
            raise ValueError(
                f"lattice tail series did not converge in {limit} terms "
                f"(|z|/l = {wmax:.3g}, block radius {block_radius})")
        terms = min(limit, 2 * terms)


def _product_nodes(pos: np.ndarray, blocks: np.ndarray,
                   block_radius: int) -> np.ndarray:
    """Which nodes a product over blocks |n| <= block_radius takes: the
    nonzero ones in those blocks."""
    return (np.abs(pos) > POSITION_ZERO_TOL) & (np.abs(blocks) <= block_radius)


def _reciprocal_table(member: np.ndarray, pos: np.ndarray, mult: np.ndarray,
                      members: int) -> np.ndarray:
    """The (members x width) float64 table of reciprocal nodes that
    _finite_product takes: row i holds 1/node for each node of member i, in
    the given order, repeated by its multiplicity, then zeros up to the
    widest row. The nodes must be finite and nonzero and sorted by member."""
    member = np.repeat(member, mult)
    inv = np.repeat(1.0 / pos, mult)
    sizes = np.bincount(member, minlength=members)
    start = np.cumsum(sizes) - sizes
    table = np.zeros((members, int(sizes.max(initial=0))))
    table[member, np.arange(member.size) - start[member]] = inv
    return table


def _node_table(mset: NodeMultiset, block_radius: int) -> np.ndarray:
    """The one-row _reciprocal_table of the nodes of mset that a product
    over blocks |n| <= block_radius takes."""
    pos = mset.positions()
    keep = _product_nodes(pos, mset.block_index(), block_radius)
    return _reciprocal_table(np.zeros(np.count_nonzero(keep), np.int64),
                             pos[keep], mset.multiplicities()[keep], 1)


def _finite_product(inv: np.ndarray, z_flat: np.ndarray) -> np.ndarray:
    """prod_j (1 - z * inv[i, j]) for each row i of a _reciprocal_table, at
    each point z of the flat complex array z_flat: one row of values per
    member. For a real node, numpy's complex division z/node multiplies by
    1/node too, and the factors 1 - z/node agree bit for bit.

    The reciprocal of a finite node is never 0, so a row's nodes are its
    nonzero entries and its zeros are pads. When every point is real, the
    product is float64, node by node in the row's order, for all rows at
    once; a pad's factor 1 - 0*x is exactly 1.0 (module docstring). A point
    whose product is zero, and every point of a call with one off the real
    axis, take the complex product over the member's row without its pads.
    The points go in row blocks, so that a pass holds at most
    ROW_BLOCK_ENTRIES entries of (rows x width x points) while one point's
    entries fit."""
    sizes = np.count_nonzero(inv, axis=1)

    def complex_rows(z, rows):
        # rows: one row for all points, or one row per point
        return np.prod(1.0 - z[:, None] * rows, axis=1)

    def real_columns(x):
        f = inv[:, :, None] * x
        return np.prod(np.subtract(1.0, f, out=f), axis=1).T

    if z_flat.imag.any():
        out = np.empty((inv.shape[0], z_flat.size), complex)
        for i, size in enumerate(sizes):
            row = inv[i, :size]
            out[i] = row_blocks(lambda z: complex_rows(z, row), z_flat, size)
        return out
    out = np.array(row_blocks(real_columns, z_flat.real, inv.size).T,
                   dtype=complex, order="C")
    # a point on a node gets a zero whose sign the complex product sets by
    # its own rule; those points take the complex product, in one pass for
    # the members of each row size. On the real axis every factor and
    # partial product has a zero imaginary part, so no loop numpy may pick
    # for the pass changes a bit of it.
    held, at = np.nonzero(out.real == 0.0)
    for size in np.unique(sizes[held]):
        pick = np.flatnonzero(sizes[held] == size)
        out[held[pick], at[pick]] = row_blocks(
            lambda b: complex_rows(z_flat[at[b]], inv[held[b], :size]),
            pick, size)
    return out


@pointwise(complex)
def weierstrass_product(mset: NodeMultiset, z, block_radius: int,
                        lattice_tail: bool = False):
    """Partial product prod (1 - z/node) over nonzero nodes in blocks
    |n| <= block_radius, symmetric in the block index, over row blocks of z.

    With lattice_tail=True the blocks beyond the radius are completed with
    the idealized saturated lattice (closed form; near machine precision for
    |z| well inside the radius, exact limit for the unit lattice).

    Points all on the real axis take a float64 product with the real parts
    of the complex one, bit for bit; only the sign of a zero imaginary part
    may differ. Points that are not finite raise ValueError.
    """
    _check_block_radius(block_radius)
    out = _finite_product(_node_table(mset, block_radius), z)[0]
    if lattice_tail:
        p = mset.params
        out = out * _lattice_tail(z / p.l, block_radius, p.lrho)
    return out


def _check_block_radius(block_radius):
    if not (is_integer(block_radius) and block_radius >= 0):
        raise ValueError("block_radius must be a non-negative integer, got "
                         f"{block_radius!r}")


# _kernel_factors keeps its results for the last FACTOR_CACHE_ENTRIES
# probe grids, each of at most FACTOR_CACHE_BYTES // FACTOR_CACHE_ENTRIES
# bytes (key and factors); the factors of a larger grid are not kept
FACTOR_CACHE_ENTRIES = 8
FACTOR_CACHE_BYTES = 2 ** 20
_factor_cache: OrderedDict = OrderedDict()


def _kernel_factors(params: GridParams, z_flat: np.ndarray,
                    block_radius: int):
    """The two kernel factors that no node set changes, on the flat complex
    points z_flat: the bump window transform and the idealized lattice tail
    beyond block_radius, as read-only arrays. A grid met again, with the
    same tau, l, l*rho and block radius, gets the factors computed the
    first time."""
    key = (params.tau, params.l, params.lrho, int(block_radius),
           z_flat.tobytes())
    with _cache_lock:
        factors = _factor_cache.get(key)
        if factors is not None:
            _factor_cache.move_to_end(key)
            return factors
    factors = (bump_transform(params.tau, z_flat),
               _lattice_tail(z_flat / params.l, block_radius, params.lrho))
    for f in factors:
        f.flags.writeable = False
    size = len(key[-1]) + sum(f.nbytes for f in factors)
    if size <= FACTOR_CACHE_BYTES // FACTOR_CACHE_ENTRIES:
        with _cache_lock:
            _factor_cache[key] = factors
            while len(_factor_cache) > FACTOR_CACHE_ENTRIES:
                _factor_cache.popitem(last=False)
    return factors


def _saturated_table(msets: list, block_radius: int) -> np.ndarray:
    """The _reciprocal_table of each multiset of msets, all on one
    GridParams, saturated on blocks |n| <= block_radius, over the nodes a
    product with that block radius takes: one bincount of the block counts
    over (member, block), one anchor fill and one lexsort over (member,
    position) for all members. An anchor on a node follows it in its row,
    which repeats 1/node as the merged multiplicity of saturate would."""
    params = msets[0].params
    span = 2 * block_radius + 1
    entries = np.concatenate([m.entries for m in msets])
    member = np.repeat(np.arange(len(msets)), [m.entries.size for m in msets])
    pos, mult = entries["pos"], entries["mult"]
    blocks = np.floor(pos / params.l).astype(np.int64)
    inside = np.abs(blocks) <= block_radius
    counts = np.bincount((member * span + blocks + block_radius)[inside],
                         weights=mult[inside], minlength=len(msets) * span)
    fill = _anchor_fill(counts.astype(np.int64).reshape(len(msets), span),
                        -block_radius, params.lrho)
    held, block = np.nonzero(fill)
    keep = _product_nodes(pos, blocks, block_radius)
    member = np.concatenate([member[keep], held])
    pos = np.concatenate([pos[keep], (block - block_radius) * float(params.l)])
    mult = np.concatenate([mult[keep], fill[held, block]])
    order = np.lexsort((pos, member))
    return _reciprocal_table(member[order], pos[order], mult[order],
                             len(msets))


def _kernel_rows(msets: list, z_flat: np.ndarray, block_radius: int,
                 factors) -> np.ndarray:
    """cardinal_kernel of each multiset of msets, all on one GridParams, on
    the flat complex points z_flat, given _kernel_factors of those params on
    the same points and block radius: one row per member.

    Each member is re-windowed to blocks (-block_radius, block_radius) and
    checked by check_conditions; the first inadmissible one raises
    ValueError. The members are then saturated and multiplied in groups,
    each group's (members x nodes x points) product within
    ROW_BLOCK_ENTRIES, with one _saturated_table and one _finite_product a
    group."""
    bump, tail = factors
    window = (-block_radius, block_radius)
    works = [NodeMultiset(m.entries, m.params, window) for m in msets]
    for work in works:
        report = check_conditions(work)
        if not report.admissible:
            raise ValueError(
                f"re-windowed multiset violates conditions (c1={report.c1}, "
                f"c2={report.c2}, blocks {report.offending_blocks})")
    # a saturated member has at most l*rho nodes in each block
    width = (2 * block_radius + 1) * msets[0].params.lrho
    group = block_rows(width * z_flat.size)
    finite = np.concatenate([
        _finite_product(_saturated_table(works[i:i + group], block_radius),
                        z_flat)
        for i in range(0, len(works), group)])
    # the rows side by side in one flat product, so that each entry takes
    # the loop of a one-member call; a broadcast over a single entry takes
    # another, and its complex product can differ in the last bit
    rows = len(works)
    flat = np.tile(bump, rows) * (finite.ravel() * np.tile(tail, rows))
    return flat.reshape(finite.shape)


@pointwise(complex)
def cardinal_kernel(mset: NodeMultiset, z, block_radius: int):
    """Kernel equal to 1 at the origin and 0 at every other node of the
    saturated `mset`: bump * (finite * tail), where bump is the bump window
    transform, finite the Weierstrass product over the saturated nodes in
    blocks |n| <= block_radius, and tail the idealized lattice beyond them.
    Only `finite` depends on the nodes: the other two are computed once
    per probe grid and kept for the next calls on the same grid, tau, l,
    l*rho and block radius. bump and finite take z in row blocks. When
    every point is real, bump is real and finite is a float64 product with
    the complex product's real parts, bit for bit; only the sign of a zero
    imaginary part may differ. Points that are not finite raise ValueError.

    The multiset is re-windowed to blocks (-block_radius, block_radius);
    blocks there with no data are treated as empty and saturated to anchors,
    matching the idealized tail beyond the radius. A multiset that is not
    admissible there raises ValueError, naming its blocks over capacity.
    This is the one-member case of the stacked kernel path that
    locality_radius takes for a whole family (module docstring), and gives
    the same bits.
    """
    _check_block_radius(block_radius)
    return _kernel_rows([mset], z, block_radius,
                        _kernel_factors(mset.params, z, block_radius))[0]


# ---------------------------------------------------------------------------
# randomized families and radius certificates


def _allowed_block_interval(n: int, l: int, gap: float):
    """Block [n*l, (n+1)*l) minus the origin exclusion zone (-gap, gap).

    The zone spans at most blocks -1 and 0 because gap = 1/rho <= l.
    """
    a, b = n * l, (n + 1) * l
    if n == 0:
        a = gap
    elif n == -1:
        b = -gap
    return a, b


def random_admissible_multiset(params: GridParams, window, rng,
                               allow_multiplicity: bool = True) -> NodeMultiset:
    """Random multiset satisfying c1 and c2: per-block counts <= l*rho,
    positions uniform in the block, nonzero nodes kept out of (-1/rho, 1/rho).
    The window ends must be integers, as for NodeMultiset."""
    lo, hi = _block_window(window)
    l, cap, gap = params.l, params.lrho, params.min_gap
    blocks = np.arange(lo, hi + 1)
    counts = rng.integers(0, cap + 1, size=blocks.size)
    # blocks -1 and 0 border the origin exclusion zone; handled one by one
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
        a, b = _allowed_block_interval(n, l, gap)
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
    rec = node_records(np.concatenate(pos_parts), np.concatenate(mult_parts))
    rec = rec[np.argsort(rec["pos"])]
    return NodeMultiset(rec, params, (lo, hi))


def agreeing_pair(params: GridParams, window, inside_radius: float, rng):
    """Pair of admissible multisets equal on [-inside_radius, inside_radius]
    and independently random beyond it (buffered by one grid gap).
    inside_radius must be a finite real number >= 0."""
    if not (is_finite_real(inside_radius) and inside_radius >= 0):
        raise ValueError("inside_radius must be a finite real number >= 0, "
                         f"got {inside_radius!r}")
    base = random_admissible_multiset(params, window, rng, allow_multiplicity=False)
    other = random_admissible_multiset(params, window, rng, allow_multiplicity=False)
    inner = NodeMultiset(base.entries[np.abs(base.positions()) <= inside_radius],
                         params, window)
    outer = NodeMultiset(other.entries[np.abs(other.positions())
                                       > inside_radius + params.min_gap],
                         params, window)
    # outer nodes have multiplicity 1, so a block takes them in ascending
    # order while it has room: the first cap - (inner count) of them
    blocks = outer.block_index()
    rank = np.arange(blocks.size) - np.searchsorted(blocks, blocks)
    room = params.lrho - inner.block_counts()[blocks - inner.window[0]]
    merged = np.concatenate([inner.entries, outer.entries[rank < room]])
    variant = NodeMultiset(merged[np.argsort(merged["pos"])], params, window)
    return base, variant


@dataclass(frozen=True)
class RadiusCertificate:
    """The outcome of a radius certificate.

    radius: the first candidate radius certified, or None. sup_error: the
    error at that radius, or at the last one tested when none is certified;
    for truncation_radius a proven bound on the sup over the disk, which
    sits at or above any sampling of it, and for locality_radius the
    largest difference sampled. radii_tested: the candidate radii in the
    order tried, up to and including the certified one.
    """

    radius: float | None
    certified: bool
    eps: float
    sup_error: float
    family_size: int
    radii_tested: tuple


def _check_seed(seed):
    """A family's seed must be a non-negative integer (a bool is not one)."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_certificate_args(r: float, eps: float, family_size: int,
                            window_blocks: int, seed: int):
    """A radius certificate needs a finite r >= 0, a finite eps > 0, at
    least one family member and window_blocks >= 2, so that half the window
    holds the first candidate radius l; otherwise nothing would be checked.
    family_size and window_blocks must be integers (a bool is not one), and
    the seed a non-negative integer."""
    _check_seed(seed)
    if not (is_integer(family_size) and family_size >= 1):
        raise ValueError(
            f"family_size must be an integer of at least 1, got {family_size!r}")
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (is_integer(window_blocks) and window_blocks >= 2):
        raise ValueError("window_blocks must be an integer of at least 2 to "
                         f"hold a candidate radius, got {window_blocks!r}")


def _candidate_radii(params: GridParams, window_blocks: int) -> list:
    """l, 2l, 4l, ... up to half the window, so that the nodes beyond the
    largest are never trivially empty."""
    radii = []
    b = float(params.l)
    while b <= window_blocks * params.l / 2:
        radii.append(b)
        b *= 2
    return radii


# extra roundings of 2**-53 that the allowance of a sum of reciprocal node
# powers grants beyond the sum's own, per unit of sum |terms| (see
# _dropped_sums)
SUM_ROUNDINGS = 16


def _dropped_sums(mset: NodeMultiset, radii: np.ndarray):
    """Sums over the nodes with |n| > B, with multiplicity, for each cut
    radius B of the array `radii`: rows S_1 = sum 1/n, S_2 = sum 1/n^2 and
    A_3 = sum 1/|n|^3, and for each entry an allowance that bounds the
    distance of the float sum from the exact one. The nodes must be
    nonzero.

    Each side of the origin is summed from the outside in, so every cut is
    a prefix of a running sum: O(N) work for all radii together. A term
    takes up to four roundings of 2**-53, and the k terms of a cut k - 1
    additions, so the float sum is within gamma_{k+3} sum |terms| <=
    (k + 3) 2**-52 sum |terms| of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 4.2). The allowance
    (k + SUM_ROUNDINGS) 2**-52 sum |terms| covers that, the rounding of
    sum |terms| itself and the dozen roundings that _truncation_bound takes
    from the sums to the bound, each relative to a value that sum |terms|
    bounds.
    """
    pos = mset.positions()
    inv = 1.0 / pos
    t1 = mset.multiplicities() * inv
    t2 = t1 * inv
    terms = np.stack([t1, t2, np.abs(t2 * inv), np.abs(t1)])
    neg = int(np.searchsorted(pos, 0.0))
    # running sums from the outermost node in, with a zero column for the
    # empty cut: the negative side ascending, the positive one descending
    running = []
    for side in (terms[:, :neg], terms[:, neg:][:, ::-1]):
        acc = np.zeros((4, side.shape[1] + 1))
        np.cumsum(side, axis=1, out=acc[:, 1:])
        running.append(acc)
    below = np.searchsorted(pos, -radii, side="left")
    above = pos.size - np.searchsorted(pos, radii, side="right")
    sums = running[0][:, below] + running[1][:, above]
    slack = (below + above + SUM_ROUNDINGS) * 2.0 ** -52 * sums[[3, 1, 2]]
    return sums[:3], slack


def _truncation_bound(mset: NodeMultiset, r: float,
                      radii: np.ndarray) -> np.ndarray:
    """For each cut radius B > r, a bound on
    sup_{|z| <= r} |1 - prod_{|n| > B} (1 - z/n)| over the nodes of mset,
    with multiplicity; inf where B <= r, which the bound does not cover.

    For |z| <= r < B < |n| the product is exp(-sum_m z^m S_m / m), with
    S_m = sum n^-m over the dropped nodes, and |S_m| <= A_3 B^(3-m) for
    m >= 3, A_3 = sum |n|^-3. So the exponent is at most
    E = r |S_1| + r^2 |S_2| / 2 + (r^3 A_3 / 3) / (1 - r/B) in modulus, and
    |1 - e^w| <= e^|w| - 1 gives the bound exp(E) - 1. Each sum enters
    with the allowance of _dropped_sums, so the bound holds for the exact
    sums, not only for their rounded values.
    """
    sums, slack = _dropped_sums(mset, radii)
    s1, s2, a3 = np.abs(sums) + slack
    covered = radii > r
    e = np.full(radii.shape, np.inf)
    q = r / radii[covered]
    e[covered] = (r * s1[covered] + r * r * s2[covered] / 2
                  + (r ** 3 * a3[covered] / 3) / (1.0 - q))
    # an exponent past the float range bounds nothing: inf, uncertified
    with np.errstate(over="ignore"):
        return np.expm1(e)


def truncation_radius(r: float, eps: float, params: GridParams, seed: int = 0,
                      family_size: int = 100, window_blocks: int = 256
                      ) -> RadiusCertificate:
    """Smallest radius B (power-of-two multiple of l) such that dropping all
    product factors with |node| > B moves the windowed product by less than
    eps on the disk |z| <= r, over a randomized saturated family.

    For each member and candidate radius the error is bounded, not
    sampled: sup_error is the family's largest value of the log-series
    bound of _truncation_bound, which holds on the whole disk and so sits
    at or above any sampling of the circle |z| = r. A radius B <= r is
    outside the bound and is never certified. Candidate radii stop at half
    the window so the dropped set is never trivially empty. The dominant
    error is the one block pair the cut |node| > B splits, roughly
    r*l*rho/B, so certifying small eps takes a window of order r*l*rho/eps
    blocks. Raises ValueError unless r is finite and >= 0, eps finite and
    > 0, family_size an integer >= 1, window_blocks an integer >= 2 and
    seed an integer >= 0.
    """
    _check_certificate_args(r, eps, family_size, window_blocks, seed)
    rng = np.random.default_rng(seed)
    win = (-window_blocks, window_blocks)
    radii = _candidate_radii(params, window_blocks)
    cuts = np.array(radii)
    worst = np.zeros(cuts.size)
    for _ in range(family_size):
        mset = saturate(random_admissible_multiset(params, win, rng))
        np.maximum(worst, _truncation_bound(mset, r, cuts), out=worst)
    for j, bj in enumerate(radii):
        if worst[j] < eps:
            return RadiusCertificate(bj, True, eps, float(worst[j]),
                                     family_size, tuple(radii[:j + 1]))
    return RadiusCertificate(None, False, eps, float(worst[-1]), family_size,
                             tuple(radii))


def locality_radius(r: float, eps: float, params: GridParams, seed: int = 0,
                    family_size: int = 100, window_blocks: int = 48
                    ) -> RadiusCertificate:
    """Smallest radius B (power-of-two multiple of l) such that admissible
    multisets agreeing on [-B, B] give cardinal kernels within eps on the
    real interval |x| <= r, over a randomized family of agreeing pairs.
    The kernels are compared at 65 equally spaced points of the interval,
    with block radius window_blocks - 8. For each candidate radius all
    family_size pairs are drawn first, in order from the radius's own
    generator, and their 2 * family_size kernels are then evaluated in one
    stacked pass (module docstring), in member groups whose product holds
    at most numutil.ROW_BLOCK_ENTRIES float64 entries: about 15 MiB at
    family 100 and window 80. Raises ValueError on the arguments
    truncation_radius rejects, and when that block radius leaves |x| <= r
    outside the lattice tail's reach."""
    _check_certificate_args(r, eps, family_size, window_blocks, seed)
    a = window_blocks - 8
    # r >= 0, so this also rejects a negative block radius
    if r / params.l >= TAIL_REACH * (a + 1):
        raise ValueError(
            f"window_blocks = {window_blocks} leaves the kernels block "
            f"radius {a}, too small for r = {r}")
    xs = np.linspace(-r, r, 65).astype(complex)
    factors = _kernel_factors(params, xs, a)
    radii = _candidate_radii(params, window_blocks)
    for j, b in enumerate(radii):
        rng = np.random.default_rng((seed, int(b)))
        pairs = [agreeing_pair(params, (-window_blocks, window_blocks), b, rng)
                 for _ in range(family_size)]
        rows = _kernel_rows(list(chain.from_iterable(pairs)), xs, a, factors)
        worst = float(np.max(np.abs(rows[0::2] - rows[1::2])))
        if worst < eps:
            return RadiusCertificate(b, True, eps, worst, family_size,
                                     tuple(radii[:j + 1]))
    return RadiusCertificate(None, False, eps, worst, family_size, tuple(radii))


def _extreme_multisets(params: GridParams, window) -> list[NodeMultiset]:
    """Deterministic worst-case deficiency patterns: anchors, right-edge,
    mid-block, and the two one-sided mixtures. The right-edge pattern leaves
    the widest node-free hole next to the origin gap and tends to dominate
    the decay envelope."""
    l, cap, gap = params.l, params.lrho, params.min_gap
    lo, hi = window
    eps = 1e-6 * l

    ns = np.setdiff1d(np.arange(lo, hi + 1), [0])[:, None]
    js = np.arange(cap)[None, :]
    anchor = ns * l + js * eps
    right = (ns + 1) * l - (js + 1) * eps
    mid = (ns + 0.5) * l + js * eps

    def build(pos):
        pos = pos.ravel()
        pos, mult = np.unique(pos[np.abs(pos) >= gap], return_counts=True)
        return NodeMultiset(node_records(pos, mult), params, tuple(window))

    return [build(anchor), build(right), build(mid),
            build(np.where(ns > 0, right, anchor)),
            build(np.where(ns > 0, anchor, right))]


def decay_constant(params: GridParams, seed: int = 0) -> float:
    """Empirical envelope constant K = max |kernel(x)| * (1 + x^2) over the
    bare saturated lattice, deterministic extreme deficiency patterns, and a
    randomized admissible family of 64 multisets.

    Multisets span blocks -48..48, the kernels use block radius 40, and
    the envelope is probed at 513 equally spaced points of [-32, 32]. K is
    a sample maximum, not a bound over every admissible multiset. It is
    stable across seeds only where the extreme patterns attain it: at
    l*rho = 1, GridParams(1, 1, 0.5) reads 3.114 at seeds 0, 1 and 2, but
    GridParams(2, 3/2, 0.5) reads 17.14, 28.91 and 45.82, set by random
    members. Random members are generated per index from (seed, i), so
    enlarging the family never decreases the constant. The seed must be a
    non-negative integer.
    """
    _check_seed(seed)
    a = 40
    win = (-48, 48)
    xs = np.linspace(-32.0, 32.0, 513).astype(complex)
    weight = 1.0 + (xs.real * xs.real)
    factors = _kernel_factors(params, xs, a)
    family = (random_admissible_multiset(params, win,
                                         np.random.default_rng((seed, i)))
              for i in range(64))
    msets = chain([saturate(NodeMultiset((), params, win))],
                  _extreme_multisets(params, win), family)
    return max(float(np.max(np.abs(_kernel_rows([mset], xs, a, factors)[0])
                            * weight))
               for mset in msets)
