"""numutil.is_finite_real on reals too large for a float: every field it
validates rejects them with its own ValueError, not an OverflowError from
a later float()."""

from fractions import Fraction

import pytest

from bandtile import numutil
from bandtile.bandlimited import (BumpKernel, SincKernel, ToneKernel,
                                  sampling_injectivity_stress)
from bandtile.interpolation import GridParams
from bandtile.simplicial import (Complex, SimplicialMap, crossing_pair,
                                 perturb_to_embedding)

HUGE = 10 ** 400  # an exact int whose float() overflows


@pytest.mark.parametrize("x, finite", [
    (HUGE, False), (-HUGE, False), (Fraction(HUGE, 3), False),
    (10 ** 300, True), (Fraction(1, 3), True), (1e308, True),
], ids=["huge", "minus-huge", "huge-fraction", "int-1e300", "third",
        "float-1e308"])
def test_is_finite_real_means_a_finite_float(x, finite):
    assert numutil.is_finite_real(x) is finite


@pytest.mark.parametrize("build, message", [
    (lambda: SincKernel(HUGE), "sinc halfwidth must be a finite"),
    (lambda: BumpKernel(HUGE), "bump support must be a finite"),
    (lambda: ToneKernel(HUGE), "tone frequency must be a finite"),
    (lambda: sampling_injectivity_stress(HUGE, 1, 1),
     "band halfwidth c must be finite"),
    (lambda: GridParams(l=1, rho=Fraction(1), tau=HUGE),
     "tau must be finite"),
    (lambda: SimplicialMap(Complex.from_maximal([(0, 1)]),
                           {0: (HUGE,), 1: (0.0,)}),
     "vertex images must be finite"),
    (lambda: perturb_to_embedding(crossing_pair(5), HUGE, 0),
     "magnitude must be finite"),
], ids=["sinc", "bump", "tone", "stress", "grid-tau", "map-image",
        "perturb-magnitude"])
def test_reals_too_large_for_a_float_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
