"""bandtile: band-limited interpolation kernels, dynamical Voronoi tilings
of the line, greedy tax/weight allocation, exact simplicial embedding
checks, and sampling codecs for concrete minimal systems."""

from .bandlimited import (Band, BandSignal, BumpKernel, SincKernel,
                          ToneKernel, band_check, bump_transform, sample,
                          sampling_injectivity_stress, tone_signal)
from .interpolation import (BlockOverflowError, GridParams, NodeMultiset,
                            agreeing_pair, cardinal_kernel,
                            check_conditions, decay_constant,
                            locality_radius, random_admissible_multiset,
                            saturate, truncation_radius,
                            weierstrass_product)
from .tiling import (MarkerSeq, Tile, Tiling, boundary_set, compute_tiles,
                     density_report, random_marker_seq, shift_markers)
from .weights import (SurplusError, WeightMatrix, WeightParams,
                      WeightReport, allocate, bases, finalize,
                      greedy_rounds, receiver_core, validate_params,
                      verify_conditions)
from .simplicial import (CollisionWitness, Complex, SimplicialMap,
                         crossing_pair, is_embedding, perturb_to_embedding,
                         random_map, triangulated_strip, verify_witness)
from .systems import (DiscreteSignal, MarkerBump, MarkerScheme, Rotation,
                      SubshiftWindow, ToyReport, bowen_metric,
                      embedding_gap, marker_cylinder, marker_encode,
                      marker_function, orbit_markers, rotation_embed,
                      sturmian_window, toy_encode, toy_verify,
                      voronoi_tiles, word_metric)

__version__ = "0.1.0"
