"""Jones beta-numbers and effective Reifenberg constructions for atomic
measures in finite-dimensional l^p spaces."""

from .spaces import NormedSpace, hilbert_modulus
from .geometry import (AffinePlane, AlmostProjection, affine_plane,
                       distance_to_affine, distances_to_affine,
                       general_position_margin, grassmann_distance,
                       graph_check, hausdorff_distance, make_projection,
                       pythagorean_report, riesz_basis)
from .measures import (BetaInfResult, BetaResult, DiniProfile, PointMeasure,
                       best_plane, beta, beta_inf, density_report,
                       dini_profile, restrict)
from .curves import (RademacherVector, SnowflakeSpec, dirac_example,
                     no_power_gain_matrix, no_power_gain_witness,
                     polyline_length, rademacher_norm, snowflake)
from .cover import (BallLabel, CoverConfig, CoverResult, PartitionOfUnity,
                    SigmaMap, classify_ball, covering_lemma, main_packing,
                    partition_of_unity, reifenberg_flat_map, squash_report,
                    tilting_report)
from .report import emit_report

__version__ = "0.1.0"
