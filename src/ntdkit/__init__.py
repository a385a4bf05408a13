"""Identifiable nonnegative Tucker decompositions.

Unfolding- and slice-based identification pipelines driven by minimum
volume factorizations, together with the cone-geometry machinery
(separability, SSC, p-SSC, Kronecker-SSC bounds) needed to validate their
assumptions and certify recovery up to permutation.
"""

from .cones import (SscReport, check_pssc, check_separable, check_ssc,
                    counterexample_dims_ok, enumerate_dual_vertices,
                    estimate_min_p, kron_ssc_margin, kron_ssc_sufficient,
                    ssc1_refute, ssc1_violation_witness)
from .evaluate import (AlignmentResult, AssumptionReport, align_columns,
                       essential_match, model_error, validate_assumptions)
from .kron import (kron, kron_all, kron_split, kron_split_multi,
                   kron_split_permuted)
from .model import NtdModel
from .procedures import (ModePartition, procedure0, procedure1, procedure2,
                         procedure3, procedure4, procedure_d0, procedure_d1,
                         procedure_d3, separable_orderd)
from .solvers import (Order2Ntd, SolverConfig, maxdet_simplex, minvol_nmf,
                      minvol_order2_ntd, numerical_rank, separable_order2_ntd,
                      spa_separable_nmf)
from .synth import (CoreConstraints, Instance, gen_anchor_factor, gen_core,
                    gen_instance, gen_separable_factor, gen_ssc_factor,
                    load_instance, save_instance)
from .tensor import (DenseTensor, SliceSpec, fold, mode_slice,
                     multilinear_transform, read_tensor, slice_combination,
                     slice_matrix, unfold, write_tensor_binary,
                     write_tensor_json)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult", "AssumptionReport", "CoreConstraints", "DenseTensor",
    "Instance", "ModePartition", "NtdModel", "Order2Ntd", "SliceSpec",
    "SolverConfig", "SscReport", "align_columns",
    "check_pssc", "check_separable", "check_ssc", "counterexample_dims_ok",
    "enumerate_dual_vertices", "essential_match", "estimate_min_p", "fold",
    "gen_anchor_factor", "gen_core", "gen_instance", "gen_separable_factor",
    "gen_ssc_factor", "kron", "kron_all", "kron_split", "kron_split_multi",
    "kron_split_permuted", "kron_ssc_margin", "kron_ssc_sufficient",
    "load_instance", "maxdet_simplex", "minvol_nmf", "minvol_order2_ntd",
    "mode_slice", "model_error", "multilinear_transform",
    "numerical_rank", "procedure0", "procedure1", "procedure2", "procedure3",
    "procedure4", "procedure_d0", "procedure_d1", "procedure_d3",
    "read_tensor", "save_instance", "separable_order2_ntd", "separable_orderd",
    "slice_combination", "slice_matrix", "spa_separable_nmf", "ssc1_refute",
    "ssc1_violation_witness", "unfold", "validate_assumptions",
    "write_tensor_binary", "write_tensor_json",
]
