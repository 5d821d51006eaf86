"""High-precision verification of two-parameter sum rules over the
critical zeros of the Riemann zeta function."""

from .numctx import DomainError, NumericContext
from .zetafn import (InternalConsistencyError, PrecisionError, ZetaEngine,
                     ZetaPoleError, engine_for)
from .zeros import (MissedZeroError, MultipleZeroError, ZeroImportError,
                    ZeroRecord, ZeroStore, export_zeros, import_zeros,
                    load_or_compute, locate_zeros)
from .arith import MangoldtTable, guillera_h, mangoldt_sieve
from .sumrule import (ClosureReport, EvaluationReport, OverlappingPoleError,
                      PoleSite, ResonantParameterError, SingularityError,
                      SumRuleParams, consistent_orientation, contour_integral, evaluate_guillera,
                      evaluate_rh_form, evaluate_sumrule, half_integer_series,
                      integrand, numeric_residue, pole_catalog, trivial_series,
                      verify_residue_theorem, zero_sum_lhs)

__version__ = "0.1.0"
