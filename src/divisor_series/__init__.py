"""Toolkit for the divisor-function Taylor series T(q) = sum d(k) q^k.

Layers:

* :mod:`divisor_series.divisor_core` -- exact divisor counts and partition
  part-count statistics;
* :mod:`divisor_series.power_series` -- exact truncated series and the five
  classical representations of T, with coefficient-level identity checks;
* :mod:`divisor_series.special_eval` -- certified numeric evaluation of T,
  the q-digamma function, H and F, plus the sharp-bound checkers;
* :mod:`divisor_series.lemma_functions` -- the auxiliary functions of the
  monotonicity analysis;
* :mod:`divisor_series.verifier` -- grid sandwiches, Sturm root counts and
  certificates;
* :mod:`divisor_series.cli` -- the ``divisor-series`` command.
"""

from .divisor_core import (
    DivisorTable,
    PartitionStats,
    distinct_partition_stats,
    divisor_partial_sums,
    divisor_sieve,
)
from .intervals import (
    BracketSearchError,
    DomainError,
    Enclosure,
    Mode,
    PrecisionError,
    QPoint,
    TermBudgetError,
    gamma_enclosure,
)
from .power_series import (
    IdentityMatch,
    RepresentationId,
    TruncatedSeries,
    build_representation,
    first_mismatch,
    identity_report,
    q_pochhammer,
)
from .special_eval import (
    BoundsCheck,
    BoundsStatus,
    EvalReport,
    TheoremId,
    check_bounds,
    eval_F,
    eval_H,
    eval_T,
    eval_psi_q,
    landau_constant_from_t,
    landau_fibonacci,
)
from .lemma_functions import (
    CorrectionSums,
    CriticalPoints,
    PhiBundle,
    correction_sums,
    critical_points,
    phi_antiderivative,
    phi_bundle,
)
from .polynomials import Polynomial, sturm_root_count
from .verifier import (
    Certificate,
    GridSegment,
    GridSpec,
    combine_theorem_3_2,
    sandwich_verify,
    verify_lemma,
)

__version__ = "0.1.0"
