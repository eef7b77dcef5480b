"""Exact-plus-numerical verification engine for topological T-duality at
finite scale: Pontryagin duality of finite abelian groups, twisted Cech and
group cohomology, the duality transform on dynamical-triple local data, and
the Fourier-transform isomorphism of finite crossed products."""

import os

# One BLAS thread unless the user set one: the crossed-product checks run
# small complex SVDs, where starting threads costs more than the work.  The
# default acts only if numpy has not been imported before tdual.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .lca import (
    QZ,
    FiniteLcaGroup,
    GroupElement,
    QuotientGroup,
    Section,
    Subgroup,
    annihilator,
    dual_group,
    make_section,
    pairing,
)
from .cech import GModule, Nerve, TwistCocycle, TwistedCochain, cohomology, delta_g, r_sharp
from .groupcoh import (
    GroupCochain,
    GroupCochainSpace,
    TotalCochain,
    d_group,
    group_cohomology,
    total_cohomology,
    total_differential,
)
from .triples import (
    DualityContext,
    TotalTwoCocycle,
    TripleLocalData,
    build_kappa_top,
    build_random_triple,
    cocycle_certificate,
    dual_base_cocycle,
    dual_decker,
    dual_transitions,
    dualize,
    extract_total_cocycle,
    involution_report,
    is_dualisable,
    make_dualisable,
    normalize,
    poincare_check,
    trivial_triple,
    verify_involution,
)
from .crossed import (
    ConvolutionElement,
    CrossedContext,
    HaarWeights,
    convolve,
    involute,
    operator_norm,
    t_transform,
    verify_gluing,
    verify_point_theorem,
)

__version__ = "0.1.0"
