"""Hardy/BMO-space machinery for reversible random walks on finite
weighted graphs: the Markov operator and its functional calculus,
square functions, tent-space atomic decomposition, molecule synthesis,
BMO norms and the Riesz transform, with every norm weighted by the
vertex measure m."""

from .calculus import (
    SpectralOracle,
    Spectrum,
    bz1_block,
    bz2_apply,
    gaffney_fit,
    spectral,
    spectrum,
)
from .graphs import (
    Ball,
    GeometryReport,
    WeightedGraph,
    ball,
    build_graph,
    geometry_report,
    read_graph,
)
from .hardy import (
    BmoReport,
    MolecularDecomposition,
    Molecule,
    bmo_norm,
    duality_pairing,
    form_molecular_decompose,
    make_molecule_from_tent_atom,
    molecular_decompose,
    validate_molecule,
)
from .operators import (
    EdgeFunction,
    apply_P,
    differential,
    divergence,
    gradient,
    inner,
    lp_norm,
    lp_norm_forms,
    mean_project,
    tx_norms,
)
from .quadratic import (
    SpaceTimeFunction,
    g_littlewood,
    lusin,
    lusin_tilde,
    quad_norm,
    quad_norm_forms,
    tent_functional,
)
from .riesz import RieszResult, riesz as riesz_transform, riesz_h1_experiment
from .tentspace import TentAtom, TentDecomposition, atomic_decompose
from . import zoo

__all__ = [name for name in dir() if not name.startswith("_")]
