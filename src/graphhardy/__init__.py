"""Hardy/BMO-space machinery for reversible random walks on finite
weighted graphs: the Markov operator and its functional calculus,
square functions, tent-space atomic decomposition, molecule synthesis,
BMO norms and the Riesz transform, with every norm weighted by the
vertex measure m."""

from .calculus import (
    BZ1Kind,
    BZ2Kind,
    QsKind,
    SpectralOracle,
    a_s,
    gaffney_fit,
    spectral,
)
from .graphs import (
    Annulus,
    Ball,
    GeometryReport,
    WeightedGraph,
    annuli,
    annulus,
    ball,
    build_graph,
    geometry_report,
    read_graph,
    vitali_cover,
    write_graph,
)
from .hardy import (
    BmoReport,
    MolecularDecomposition,
    Molecule,
    bmo_norm,
    duality_pairing,
    form_molecular_decompose,
    make_molecule_from_tent_atom,
    m0_norm,
    molecular_decompose,
    validate_molecule,
)
from .operators import (
    EdgeFunction,
    KernelMatrix,
    apply_P,
    differential,
    divergence,
    gradient,
    inner,
    kernel,
    laplacian,
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
from .riesz import RieszResult, h2_project, riesz as riesz_transform, riesz_h1_experiment
from .tentspace import TentAtom, TentDecomposition, atomic_decompose, pi_synthesis, tent
from . import zoo

__all__ = [name for name in dir() if not name.startswith("_")]
