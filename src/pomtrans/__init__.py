"""Desk-scale toolkit for piezo-optomechanical microwave-to-optical transducers.

Solves the linearized frequency-domain transducer model through signal flow
graphs (Mason's gain rule with a direct linear-solve oracle), computes
coupling constants from discretized mode fields, optimizes pump level and
coupling rates for maximum conversion efficiency, and ranks candidate
materials by electromechanical and optomechanical figures of merit.
"""

from . import coupling, materials, rings, sweep
from .analysis import (
    PRESETS,
    CooperativitySet,
    SpectrumResult,
    ThresholdResult,
    apply_preset,
    cooperativities,
    critical_photon_number,
    efficiency_spectrum,
    efficiency_via_cooperativities,
    kappa_ex2_threshold,
    max_efficiency,
    max_efficiency_contour,
    power_curve,
)
from .dynamics import (
    DerivedRates,
    EnhancementResonances,
    OperatingPoint,
    Susceptibility,
    TransducerParams,
    chi_01,
    chi_02,
    chi_m,
    derived_rates,
    efficiency,
    enhancement_resonances,
    intra_ring_gain,
    load_params,
    params_from_dict,
    params_to_dict,
    pump_power_to_photons,
    transducer_graph,
    transduction_amplitude,
    with_derived_gamma_ex,
)
from .errors import (
    EdgeGainError,
    GridError,
    MaterialDataError,
    ModelViolationError,
    ParameterError,
    PomtransError,
    SingularityError,
    UndefinedOptimumError,
    UnknownNodeError,
)
from .sfg import (
    SfgEdge,
    SfgNode,
    SignalFlowGraph,
    SourceGains,
    all_source_gains,
    enumerate_loops,
    enumerate_paths,
    graph_determinant,
    linear_solve_gain,
    mason_gain,
)
from .sweep import SweepResult

__version__ = "0.1.0"
