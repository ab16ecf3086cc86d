"""Desk-scale toolkit for piezo-optomechanical microwave-to-optical transducers.

Solves the linearized frequency-domain transducer model through signal flow
graphs (Mason's gain rule with a direct linear-solve oracle), computes
coupling constants from discretized mode fields, optimizes pump level and
coupling rates for maximum conversion efficiency, and ranks candidate
materials by electromechanical and optomechanical figures of merit.
"""

from . import analysis, coupling, dynamics, errors, materials, rings, sfg, sweep

__version__ = "0.1.0"
