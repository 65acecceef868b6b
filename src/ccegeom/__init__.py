"""Numerics for conformally compact Einstein 4-manifolds.

The pipeline: boundary-expansion extraction for metrics in the normal
form s^{-2}(ds^2 + g_s), renormalized volume by ladder regression,
eigenfunction compactification with its qualitative checks, curvature
integrals (Euler characteristic, signature, Weyl energy, integrated
sigma2) on closed models and compactified fills, and the decision
inequalities tying renormalized volume to interior topology.
"""

__version__ = "0.1.0"
