"""Higher-order corrector machinery for waves in periodic media.

Submodules:
    torus       spectral fields and elliptic solves on the unit cell
    oracle1d    exact 1D reference pipeline (piecewise-Legendre)
    correctors  extended corrector hierarchies and effective tensors
    dispersion  direction polynomials, Bloch eigenvalues, filters, eigendefects
    wave        fine-scale and effective wave propagators on a periodic box
    elliptic    higher-order effective elliptic equations and rate studies
    transport   weighted transport moments and scaled ballistic experiments
    cli         experiment driver
"""

__version__ = "0.1.0"
