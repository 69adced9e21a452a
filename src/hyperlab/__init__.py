"""hyperlab: a numerical laboratory for Fourier uniqueness on the
hyperbola x1 * x2 = -m^2 / (4 pi^2).

Measures on the hyperbola are carried by their first-coordinate
compression (atoms plus piecewise densities on the line); the library
evaluates their Fourier transforms on lattice-crosses, runs the
Gauss-map dynamics and Ulam transfer operators behind the invariant
densities, constructs the explicit annihilating measures, exercises the
Hardy-space and Hilbert-transform machinery, and estimates numerical
defects of cross-pairing systems by SVD.
"""

__version__ = "0.1.0"
