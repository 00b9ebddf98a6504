"""Monte Carlo lab for soft-edge fluctuations of beta-Laguerre matrix products.

Samples tridiagonal beta-Laguerre matrices through their bidiagonal chi
factors, symmetrizes the two-matrix product into a pentadiagonal form,
extracts extreme eigenvalues with certified banded solvers, and compares the
centered/scaled statistics against Tracy-Widom reference laws generated from
a discretized stochastic Airy operator.
"""

__version__ = "0.1.0"
