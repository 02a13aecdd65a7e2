"""Numerical toolkit for ternary prime-power Diophantine inequalities.

Modules:
    primes     - odd-only sieve, table coverage, Chebyshev theta/psi, primality
    expsums    - exponential sums S/U, oscillatory integral T, Fejér kernel
    meansquare - short-interval mean-square integrals and comparators
    rational   - high-precision ratios and continued fractions
    circle     - arc decomposition and the counting integral
    search     - prime-triple solution enumeration
    optimizer  - the exact exponent linear program
    cli        - command-line front end and acceptance runner
"""

__version__ = "0.1.0"
