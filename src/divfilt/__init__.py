"""divfilt: exact-arithmetic toolkit for asymptotics of divisorial filtrations.

Subpackages by topic:

- ``quadfield``     exact arithmetic in real quadratic fields Q(sqrt(d))
- ``beatty``        Beatty sequences, two-value partitions, equidistribution
- ``intersection``  trilinear intersection forms and bivariate polynomials
- ``asymptotics``   multiplicities, first-difference subsequence limits, scans
- ``monomial``      monomial-ideal generator counts for graded filtrations
- ``picard``        elliptic-curve group law and divisor-class bookkeeping
- ``cli``           deterministic JSON/CSV report front end
"""

from divfilt.quadfield import QuadExt, RadicandMismatchError

__version__ = "0.1.0"

__all__ = ["QuadExt", "RadicandMismatchError", "__version__"]
