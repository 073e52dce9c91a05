"""Construction and desk-scale verification of Riemann-surface families
whose Jacobians decompose into products of low-genus factors.

The submodules are the API: numerics, legendre, cover, constructions, cli.
"""

# Importing numerics applies JACDECOMP_PRECISION, so a plain
# `import jacdecomp` already runs at the configured precision.
from . import numerics  # noqa: F401

__version__ = "0.1.0"
