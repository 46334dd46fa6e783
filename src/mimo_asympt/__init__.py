"""Asymptotic statistics of MMSE MIMO mutual information over
Kronecker-correlated Rayleigh channels, with an exact Monte Carlo
reference simulator.

Library layout:

  channel      correlation models, channel sampling (counter-based RNG)
  mmse         batched exact SINRs and mutual informations of channel stacks
  asymptotics  coupled fixed point, asymptotic log-det mean, mean SINR + 1/N term
  covariance   SINR covariance via the joint log-det cumulant, i.i.d. closed forms
  gaussian     Gaussian mean/variance assembly and outage probabilities
  montecarlo   seeded, worker-count-invariant trial engine
  scenario/cli JSON scenarios and the mimo-asympt command line

The package re-exports every name in each library module's __all__. Each
function there is run by a CLI verb or by the benchmark worker; the tests'
independent references (tests/oracles.py) are not part of the package.
"""

from . import asymptotics, channel, covariance, gaussian, mmse, montecarlo, scenario
from .asymptotics import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .covariance import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .mmse import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (asymptotics, channel, covariance, gaussian, mmse, montecarlo,
                               scenario) for name in module.__all__]
