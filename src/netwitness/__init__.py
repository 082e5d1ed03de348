"""Entanglement detection by state preparation and a fixed measurement.

Build witnesses and the network states that realize them, verify the
reconstruction identities exactly, simulate the teleportation-filtering
protocol (exactly and with finite shots), and locate bound entangled states
at desk scale.
"""

__version__ = "0.1.0"

# the modules a bare ``import netwitness`` loads; the package re-exports no names
from . import networks, protocol, states, tensor, witnesses  # noqa: F401
