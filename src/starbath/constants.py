"""Physical constants and unit conversions.

All internal quantities are SI: angular frequencies in rad/s, times in s,
temperatures in K, energies in J.  The CLI boundary accepts the convenience
units MHz (1e6 rad/s), us and uK and converts here.
"""

from __future__ import annotations

# CODATA 2018 exact values
HBAR = 1.054571817e-34  # J*s
KB = 1.380649e-23  # J/K

# "MHz" throughout the model means an angular frequency of 1e6 rad/s.
MHZ = 1.0e6  # rad/s per MHz
US = 1.0e-6  # s per microsecond
UK = 1.0e-6  # K per microkelvin
