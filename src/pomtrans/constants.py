"""Physical constants (SI, CODATA 2018)."""

import math

HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 2.99792458e8  # m/s
EPSILON_0 = 8.8541878128e-12  # F/m
TWO_PI = 2 * math.pi  # rad per cycle: angular rate = TWO_PI * frequency in Hz
