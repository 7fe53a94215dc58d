"""Hausdorff averaging operators on Fock and mixed-norm Fock spaces."""

from . import classify, entire, focknorm, hausdorff, measure

__version__ = "0.1.0"
