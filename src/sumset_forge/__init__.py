"""Sumset structure toolkit for small-doubling subsets of Z x Z/dZ.

The API is the modules: import each name from the one module that defines
it (`from sumset_forge.layered import find_structure`)."""

__version__ = "0.1.0"
