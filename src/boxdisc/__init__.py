"""Discrimination strategies for quantum program boxes.

The package answers questions of the form "which unknown unitary box sits in
this slot?" for single-qubit boxes that can only be queried as black boxes:
it builds entangled test states, averages the unknown boxes out of the
picture (exactly via a group design, deterministically via quadrature, or
stochastically via sampling), constructs the measurements that tell the
hypotheses apart, and scores them against frozen reference values.
"""

__version__ = "0.1.0"
