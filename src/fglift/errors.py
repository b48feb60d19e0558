"""Exception hierarchy shared across the package.

``SchemaError`` is the umbrella for anything wrong with a model document or
its in-memory construction; the CLI maps it to exit code 2. Budget refusals
map to exit 3, internal bound violations to exit 4.
"""

from __future__ import annotations


class FgliftError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(FgliftError):
    """A document or model definition violates the schema.

    Messages always name the offending entity (variable or factor).
    """


class DuplicateName(SchemaError):
    """Two variables or factors share a name, or a factor repeats an argument."""


class TableSizeMismatch(SchemaError):
    """A potential table's length does not match its argument range sizes."""


class NonPositivePotential(SchemaError):
    """A potential entry is zero or negative and zero-clamping is disabled."""


class DanglingVariable(SchemaError):
    """A declared variable is referenced by no factor."""


class IncompleteAssignment(FgliftError):
    """A joint-potential evaluation received a non-total assignment."""


class MissingValue(FgliftError):
    """An assignment lacks a required variable or uses an unknown value label."""


class LengthMismatch(FgliftError):
    """Two potential tables of different lengths were compared."""


class LevelOutOfRange(FgliftError):
    """A hierarchy level outside [0, number of merges] was requested."""


class HierarchyMismatch(FgliftError):
    """A merge hierarchy does not belong to the factor graph it is applied to."""


class EmptyGroup(FgliftError):
    """A group aggregate was requested for an empty collection of tables."""


class StateSpaceTooLarge(FgliftError):
    """Exact enumeration was refused because the state count exceeds the budget."""


class UnknownVariable(FgliftError):
    """A query or evidence term references a variable not in the graph."""


class InconsistentEvidence(FgliftError):
    """Evidence has zero probability mass (possible only with clamped zeros)."""


class NumericOverflow(FgliftError):
    """A result exceeds the float range; the message gives its logarithm."""


class NumericUnderflow(FgliftError):
    """A result is too small for the float range; the message gives its logarithm."""


class StructureMismatch(FgliftError):
    """Two graphs compared distribution-wise do not share variables and ranges."""


class PatternNotLiftable(FgliftError):
    """A compressed model does not match the star pattern required for lifting."""


class EpsOutOfRange(FgliftError):
    """A bound formula was evaluated outside its epsilon domain."""
