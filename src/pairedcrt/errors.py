"""Exceptions for invalid data. Every data fault raises ``DataError`` with a
message naming the cluster or the CSV line at fault: malformed or invalid
CSV contents, dataset invariants, an empty treatment arm, a dataset without
the treatments an operation needs, or too many pairs for exact enumeration.
The command line exits 2 on it, with ``"error": "DataError"`` on stderr.
An argument mistake, such as an unknown mode or a CSV source that is not a
file path, raises ``ValueError``."""

from __future__ import annotations


class PairedCrtError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PairedCrtError):
    """Invalid input data (CSV contents, dataset invariants, their size)."""
