"""The one root of every error this package raises on purpose.

Each error class in :mod:`repro` derives from :class:`ReproError` and keeps
its builtin base (``ValueError``, ``KeyError``, ``RuntimeError`` or
``TimeoutError``), so ``except ValueError`` callers are unaffected.  The
CLI catches :class:`ReproError` in one place and prints it as one line;
any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations


class ReproError(Exception):
    """A refusal or failure the package reports deliberately."""


class InvalidArgumentError(ReproError, ValueError):
    """A value from outside the program is outside its domain."""


class NotIndexedError(ReproError, KeyError):
    """A write names a document or shot the index does not hold, or a
    lookup an action the interface does not offer."""

    def __str__(self) -> str:  # KeyError quotes its argument; keep the message readable
        return self.args[0]
