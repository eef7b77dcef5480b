"""Shared error types and resource caps."""

from __future__ import annotations

import os

DEFAULT_MAX_DIM = 512


class ResourceCapError(RuntimeError):
    """A matrix dimension, a trial batch or a group order exceeded its cap."""


class UsageError(ValueError):
    """An environment setting or output path that a run cannot use."""


class InvalidTripleError(ValueError):
    """Input data violates the structural laws of a dynamical triple."""


def max_matrix_dim() -> int:
    """The cap from TDUAL_MAX_DIM, an integer >= 1; UsageError for any other value."""
    raw = os.environ.get("TDUAL_MAX_DIM", str(DEFAULT_MAX_DIM))
    if not raw.isdecimal() or int(raw) < 1:
        raise UsageError(f"TDUAL_MAX_DIM must be an integer >= 1, got {raw!r}")
    return int(raw)


def over_cap(what: str, n: int, cap: int, source: str = "TDUAL_MAX_DIM") -> str:
    """The message of a ResourceCapError: what of size n is over cap."""
    return f"{what} {n} exceeds cap {cap} ({source})"


def check_dim(n: int) -> None:
    cap = max_matrix_dim()
    if n > cap:
        raise ResourceCapError(over_cap("matrix dimension", n, cap))


def check_batch(n: int) -> None:
    """Refuse a batch of n complex entries over the square of the matrix cap."""
    cap = max_matrix_dim() ** 2
    if n > cap:
        raise ResourceCapError(over_cap("trial batch size", n, cap, "TDUAL_MAX_DIM squared"))
