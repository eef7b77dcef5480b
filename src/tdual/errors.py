"""Shared error types and resource caps."""

from __future__ import annotations

import os

DEFAULT_MAX_DIM = 512


class ResourceCapError(RuntimeError):
    """A matrix dimension or a group order exceeded its cap."""


class InvalidTripleError(ValueError):
    """Input data violates the structural laws of a dynamical triple."""


def max_matrix_dim() -> int:
    raw = os.environ.get("TDUAL_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TDUAL_MAX_DIM must be an integer, got {raw!r}") from None


def check_dim(n: int) -> None:
    cap = max_matrix_dim()
    if n > cap:
        raise ResourceCapError(f"matrix dimension {n} exceeds cap {cap} (TDUAL_MAX_DIM)")
