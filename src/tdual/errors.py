"""Shared error types and resource caps."""

from __future__ import annotations

import os

DEFAULT_MAX_DIM = 512


class ResourceCapError(RuntimeError):
    """A matrix dimension, an entry count or a group order exceeded its cap."""


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


# The triple stacks (|G|^2 q blocks of D x D complex entries per vertex, in
# triples) may hold this many times the square of the matrix cap.  A fibre
# may be wider than the cap (the double dual's D is |G| d): dualize over Z2
# at d = 40 with a cap of 64, which the tests run, stacks 6.25 times its
# square.  At the default cap a stack is then at most 32 MiB, and dualize
# over Z6/<3> at d = 32 (3,981,312 entries) is refused.
STACK_FACTOR = 8


def square_cap(factor: int = 1) -> tuple[int, str]:
    """factor times the square of the matrix cap, and the name messages give it."""
    source = "TDUAL_MAX_DIM squared" if factor == 1 else f"{factor} x TDUAL_MAX_DIM squared"
    return factor * max_matrix_dim() ** 2, source


def check_entries(what: str, n: int, factor: int = 1) -> None:
    """Refuse n entries (trials, faces, cochain values) over square_cap(factor)."""
    cap, source = square_cap(factor)
    if n > cap:
        raise ResourceCapError(over_cap(what, n, cap, source))
