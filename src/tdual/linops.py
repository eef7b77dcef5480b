"""Small complex-matrix and phase helpers shared by the duality and crossed-product code."""

from __future__ import annotations

import numpy as np

from .errors import InvalidTripleError
from .lca import QZ


def unit_phase(x: QZ) -> complex:
    return complex(np.exp(2j * np.pi * x.num / x.den))


def adjoint(U: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; leading axes are a stack."""
    return np.swapaxes(U.conj(), -1, -2)


def kron_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes, each entry formed as np.kron forms it;
    leading axes are stacks and broadcast against each other."""
    A, B = np.asarray(A), np.asarray(B)
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], A.shape[-2] * B.shape[-2], A.shape[-1] * B.shape[-1])


def scalar_part(A: np.ndarray, tol: float) -> complex:
    """The scalar s with A = s I, or raise if A is not scalar within tol."""
    dim = A.shape[0]
    s = complex(np.trace(A)) / dim
    dev = float(np.max(np.abs(A - s * np.eye(dim))))
    if dev > tol:
        raise InvalidTripleError(f"matrix is not scalar: deviation {dev:.3e} > {tol:g}")
    return s


def scalar_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, max |A - s I|) with s = tr(A) / dim, over the last two axes.

    Leading axes are a stack.  s is formed as scalar_part forms it (Python's
    complex / int divides each part), so both agree to the last bit.
    """
    dim = A.shape[-1]
    tr = np.trace(A, axis1=-2, axis2=-1)
    s = tr.real / dim + 1j * (tr.imag / dim)
    return s, np.max(np.abs(A - s[..., None, None] * np.eye(dim)), axis=(-2, -1))


def scalar_deviation(A: np.ndarray) -> float:
    return float(np.max(scalar_stack(A)[1]))


def snap_phase(s: complex, m: int, tol: float) -> int:
    """Nearest k with s = exp(2 pi i k/m); the distance must be within tol."""
    if abs(abs(s) - 1.0) > tol:
        raise InvalidTripleError(f"scalar {s} is not a unit phase (|s|={abs(s):.6f})")
    k = int(round(float(np.angle(s)) / (2 * np.pi) * m)) % m
    err = abs(s - np.exp(2j * np.pi * k / m))
    if err > tol:
        raise InvalidTripleError(
            f"phase {s} does not snap to an order-{m} root of unity (err {err:.3e})"
        )
    return k
