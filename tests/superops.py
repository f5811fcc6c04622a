"""Reference superoperators for the tests, built with scipy.sparse.

The package never forms a superoperator on the full composite space: the
split-step takes the dissipator as transmon and resonator factors, and the
steady state builds its block from basis-matrix images.  These builders give
the tests an independent dim^2 x dim^2 reference on row-major vec(rho),
vec(A rho B) = (A kron B^T) vec(rho).
"""

import numpy as np
import scipy.sparse as sp


def unit_superoperator(op):
    """Commutator superoperator -i 2 pi (H kron I - I kron H^T) for a
    Hamiltonian given in GHz, acting on row-major vec(rho), time in ns."""
    eye = sp.identity(op.shape[0], format="csr")
    h = sp.csr_matrix(op)
    return (-2j * np.pi) * (sp.kron(h, eye, format="csr") - sp.kron(eye, h.T, format="csr"))


def dissipator_superoperator(lop):
    """D[L] rho = L rho L+ - (L+L rho + rho L+L)/2 on row-major vec(rho)."""
    l = sp.csr_matrix(lop)
    eye = sp.identity(lop.shape[0], format="csr")
    ldl = (l.conj().T @ l).tocsr()
    out = sp.kron(l, l.conj(), format="csr")
    out = out - 0.5 * (sp.kron(ldl, eye, format="csr") + sp.kron(eye, ldl.T, format="csr"))
    return out.tocsr()


def dissipator(liou):
    """The assembled dissipator, summed over every jump operator."""
    return sum(dissipator_superoperator(lop) for lop in liou.jump_operators.values()).tocsr()


def static_super(liou, frame_ghz=0.0):
    """The full static generator in the frame rotating at ``frame_ghz``."""
    return (unit_superoperator(liou.ops.h_static(frame_ghz)) + dissipator(liou)).tocsr()
