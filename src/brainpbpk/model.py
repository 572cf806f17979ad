"""Mass balances of the brain model, as printed term by term (the paper's
sign convention): the uptake-transporter term CLBin enters brain blood as
an influx and the spinal-to-cranial return flow Qsout leaves cranial CSF
as an efflux.

``influx_terms`` writes the four balances; ``rates``, their linear form, is
the one formulation the solvers, the DE objective and the PINN residual
use. ``assemble_matrix`` (the 4x4 rate-coefficient matrix) and
``rhs_terms`` are an independent second formulation, kept as test oracles.

State ordering everywhere: (Cbb, Cbm, Cccsf, Cscsf) -- brain blood, brain
mass, cranial CSF, spinal CSF, all in mg/L.
"""
from __future__ import annotations

import numpy as np

from .params import DrugParams, SystemParams

COMPARTMENTS = ("Cbb", "Cbm", "Cccsf", "Cscsf")


def assemble_matrix(sys: SystemParams, drug: DrugParams) -> np.ndarray:
    """4x4 rate-coefficient matrix A (1/h) such that
    Y' = A Y + (Qbrain/Vbb) Cart(t) e1; a test oracle for ``rates``."""
    s, d = sys, drug
    A = np.zeros((4, 4))

    A[0, 0] = -(s.Qbrain + s.PSB * d.lam_bb * d.fubb - d.CLBin * d.fubb
                + s.PSC * d.lam_bb * d.fubb + d.CLCin * d.fubb) / s.Vbb
    A[0, 1] = (s.PSB * d.lam_bm * d.fubm + d.CLBout * d.fubm) / s.Vbb
    A[0, 2] = (s.PSC * d.lam_ccsf * d.fuccsf + d.CLCout * d.fuccsf
               + s.Qcsink) / s.Vbb
    A[0, 3] = s.Qssink / s.Vbb

    A[1, 0] = (s.PSB * d.lam_bb * d.fubb + d.CLBin * d.fubb) / s.Vbm
    A[1, 1] = -(s.PSB * d.lam_bm * d.fubm + d.CLBout * d.fubm + s.QbulkBC
                + s.PSE * d.lam_bm * d.fubm + d.CLmet) / s.Vbm
    A[1, 2] = s.PSE * d.lam_ccsf * d.fuccsf / s.Vbm
    A[1, 3] = 0.0

    A[2, 0] = (s.PSC * d.lam_bb * d.fubb + d.CLCin * d.fubb) / s.Vccsf
    A[2, 1] = s.PSE * d.lam_bm * d.fubm / s.Vccsf
    A[2, 2] = -(s.PSC * d.lam_ccsf * d.fuccsf + d.CLCout * d.fuccsf
                + s.PSE * d.lam_ccsf * d.fuccsf + s.Qsin + s.Qcsink) / s.Vccsf
    A[2, 3] = -s.Qsout / s.Vccsf

    A[3, 0] = 0.0
    A[3, 1] = 0.0
    A[3, 2] = s.Qsin / s.Vscsf
    A[3, 3] = -(s.Qsout + s.Qssink) / s.Vscsf

    return A


def influx_terms(Y, cart, sys: SystemParams, drug: DrugParams):
    """Term-by-term mass balances as amount rates; generic over floats,
    arrays, and autodiff variables (the PINN residual substitutes trainable
    parameters in).

    ``Y`` is a 4-sequence of concentrations, ``cart`` the arterial plasma
    concentration (mg/L). Returns a 4-tuple of net influxes V_k * dC_k/dt
    (mg/h); no volume enters them.
    """
    Cbb, Cbm, Cccsf, Cscsf = Y
    s, d = sys, drug

    clbin_bb = d.CLBin * d.fubb * Cbb
    Jbb = (s.Qbrain * (cart - Cbb)
           + s.PSB * (d.lam_bm * d.fubm * Cbm - d.lam_bb * d.fubb * Cbb)
           + clbin_bb
           + d.CLBout * d.fubm * Cbm
           + s.PSC * (d.lam_ccsf * d.fuccsf * Cccsf - d.lam_bb * d.fubb * Cbb)
           - d.CLCin * d.fubb * Cbb
           + d.CLCout * d.fuccsf * Cccsf
           + s.Qcsink * Cccsf
           + s.Qssink * Cscsf)

    Jbm = (s.PSB * (d.lam_bb * d.fubb * Cbb - d.lam_bm * d.fubm * Cbm)
           + clbin_bb
           - d.CLBout * d.fubm * Cbm
           - s.QbulkBC * Cbm
           + s.PSE * (d.lam_ccsf * d.fuccsf * Cccsf - d.lam_bm * d.fubm * Cbm)
           - d.CLmet * Cbm)

    Jccsf = (s.PSC * (d.lam_bb * d.fubb * Cbb - d.lam_ccsf * d.fuccsf * Cccsf)
             + d.CLCin * d.fubb * Cbb
             - d.CLCout * d.fuccsf * Cccsf
             - s.Qsout * Cscsf  # the printed sign: an efflux
             + s.PSE * (d.lam_bm * d.fubm * Cbm - d.lam_ccsf * d.fuccsf * Cccsf)
             - s.Qsin * Cccsf
             - s.Qcsink * Cccsf)

    Jscsf = s.Qsin * Cccsf - s.Qsout * Cscsf - s.Qssink * Cscsf

    return Jbb, Jbm, Jccsf, Jscsf


def volumes(sys: SystemParams):
    """Compartment volumes (L) in state order."""
    return sys.Vbb, sys.Vbm, sys.Vccsf, sys.Vscsf


# the influx is linear in (C, Cart): evaluated at C = e_j, Cart = 0 (column
# j < 4) and at C = 0, Cart = 1 (column 4), it gives the columns of [M | q]
_BASIS_C = tuple(np.eye(5)[:4])
_BASIS_CART = np.eye(5)[4]


def rates(sys: SystemParams, drug: DrugParams):
    """The amount-rate matrix M, forcing coefficients q (both L/h) and
    volumes V (L) of V dC/dt = M C + q Cart, from ``influx_terms`` on the
    basis above. Parameters may be floats or ``(..., 1)`` columns, real or
    complex; M is then ``(..., 4, 4)`` and q and V ``(..., 4)``, with a
    batch axis only where some column varies along it.

    Open question: ``QbulkCB`` (CSF to brain mass) is validated and written
    to manifests but enters no equation; the abstract does not settle
    whether a term is missing, so none is added.
    """
    J = influx_terms(_BASIS_C, _BASIS_CART, sys, drug)
    V = volumes(sys)
    batch = np.broadcast(*J, *V).shape[:-1]  # J ends in the basis axis
    G = np.empty(batch + (4, 6), dtype=np.result_type(*J, *V))
    for k, (j, v) in enumerate(zip(J, V)):
        G[..., k, :5] = j
        G[..., k, 5:] = v
    return G[..., :4], G[..., 4], G[..., 5]


def rhs_terms(Y, cart, sys: SystemParams, drug: DrugParams):
    """``influx_terms`` divided by the compartment volumes: a 4-tuple of
    dC/dt values (mg/(L*h)), generic over the same argument types."""
    J = influx_terms(Y, cart, sys, drug)
    return tuple(j / v for j, v in zip(J, volumes(sys)))
