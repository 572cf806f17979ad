"""Rate matrix and right-hand side of the brain model.

Both follow the printed mass-balance equations term by term (the paper's
sign convention): the uptake-transporter term CLBin enters brain blood as
an influx and the spinal-to-cranial return flow Qsout leaves cranial CSF
as an efflux.

Two independent formulations are kept deliberately: ``influx_terms`` writes
the four mass balances term by term (``rhs_terms`` divides them by the
volumes), while ``assemble_matrix`` builds the 4x4 rate-coefficient matrix.
The test suite checks that both agree for random parameter draws.

State ordering everywhere: (Cbb, Cbm, Cccsf, Cscsf) -- brain blood, brain
mass, cranial CSF, spinal CSF, all in mg/L.
"""
from __future__ import annotations

import numpy as np

from .params import DrugParams, SystemParams

COMPARTMENTS = ("Cbb", "Cbm", "Cccsf", "Cscsf")


def assemble_matrix(sys: SystemParams, drug: DrugParams) -> np.ndarray:
    """4x4 rate-coefficient matrix A (1/h) such that
    Y' = A Y + (Qbrain/Vbb) Cart(t) e1."""
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
             + -(s.Qsout * Cscsf)  # the printed sign: an efflux
             + s.PSE * (d.lam_bm * d.fubm * Cbm - d.lam_ccsf * d.fuccsf * Cccsf)
             - s.Qsin * Cccsf
             - s.Qcsink * Cccsf)

    Jscsf = s.Qsin * Cccsf - s.Qsout * Cscsf - s.Qssink * Cscsf

    return Jbb, Jbm, Jccsf, Jscsf


def volumes(sys: SystemParams):
    """Compartment volumes (L) in state order."""
    return sys.Vbb, sys.Vbm, sys.Vccsf, sys.Vscsf


def rhs_terms(Y, cart, sys: SystemParams, drug: DrugParams):
    """``influx_terms`` divided by the compartment volumes: a 4-tuple of
    dC/dt values (mg/(L*h)), generic over the same argument types."""
    J = influx_terms(Y, cart, sys, drug)
    return tuple(j / v for j, v in zip(J, volumes(sys)))
