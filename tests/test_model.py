import numpy as np
import pytest

from brainpbpk.model import assemble_matrix, rates, rhs_terms
from brainpbpk.params import (ALL_PARAM_NAMES, SYSTEM_PARAM_NAMES, DrugParams,
                              SystemParams, substitute)

SYS = SystemParams()
DRUG = DrugParams()


class TestAssembleMatrix:
    def test_spinal_diagonal_entry(self):
        A = assemble_matrix(SYS, DRUG)
        expected = -(0.007489995 + 0.007761342) / 0.025996156
        assert A[3, 3] == pytest.approx(expected, rel=1e-12)
        assert A[3, 3] == pytest.approx(-0.586676, abs=1e-6)

    def test_spinal_row_zeros(self):
        A = assemble_matrix(SYS, DRUG)
        assert A[3, 0] == 0.0
        assert A[3, 1] == 0.0

    def test_spinal_flow_balance_identity(self):
        # Qsin == Qsout + Qssink for the reference values
        A = assemble_matrix(SYS, DRUG)
        assert abs(A[3, 2] + A[3, 3]) < 1e-12

    def test_zero_transport_gives_zero_matrix(self):
        s = SystemParams(Vbb=1, Vbm=1, Vccsf=1, Vscsf=1, Qbrain=0, Qcsink=0,
                         Qssink=0, QbulkBC=0, QbulkCB=0, Qsout=0, Qsin=0,
                         PSB=0, PSC=0, PSE=0)
        d = DrugParams(CLBout=0, CLCin=0)
        assert np.all(assemble_matrix(s, d) == 0.0)

    def test_diagonal_strictly_negative_with_defaults(self):
        A = assemble_matrix(SYS, DRUG)
        assert np.all(np.diag(A) < 0.0)

    def test_deterministic(self):
        A1 = assemble_matrix(SYS, DRUG)
        A2 = assemble_matrix(SYS, DRUG)
        assert np.array_equal(A1, A2)


class TestRhs:
    def test_zero_state_forced(self):
        out = np.array(rhs_terms(np.zeros(4), 1.0, SYS, DRUG))
        assert out[0] == pytest.approx(38.0 / 0.064952435, rel=1e-12)
        assert out[0] == pytest.approx(585.04, abs=0.01)
        assert np.all(out[1:] == 0.0)

    def test_zero_everything(self):
        out = np.array(rhs_terms(np.zeros(4), 0.0, SYS, DRUG))
        assert np.all(out == 0.0)

    def test_spinal_only_state(self):
        out = np.array(rhs_terms(np.array([0, 0, 0, 1.0]), 0.0, SYS, DRUG))
        expected = -(SYS.Qsout + SYS.Qssink) / SYS.Vscsf
        assert out[3] == pytest.approx(expected, rel=1e-12)
        assert out[3] == pytest.approx(-0.586676, abs=1e-6)


def random_params(rng):
    s = SystemParams(
        Vbb=rng.uniform(0.01, 1), Vbm=rng.uniform(0.1, 2),
        Vccsf=rng.uniform(0.01, 1), Vscsf=rng.uniform(0.01, 1),
        Qbrain=rng.uniform(0, 50), Qcsink=rng.uniform(0, 0.1),
        Qssink=rng.uniform(0, 0.1), QbulkBC=rng.uniform(0, 0.1),
        QbulkCB=rng.uniform(0, 0.1), Qsout=rng.uniform(0, 0.1),
        Qsin=rng.uniform(0, 0.1), PSB=rng.uniform(0, 300),
        PSC=rng.uniform(0, 300), PSE=rng.uniform(0, 500))
    d = DrugParams(
        CLBin=rng.uniform(0, 10), CLBout=rng.uniform(0, 200),
        CLCin=rng.uniform(0, 20), CLCout=rng.uniform(0, 20),
        CLmet=rng.uniform(0, 5), fubb=rng.uniform(0, 1),
        fubm=rng.uniform(0, 1), fuccsf=rng.uniform(0, 1),
        lam_bb=rng.uniform(0, 1), lam_bm=rng.uniform(0, 1),
        lam_ccsf=rng.uniform(0, 1))
    return s, d


def test_terms_match_matrix_form_randomized():
    # term-by-term equations vs theta-matrix assembly, 1000 random draws
    rng = np.random.default_rng(42)
    draws = []
    for _ in range(1000):
        s, d = random_params(rng)
        draws.append((s, d))
        y = rng.uniform(0, 1, size=4)
        cart = rng.uniform(0, 1)
        A = assemble_matrix(s, d)
        via_matrix = A @ y
        via_matrix[0] += s.Qbrain * cart / s.Vbb
        via_terms = np.array(rhs_terms(y, cart, s, d))
        scale = np.maximum(np.abs(via_matrix), 1.0)
        assert np.all(np.abs(via_terms - via_matrix) / scale < 1e-12)

    # the batched rate map on (P, 1) columns of the same draws, real and as
    # a complex-step batch (an imaginary step on every parameter), against
    # the matrix form row by row; the plasma enters brain blood alone
    columns = {name: np.array([[getattr(s if name in SYSTEM_PARAM_NAMES
                                        else d, name)] for s, d in draws])
               for name in ALL_PARAM_NAMES}
    oracle = np.array([assemble_matrix(s, d) for s, d in draws])
    forcing = np.array([[s.Qbrain / s.Vbb, 0.0, 0.0, 0.0] for s, _ in draws])
    for step in (0.0, 1e-30j):
        M, q, V = rates(*substitute({n: c + step
                                     for n, c in columns.items()}))
        assert M.shape == (1000, 4, 4) and q.shape == V.shape == (1000, 4)
        M, q, V = M.real, q.real, V.real
        A = M / V[..., None]
        assert np.all(np.abs(A - oracle) <= 1e-14 * np.abs(oracle))
        assert np.array_equal(q / V, forcing)
