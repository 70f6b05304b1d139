"""Loss values against scalar double-loop oracles, plus gradient checks.

The oracles below use plain Python loops and `math` so they share no code
with the vectorized implementations they certify.
"""

import math
import warnings

import numpy as np
import pytest

from crosstill import losses as L
from crosstill.autodiff import Tensor
from crosstill.errors import ConfigError, ContractError
from crosstill.gradcheck import finite_diff_check
from crosstill.rng import stream


# -- scalar oracles --------------------------------------------------------


def oracle_cosine(x, y):
    nx = math.sqrt(sum(float(v) * float(v) for v in x))
    ny = math.sqrt(sum(float(v) * float(v) for v in y))
    dot = sum(float(a) * float(b) for a, b in zip(x, y))
    return dot / (max(nx, 1e-12) * max(ny, 1e-12))


def oracle_anchor_align(anchor, src, tgt):
    n, d = len(anchor), len(anchor[0])
    total = 0.0
    for i in range(n):
        mse_s = sum((anchor[i][k] - src[i][k]) ** 2 for k in range(d)) / d
        mse_t = sum((anchor[i][k] - tgt[i][k]) ** 2 for k in range(d)) / d
        total += mse_s + mse_t
    return total / n


def oracle_pairwise_align(ref_src, out_src, ref_tgt, out_tgt):
    n, d = len(ref_src), len(ref_src[0])
    total = 0.0
    for i in range(n):
        mse_s = sum((ref_src[i][k] - out_src[i][k]) ** 2 for k in range(d)) / d
        mse_t = sum((out_tgt[i][k] - ref_tgt[i][k]) ** 2 for k in range(d)) / d
        total += mse_s + mse_t
    return total / n


def oracle_mcl(teacher, stu_src, stu_tgt):
    n = len(teacher)
    total = 0.0
    for i in range(n):
        for j in range(n):
            t = oracle_cosine(teacher[i], teacher[j])
            s = oracle_cosine(stu_src[i], stu_tgt[j])
            total += (t - s) ** 2
    return total / (n * n)


def oracle_bool(labels, stu_src, stu_tgt):
    n = len(stu_src)
    total = 0.0
    for i in range(n):
        for j in range(n):
            delta = labels[i][j] if labels is not None else (1.0 if i == j else 0.0)
            total += (delta - oracle_cosine(stu_src[i], stu_tgt[j])) ** 2
    return total / (n * n)


def oracle_ce(teacher, stu_src, stu_tgt, tau, normalized=False):
    n = len(teacher)
    phi_t = [[oracle_cosine(teacher[i], teacher[j]) for j in range(n)] for i in range(n)]
    phi_s = [[oracle_cosine(stu_src[i], stu_tgt[j]) for j in range(n)] for i in range(n)]
    if normalized:
        out_rows = []
        for row in phi_t:
            mx = max(v / tau for v in row)
            exps = [math.exp(v / tau - mx) for v in row]
            z = sum(exps)
            out_rows.append([e / z for e in exps])
        phi_t = out_rows
    total = 0.0
    for i in range(n):
        mx = max(phi_s[i][k] / tau for k in range(n))
        lse = mx + math.log(sum(math.exp(phi_s[i][k] / tau - mx) for k in range(n)))
        for j in range(n):
            total -= phi_t[i][j] * (phi_s[i][j] / tau - lse)
    return total


def oracle_stage4(teacher, stu_src, stu_tgt):
    return oracle_mcl(teacher, stu_src, stu_tgt) + oracle_anchor_align(
        teacher, stu_src, stu_tgt
    )


def rows(rng, n, d):
    return rng.standard_normal((n, d))


# -- cosine ----------------------------------------------------------------


def row_cosine(x, y) -> float:
    """Cosine of two vectors through the one-cell cosine_matrix."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    y = np.asarray(y, dtype=np.float64)[None, :]
    return float(L.cosine_matrix(Tensor(x), Tensor(y)).data[0, 0])


class TestCosine:
    def test_self_is_one(self):
        x = np.array([0.3, -2.0, 5.0])
        assert row_cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        x = np.array([1.0, 2.0, -1.0])
        assert row_cosine(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert row_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_case(self):
        assert row_cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(4.0 / 5.0, abs=1e-12)

    def test_zero_vector_clamps_with_counted_warning(self):
        L.reset_clamp_warnings()
        a = Tensor(np.array([[0.0, 0.0]]))
        b = Tensor(np.array([[1.0, 0.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = L.cosine_matrix(a, b).data
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "clamped" in str(caught[0].message)
        assert grid[0, 0] == 0.0
        assert L.clamp_warning_count() == 1
        L.reset_clamp_warnings()

    def test_matrix_matches_scalar(self):
        rng = stream(11, "cosgrid")
        a = rows(rng, 3, 5)
        b = rows(rng, 4, 5)
        grid = L.cosine_matrix(Tensor(a), Tensor(b)).data
        for i in range(3):
            for j in range(4):
                assert grid[i, j] == pytest.approx(oracle_cosine(a[i], b[j]), abs=1e-12)

    def test_matrix_rejects_dim_mismatch(self):
        with pytest.raises(ContractError, match="mismatch"):
            L.cosine_matrix(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


# -- fixed-point and hand-computed values ----------------------------------


class TestFixedPoints:
    def test_anchor_align_zero_when_all_equal(self):
        a = np.ones((3, 4))
        assert L.loss_anchor_align(a, a, a).item() == 0.0

    def test_anchor_align_hand_case(self):
        value = L.loss_anchor_align([[0.0]], [[1.0]], [[2.0]])
        assert value.item() == pytest.approx(5.0, abs=1e-12)
        assert value.components["source"] == pytest.approx(1.0)
        assert value.components["target"] == pytest.approx(4.0)

    def test_pairwise_align_zero_on_match(self):
        rng = stream(5, "pw0")
        s, t = rows(rng, 3, 4), rows(rng, 3, 4)
        assert L.loss_pairwise_align(s, s, t, t).item() == 0.0

    def test_pairwise_align_symmetric_swap(self):
        rng = stream(5, "pwsym")
        rs, os_, rt, ot = (rows(rng, 3, 4) for _ in range(4))
        v1 = L.loss_pairwise_align(rs, os_, rt, ot).item()
        v2 = L.loss_pairwise_align(rt, ot, rs, os_).item()
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_mcl_zero_when_grids_match(self):
        rng = stream(5, "mcl0")
        t = rows(rng, 4, 6)
        # student grids match teacher exactly when src=tgt=teacher
        assert L.loss_mcl(t, t, t).item() == pytest.approx(0.0, abs=1e-14)

    def test_mcl_single_pair_reduces_to_one_minus_cos(self):
        rng = stream(5, "mcl1")
        t, s, u = rows(rng, 1, 5), rows(rng, 1, 5), rows(rng, 1, 5)
        expected = (1.0 - oracle_cosine(s[0], u[0])) ** 2
        assert L.loss_mcl(t, s, u).item() == pytest.approx(expected, rel=1e-12)

    def test_bool_zero_on_identity_grid(self):
        # orthonormal rows: cross grid is exactly the identity
        s = np.eye(3)
        assert L.loss_bool(None, s, s).item() == pytest.approx(0.0, abs=1e-14)

    def test_bool_single_orthogonal_pair(self):
        s = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 1.0]])
        assert L.loss_bool(None, s, t).item() == pytest.approx(1.0, abs=1e-12)

    def test_ce_single_pair_literal_is_zero(self):
        rng = stream(5, "ce1")
        t, s, u = rows(rng, 1, 5), rows(rng, 1, 5), rows(rng, 1, 5)
        assert L.loss_ce(t, s, u).item() == pytest.approx(0.0, abs=1e-12)

    def test_ce_uniform_student_row(self):
        # all student cosines equal -> softmax row is uniform 1/N
        n, tau = 4, 0.05
        rng = stream(5, "ceu")
        t = rows(rng, n, 6)
        s = np.tile(np.array([1.0, 0.0]), (n, 1))
        u = np.tile(np.array([1.0, 0.0]), (n, 1))
        phi_t_sum = sum(
            oracle_cosine(t[i], t[j]) for i in range(n) for j in range(n)
        )
        expected = -phi_t_sum * math.log(1.0 / n)
        got = L.loss_ce(t, s, u, L.CeLossConfig(temperature=tau)).item()
        assert got == pytest.approx(expected, rel=1e-10)

    def test_stage4_breakdown_identity(self):
        rng = stream(5, "s4b")
        t, s, u = rows(rng, 3, 4), rows(rng, 3, 4), rows(rng, 3, 4)
        lv = L.loss_stage4(t, s, u)
        assert abs(lv.item() - lv.components["contrastive"] - lv.components["kd"]) <= 1e-7

    def test_stage4_zero_at_fixed_point(self):
        t = np.eye(3)
        assert L.loss_stage4(t, t, t).item() == pytest.approx(0.0, abs=1e-14)

    def test_stage4_none_variant_is_kd_only(self):
        rng = stream(5, "s4n")
        t, s, u = rows(rng, 3, 4), rows(rng, 3, 4), rows(rng, 3, 4)
        lv = L.loss_stage4(t, s, u, variant="none")
        assert lv.components["contrastive"] == 0.0
        assert lv.item() == pytest.approx(oracle_anchor_align(t, s, u), rel=1e-12)


# -- oracle equivalence on random instances --------------------------------


class TestOracleEquivalence:
    N_INSTANCES = 25  # the acceptance suite runs the full 100-instance sweep

    def test_all_losses_match_oracles(self):
        rng = stream(42, "loss-oracle-unit")
        for case in range(self.N_INSTANCES):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(2, 7))
            t, s, u = rows(rng, n, d), rows(rng, n, d), rows(rng, n, d)
            rs, ro, tt, to = (rows(rng, n, d) for _ in range(4))

            checks = [
                (L.loss_anchor_align(t, s, u).item(), oracle_anchor_align(t, s, u)),
                (L.loss_pairwise_align(rs, ro, tt, to).item(),
                 oracle_pairwise_align(rs, ro, tt, to)),
                (L.loss_mcl(t, s, u).item(), oracle_mcl(t, s, u)),
                (L.loss_bool(None, s, u).item(), oracle_bool(None, s, u)),
                (L.loss_ce(t, s, u).item(), oracle_ce(t, s, u, 0.05)),
                (L.loss_ce(t, s, u, L.CeLossConfig(teacher_weight_mode="softmax-normalized")).item(),
                 oracle_ce(t, s, u, 0.05, normalized=True)),
                (L.loss_stage4(t, s, u).item(), oracle_stage4(t, s, u)),
            ]
            for got, want in checks:
                assert got == pytest.approx(want, rel=1e-7, abs=1e-12), f"case {case}"

    def test_bool_with_explicit_labels(self):
        rng = stream(42, "bool-labels")
        s, u = rows(rng, 3, 4), rows(rng, 3, 4)
        labels = np.eye(3)[::-1].copy()  # anti-diagonal pairing
        got = L.loss_bool(labels, s, u).item()
        assert got == pytest.approx(oracle_bool(labels.tolist(), s, u), rel=1e-10)


# -- structural invariances ------------------------------------------------


class TestInvariances:
    def test_mcl_rotation_invariance(self):
        rng = stream(9, "rot")
        t, s, u = rows(rng, 4, 5), rows(rng, 4, 5), rows(rng, 4, 5)
        q_t, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q_s, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = L.loss_mcl(t, s, u).item()
        rotated = L.loss_mcl(t @ q_t, s @ q_s, u @ q_s).item()
        assert rotated == pytest.approx(base, rel=1e-10)

    def test_mcl_per_vector_scale_invariance(self):
        rng = stream(9, "scale")
        t, s, u = rows(rng, 4, 5), rows(rng, 4, 5), rows(rng, 4, 5)
        scales = rng.uniform(0.1, 10.0, size=(4, 1))
        base = L.loss_mcl(t, s, u).item()
        scaled = L.loss_mcl(t * scales, s * rng.uniform(0.1, 10.0, size=(4, 1)), u).item()
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_mse_losses_nonnegative(self):
        rng = stream(9, "nonneg")
        for _ in range(10):
            n, d = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            t, s, u = rows(rng, n, d), rows(rng, n, d), rows(rng, n, d)
            assert L.loss_anchor_align(t, s, u).item() >= 0.0
            assert L.loss_mcl(t, s, u).item() >= 0.0
            assert L.loss_bool(None, s, u).item() >= 0.0
            assert L.loss_stage4(t, s, u).item() >= 0.0


# -- gradients -------------------------------------------------------------


def grad_case(loss_builder, n, d, seed_label):
    rng = stream(21, seed_label)
    tensors = {
        name: Tensor(rng.standard_normal((n, d)), requires_grad=True)
        for name in ("a", "b", "c", "d")
    }
    report = finite_diff_check(lambda: loss_builder(tensors), tensors, seed=3)
    assert report.max_rel_error <= 1e-6, (
        f"{seed_label} n={n} d={d}: {report.max_rel_error:.2e}, "
        f"per parameter {report.per_param}"
    )


class TestGradients:
    @pytest.mark.parametrize("n,d", [(1, 4), (2, 4), (4, 8)])
    def test_anchor_align(self, n, d):
        grad_case(lambda ts: L.loss_anchor_align(ts["a"], ts["b"], ts["c"]).value,
                  n, d, "g-anchor")

    @pytest.mark.parametrize("n,d", [(2, 4), (4, 8)])
    def test_pairwise_align(self, n, d):
        grad_case(
            lambda ts: L.loss_pairwise_align(ts["a"], ts["b"], ts["c"], ts["d"]).value,
            n, d, "g-pairwise")

    @pytest.mark.parametrize("n,d", [(1, 4), (2, 4), (4, 8)])
    def test_mcl(self, n, d):
        grad_case(lambda ts: L.loss_mcl(ts["a"], ts["b"], ts["c"]).value, n, d, "g-mcl")

    @pytest.mark.parametrize("n,d", [(2, 4), (4, 8)])
    def test_bool(self, n, d):
        grad_case(lambda ts: L.loss_bool(None, ts["b"], ts["c"]).value, n, d, "g-bool")

    @pytest.mark.parametrize("n,d", [(2, 4), (4, 8)])
    def test_ce_literal(self, n, d):
        grad_case(lambda ts: L.loss_ce(ts["a"], ts["b"], ts["c"]).value, n, d, "g-ce")

    @pytest.mark.parametrize("n,d", [(2, 4), (4, 8)])
    def test_ce_normalized_at_unit_temperature(self, n, d):
        # At the working temperature 0.05 the teacher softmax saturates and
        # its gradients shrink below what finite differences can resolve, so
        # the code path is checked at temperature 1; values at 0.05 are
        # certified against the loop oracle elsewhere.
        grad_case(
            lambda ts: L.loss_ce(
                ts["a"], ts["b"], ts["c"],
                L.CeLossConfig(temperature=1.0,
                               teacher_weight_mode="softmax-normalized")).value,
            n, d, "g-ce-norm")

    @pytest.mark.parametrize("n,d", [(1, 4), (4, 8)])
    def test_stage4(self, n, d):
        grad_case(lambda ts: L.loss_stage4(ts["a"], ts["b"], ts["c"]).value,
                  n, d, "g-stage4")


# -- contracts -------------------------------------------------------------


class TestContracts:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            L.loss_anchor_align(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 3)))

    def test_mcl_batch_mismatch_rejected(self):
        with pytest.raises(ContractError):
            L.loss_mcl(np.ones((3, 4)), np.ones((2, 4)), np.ones((2, 4)))

    def test_stage4_dim_mismatch_rejected(self):
        with pytest.raises(ContractError, match="equal student"):
            L.loss_stage4(np.ones((2, 6)), np.ones((2, 4)), np.ones((2, 4)))

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConfigError, match="temperature"):
            L.CeLossConfig(temperature=0.0)

    def test_bad_weight_mode_rejected(self):
        with pytest.raises(ConfigError, match="teacher_weight_mode"):
            L.CeLossConfig(teacher_weight_mode="raw")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            L.loss_stage4(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)),
                          variant="other")
