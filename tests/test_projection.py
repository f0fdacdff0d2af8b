"""Projection tests: Fourier-Motzkin, redundancy pruning, FOR extraction."""
import json
import time

import numpy as np
import pytest
from scipy.linalg import null_space

from gridcoord import grid_model as gm
from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from suite_helpers import MODEL_KINDS, deep_feeder, feeder_copies, lift_point


def box(dim, lo=0.0, hi=1.0):
    A = np.vstack([np.eye(dim), -np.eye(dim)])
    b = np.concatenate([np.full(dim, hi), np.full(dim, -lo)])
    return pj.Polyhedron(dim, A, b, tuple(f"x{i}" for i in range(dim)))


def simplex3():
    A = np.vstack([-np.eye(3), np.ones((1, 3))])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    return pj.Polyhedron(3, A, b, ("x", "y", "z"))


def chain_feeder(loads, r=0.01, x=0.02, gens=()):
    buses = [gm.Bus(1, "slack")]
    for i, (p, q) in enumerate(loads, start=2):
        buses.append(gm.Bus(i, "load", p_load=p, q_load=q))
    lines = tuple(gm.Line(i, i + 1, r, x) for i in range(1, len(buses)))
    return gm.GridCase(100.0, tuple(buses), lines, tuple(gens))


LINK = gm.Interconnection(1, 8, 1)


def feeder_model():
    gens = (gm.Generator(3, 0.0, 0.5, -0.2, 0.2, cost_a2=1.0),)
    case = chain_feeder([(0.3, 0.1), (0.2, 0.1)], gens=gens)
    return pm.build_lindistflow_model(case, LINK)


class TestPolyhedron:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pj.Polyhedron(2, np.eye(3), np.zeros(3), ("a", "b"))
        with pytest.raises(ValueError):
            pj.Polyhedron(2, np.eye(2), np.zeros(2), ("a",))

    def test_empty_marker(self):
        e = pj.Polyhedron.empty(3, ("a", "b", "c"))
        assert e.is_marked_empty
        assert not pj.contains(e, [0.0, 0.0, 0.0])
        assert not box(2).is_marked_empty

    def test_from_model_row_count(self):
        model = feeder_model()
        poly = pj.from_model(model)
        qp = model.qp_skeleton
        assert poly.n_rows == qp.b_ineq.size + 2 * qp.b_eq.size
        assert poly.labels == model.vmap.labels

    def test_contains_slack(self):
        sq = box(2)
        assert pj.contains(sq, [0.5, 0.5])
        assert pj.contains(sq, [1.0 + 1e-12, 0.0], slack=1e-9)
        assert not pj.contains(sq, [1.1, 0.0], slack=1e-9)

    def test_contains_matches_row_check(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        poly = pj.Polyhedron(3, A, b, ("a", "b", "c"))
        for _ in range(100):
            p = rng.normal(size=3)
            assert pj.contains(poly, p, 1e-9) == bool(np.all(A @ p <= b + 1e-9))


class TestEliminateVariable:
    def test_single_pairing(self):
        poly = pj.Polyhedron(2, np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                             np.array([1.0, 0.0, 0.0]), ("x", "y"))
        out = pj.eliminate_variable(poly, 1)
        assert out.dim == 1
        assert out.n_rows == 2
        assert pj.contains(out, [0.5]) and pj.contains(out, [1.0])
        assert not pj.contains(out, [1.5]) and not pj.contains(out, [-0.1])

    def test_absent_column_identity(self):
        poly = pj.Polyhedron(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             np.array([2.0, 0.0]), ("x", "y"))
        out = pj.eliminate_variable(poly, 1)
        assert out.dim == 1
        assert np.array_equal(out.A, np.array([[1.0], [-1.0]]))
        assert np.array_equal(out.b, poly.b)

    def test_row_explosion(self, monkeypatch):
        monkeypatch.setattr(pj, "ROW_CAP_DEFAULT", 100)
        rng = np.random.default_rng(0)
        A = np.vstack([np.column_stack([np.ones(30), rng.normal(size=(30, 2))]),
                       np.column_stack([-np.ones(30), rng.normal(size=(30, 2))])])
        poly = pj.Polyhedron(3, A, rng.normal(size=60), ("x", "y", "z"))
        with pytest.raises(pj.RowExplosion):
            pj.eliminate_variable(poly, 0)

    def test_membership_matches_lifted_feasibility(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(12, 4))
        x0 = rng.normal(size=4)
        b = A @ x0 + rng.uniform(0.2, 1.0, size=12)
        poly = pj.Polyhedron(4, A, b, ("a", "b", "c", "d"))
        out = pj.eliminate_variable(poly, 3)
        pin = np.zeros((3, 4))
        pin[:, :3] = np.eye(3)
        for _ in range(200):
            w = x0[:3] + rng.normal(scale=1.5, size=3)
            ok, _ = oc.check_feasible(A, b, pin, w, tol=1e-9)
            assert pj.contains(out, w, 1e-7) == ok

    def test_detects_emptiness(self):
        poly = pj.Polyhedron(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             np.array([0.0, -1.0]), ("x", "y"))
        out = pj.eliminate_variable(poly, 0)
        assert out.is_marked_empty


def minimal(poly):
    """The minimal-row description `project_onto` gives on every column."""
    return pj.project_onto(poly, range(poly.dim))


class TestRemoveRedundant:
    """Redundant rows go in `project_onto`, by `_prune_rows` around one
    interior point; equality pairs and emptiness are kept."""

    def test_duplicate_removed(self):
        sq = box(2)
        dup = pj.Polyhedron(2, np.vstack([sq.A, [[1.0, 0.0]]]),
                            np.concatenate([sq.b, [1.0]]), sq.labels)
        out = minimal(dup)
        assert out.n_rows == 4

    def test_dominated_removed(self):
        poly = pj.Polyhedron(1, np.array([[1.0], [1.0], [-1.0]]),
                             np.array([1.0, 2.0, 0.0]), ("x",))
        out = minimal(poly)
        assert out.n_rows == 2
        assert pj.contains(out, [1.0]) and not pj.contains(out, [1.5])

    def test_membership_preserved(self):
        rng = np.random.default_rng(21)
        A = np.vstack([rng.normal(size=(14, 3)), np.eye(3), -np.eye(3)])
        b = np.concatenate([rng.uniform(0.5, 2.0, 14), np.full(6, 3.0)])
        poly = pj.Polyhedron(3, A, b, ("a", "b", "c"))
        out = minimal(poly)
        assert out.n_rows <= poly.n_rows
        for _ in range(500):
            p = rng.uniform(-3.5, 3.5, size=3)
            assert pj.contains(poly, p, 1e-9) == pj.contains(out, p, 1e-9)

    def test_keeps_equality_pairs(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0, -1.0, 5.0, 5.0])
        out = minimal(pj.Polyhedron(2, A, b, ("x", "y")))
        assert out.n_rows == 4  # the x = 1 pair survives
        assert pj.contains(out, [1.0, 2.0])
        assert not pj.contains(out, [1.1, 2.0])

    def test_infeasible_becomes_marker(self):
        poly = pj.Polyhedron(1, np.array([[1.0], [-1.0]]),
                             np.array([0.0, -1.0]), ("x",))
        assert minimal(poly).is_marked_empty


def assert_same_set(A, b, A_out, b_out, rng, half_width, n=500):
    """Both row systems agree on membership of n uniform points."""
    dim = A.shape[1]
    labels = tuple(f"x{i}" for i in range(dim))
    before = pj.Polyhedron(dim, A, b, labels)
    after = pj.Polyhedron(dim, A_out, b_out, labels)
    for _ in range(n):
        p = rng.uniform(-half_width, half_width, size=dim)
        assert pj.contains(before, p, 1e-9) == pj.contains(after, p, 1e-9)


def sequential_prune(A_in, b_in, A_eq, b_eq):
    """Reference survivor mask: one scalar LP per row, in index order,
    against the rows still active.  Row i goes when its maximum over the
    other active rows (row i relaxed to b_i + 1) stays within the keep
    tolerance of b_i; of two copies of a row the later one survives."""
    active = np.ones(b_in.size, dtype=bool)
    no_eq = A_eq is None or A_eq.shape[0] == 0
    for i in range(b_in.size):
        others = active.copy()
        others[i] = False
        if not others.any() and no_eq:
            continue
        trial_A = np.vstack([A_in[others], A_in[i:i + 1]])
        trial_b = np.concatenate([b_in[others], [b_in[i] + 1.0]])
        sol = oc.solve_lp(-A_in[i], trial_A, trial_b, A_eq, b_eq, tol=1e-10)
        if sol.status == oc.OPTIMAL and \
                -sol.objective <= b_in[i] + pj._KEEP_TOL:
            active[i] = False
    return active


# (seed, equality rows); the equality-free cases keep their plain seed ids
HULL_CASES = [pytest.param(seed, 0, id=str(seed)) for seed in range(5)] + [
    pytest.param(seed, 1 + seed % 2, id=f"{seed}-eq{1 + seed % 2}")
    for seed in range(5)]


class TestHullPruning:
    @pytest.fixture
    def lp_forbidden(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("LP pruning pass used")
        monkeypatch.setattr(pj, "_prune_rows_exact", fail)

    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("seed, n_eq", HULL_CASES)
    def test_matches_exact_lp_pass(self, seed, n_eq, bounded):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 3 + n_eq  # affine dimension 2..4 after equalities
        A = rng.normal(size=(25, dim))
        if not bounded:
            A[:, 0] = -np.abs(A[:, 0])  # every row allows x0 -> +inf
        A, _ = pj._normalize(A, np.zeros(25))
        b = rng.uniform(0.5, 2.0, size=25)
        z0 = np.zeros(dim)
        A_eq = rng.normal(size=(n_eq, dim))
        A_eq[:, 0] = 0.0  # x0 stays free on the equality set
        b_eq = np.zeros(n_eq)
        hull = pj._prune_rows_hull(A, b, z0, A_eq)
        exact = sequential_prune(A, b, A_eq, b_eq)
        np.testing.assert_array_equal(hull, exact)
        assert 0 < hull.sum() < 25
        N = null_space(A_eq) if n_eq else np.eye(dim)
        assert_same_set(A @ N, b, A[hull] @ N, b[hull], rng, 4.0)
        direction = np.eye(dim)[0]
        assert bounded == bool(np.any(A[hull] @ direction > 0))

    def test_weakly_redundant_and_scaled_duplicate_dropped(self, lp_forbidden):
        cube = box(3)
        # x+y+z <= 3 touches the cube only at its (1,1,1) vertex
        A = np.vstack([cube.A, [[1.0, 1.0, 1.0]], [[2.0, 0.0, 0.0]]])
        b = np.concatenate([cube.b, [3.0, 2.0]])
        hull = pj._prune_rows_hull(A, b, np.full(3, 0.5), None)
        np.testing.assert_array_equal(hull, [True] * 6 + [False, False])
        A_out, b_out, feasible = pj._prune_rows(A, b, None, None,
                                                z0=np.full(3, 0.5))
        assert feasible and b_out.size == 6
        assert_same_set(A, b, A_out, b_out, np.random.default_rng(3), 1.5)

    def test_one_dimensional_keeps_tightest_bounds(self, lp_forbidden):
        out = minimal(pj.Polyhedron(
            1, np.array([[1.0], [1.0], [-1.0]]), np.array([1.0, 2.0, 0.0]),
            ("x",)))
        np.testing.assert_array_equal(np.column_stack([out.A, out.b]),
                                      [[-1.0, 0.0], [1.0, 1.0]])
        rng = np.random.default_rng(11)
        a = rng.choice([-1.0, 1.0], size=40) * rng.uniform(0.5, 2.0, size=40)
        b = rng.uniform(0.5, 2.0, size=40)
        A_out, b_out, _ = pj._prune_rows(a[:, None], b, None, None)
        np.testing.assert_allclose(np.sort(b_out / A_out[:, 0]),
                                   [(b / a)[a < 0].max(), (b / a)[a > 0].min()])
        A_out, _, _ = pj._prune_rows(np.array([[2.0]]), np.ones(1), None, None)
        assert A_out.shape == (1, 1)

    @pytest.mark.parametrize("n_eq", [0, 1, 2, 3])
    def test_high_affine_dimension_agrees_with_exact(self, n_eq):
        # 11 columns: polar rank 11 - n_eq exceeds _HULL_MAX_DIM and the
        # exact pass decides unless three equalities leave an 8-dimensional
        # affine hull
        rng = np.random.default_rng(40 + n_eq)
        A, b = rng.normal(size=(30, 11)), rng.uniform(0.5, 2.0, size=30)
        i, j = rng.choice(30, size=(2, 10))  # ten rows implied by two others
        A, b = pj._normalize(np.vstack([A, 0.5 * (A[i] + A[j])]),
                             np.concatenate([b, 0.5 * (b[i] + b[j]) + 0.1]))
        A_eq, b_eq = rng.normal(size=(n_eq, 11)), np.zeros(n_eq)
        exact = sequential_prune(A, b, A_eq, b_eq)
        assert exact.sum() < b.size
        np.testing.assert_array_equal(pj._prune_rows_exact(A, b, A_eq, b_eq),
                                      exact)
        hull = pj._prune_rows_hull(A, b, np.zeros(11), A_eq)
        assert (hull is None) == (n_eq < 3)
        A_out, _, _ = pj._prune_rows(A, b, A_eq, b_eq, z0=np.zeros(11))
        np.testing.assert_array_equal(A_out, A[exact])

    def test_packaged_feeders_need_no_lp_pruning(self, benchmark_dso_models,
                                                 lp_forbidden):
        # every FM step of a feeder carries equality rows
        for model in benchmark_dso_models.values():
            assert not pj.coupling_region(model).is_marked_empty

    def test_line_containing_settled_by_hull(self, lp_forbidden):
        # every normal lies in the x-y plane: the z axis is a lineality
        # direction and the polar points span only a plane, in whose own
        # basis the hull is taken
        t = np.linspace(0.0, 2 * np.pi, 9)[:-1]
        A = np.column_stack([np.cos(t), np.sin(t), np.zeros(8)])
        A = np.vstack([A, [[0.5, 0.5, 0.0]]])  # redundant
        b = np.ones(9)
        z0 = np.zeros(3)
        np.testing.assert_array_equal(pj._prune_rows_hull(A, b, z0, None),
                                      [True] * 8 + [False])
        A_out, b_out, feasible = pj._prune_rows(A, b, None, None, z0=z0)
        assert feasible and b_out.size == 8
        assert_same_set(A, b, A_out, b_out, np.random.default_rng(5), 2.0)


def rank_11_system(seed, n_eq=0):
    """50 normalised rows on 11 columns, no two alike: 20 random ones, the
    box [-1, 1]^11 and eight rows each implied by two of the random ones;
    with n_eq random equalities the polar rank 11 - n_eq stays above
    _HULL_MAX_DIM for n_eq < 3."""
    rng = np.random.default_rng(seed)
    A = np.vstack([rng.normal(size=(20, 11)), np.eye(11), -np.eye(11)])
    b = np.concatenate([rng.uniform(0.5, 2.0, size=20), np.ones(22)])
    i, j = rng.choice(20, size=(2, 8), replace=False)
    A = np.vstack([A, 0.5 * (A[i] + A[j])])
    b = np.concatenate([b, 0.5 * (b[i] + b[j]) + 0.1])
    A_eq = rng.normal(size=(n_eq, 11))
    return (*pj._normalize(A, b), A_eq, np.zeros(n_eq))


class TestExactPass:
    """The lockstep exact pass keeps the rows the sequential pass keeps."""

    def test_duplicate_on_equality_set_keeps_later_copy(self):
        A, b, A_eq, b_eq = rank_11_system(50, n_eq=2)
        first = int(np.flatnonzero(sequential_prune(A, b, A_eq, b_eq))[0])
        # the same constraint on the equality set, written differently
        A, b = pj._normalize(np.vstack([A, A[first] + 0.7 * A_eq[0]]),
                             np.append(b, b[first] + 0.7 * b_eq[0]))
        exact = sequential_prune(A, b, A_eq, b_eq)
        assert not exact[first] and exact[-1]
        np.testing.assert_array_equal(pj._prune_rows_exact(A, b, A_eq, b_eq),
                                      exact)
        np.testing.assert_array_equal(
            pj._prune_rows_exact(A, b, A_eq, b_eq, None, np.zeros(11)), exact)

    def test_ray_hitting_two_copies_certifies_neither(self):
        # x0 + x2 <= 1 is x0 <= 1 on the plane x2 = 0: the ray of either
        # row from the origin hits both at once, leaving no margin, so
        # both go to their LPs and the later copy survives
        A = np.vstack([[1.0, 0.0, 1.0], np.eye(3)[:2], -np.eye(3)[:2]])
        b = np.ones(5)
        A_eq, b_eq = np.eye(3)[2:], np.zeros(1)
        exact = sequential_prune(A, b, A_eq, b_eq)
        np.testing.assert_array_equal(exact, [False] + [True] * 4)
        stats = dict.fromkeys(("carried", "ray_certified", "exact_lps",
                               "scalar_lps"), 0)
        np.testing.assert_array_equal(
            pj._prune_rows_exact(A, b, A_eq, b_eq, None, np.zeros(3), stats),
            exact)
        assert stats["ray_certified"] == 3 and stats["exact_lps"] == 2

    def test_weakly_redundant_vertex_row(self):
        A, b, A_eq, b_eq = rank_11_system(51)
        # slacken the other rows so that the box corner (1, ..., 1) is in
        box = np.arange(20, 42)
        b = np.where(np.isin(np.arange(b.size), box), b,
                     np.maximum(b, A @ np.ones(11) + 0.1))
        # x0 + x1 <= 2 touches the region only on its x0 = x1 = 1 face,
        # x0 + ... + x10 <= 11 only at the (1, ..., 1) vertex
        A = np.vstack([A, np.eye(11)[0] + np.eye(11)[1], np.ones(11)])
        b = np.append(b, [2.0, 11.0])
        exact = sequential_prune(A, b, A_eq, b_eq)
        assert not exact[-2:].any()
        np.testing.assert_array_equal(pj._prune_rows_exact(A, b, A_eq, b_eq),
                                      exact)
        A_out, _, _ = pj._prune_rows(A, b, A_eq, b_eq, z0=np.zeros(11))
        np.testing.assert_array_equal(A_out, A[exact])

    def test_no_interior_point(self, monkeypatch):
        A, b, A_eq, b_eq = rank_11_system(52)
        # x0 = 0.5 as two opposing inequality rows: no interior point
        A = np.vstack([A, np.eye(11)[0], -np.eye(11)[0]])
        b = np.append(b, [0.5, -0.5])
        exact = sequential_prune(A, b, A_eq, b_eq)
        assert exact[-2:].all() and not exact.all()

        def fail(*args):
            raise AssertionError("hull pruning used without an interior point")
        monkeypatch.setattr(pj, "_prune_rows_hull", fail)
        A_out, b_out, feasible = pj._prune_rows(A, b, A_eq, b_eq)
        assert feasible
        np.testing.assert_array_equal(A_out, A[exact])
        np.testing.assert_array_equal(b_out, b[exact])

    def test_unbounded_polyhedron(self):
        # every row allows x0 -> +inf, and each of the 22 random rows is
        # unbounded over the others: its member LP ends at the relaxed
        # bound b_i + 1 on an unbounded feasible set, and the row is kept
        rng = np.random.default_rng(53)
        A, b = rng.normal(size=(22, 11)), rng.uniform(0.5, 2.0, size=22)
        A[:, 0] = -np.abs(A[:, 0])
        i, j = rng.choice(22, size=(2, 8))
        A, b = pj._normalize(np.vstack([A, 0.5 * (A[i] + A[j])]),
                             np.concatenate([b, 0.5 * (b[i] + b[j]) + 0.1]))
        sol = oc.solve_lp(-A[0], A[1:], b[1:], tol=1e-10)
        assert sol.status == oc.UNBOUNDED
        exact = sequential_prune(A, b, None, None)
        assert exact[:22].all() and not exact[22:].any()
        np.testing.assert_array_equal(pj._prune_rows_exact(A, b, None, None),
                                      exact)
        A_out, _, _ = pj._prune_rows(A, b, None, None, z0=np.zeros(11))
        np.testing.assert_array_equal(A_out, A[exact])

    @pytest.mark.parametrize("n_eq", [0, 2])
    def test_chunks_give_the_mask_of_one_family(self, n_eq, monkeypatch):
        # with the budget at one float every chunk holds two members: 25
        # lockstep families instead of one, and the same mask bit for bit
        A, b, A_eq, b_eq = rank_11_system(54, n_eq=n_eq)
        sizes, family = [], pj.solve_family

        def spy(qps, **kwargs):
            sizes.append(len(qps))
            return family(qps, **kwargs)

        monkeypatch.setattr(pj, "solve_family", spy)
        whole = pj._prune_rows_exact(A, b, A_eq, b_eq)
        assert sizes == [b.size] == [50]
        monkeypatch.setattr(pj, "_EXACT_CHUNK_FLOATS", 1)
        chunked = pj._prune_rows_exact(A, b, A_eq, b_eq)
        assert sizes[1:] == [2] * 25
        np.testing.assert_array_equal(chunked, whole)
        np.testing.assert_array_equal(chunked,
                                      sequential_prune(A, b, A_eq, b_eq))

    @pytest.mark.parametrize("n_eq", [0, 1, 2])
    def test_fm_step_keeps_carried_rows_irredundant(self, n_eq):
        # a pruned system around an interior point, one Fourier-Motzkin
        # step on a column the equalities do not hold: every row without
        # that column survives the next pruning, and the exact pass given
        # their flags and the interior point keeps the sequential mask
        for seed in range(4):
            rng = np.random.default_rng([seed, n_eq])
            dim, j = 6, 5
            A = rng.normal(size=(30, dim))
            A[:12, j] = 0.0
            x0 = rng.normal(size=dim)
            b = A @ x0 + rng.uniform(0.2, 1.5, size=30)
            A, b = pj._normalize(A, b)
            A_eq = rng.normal(size=(n_eq, dim))
            A_eq[:, j] = 0.0
            b_eq = A_eq @ x0
            first = sequential_prune(A, b, A_eq, b_eq)
            A, b = A[first], b[first]
            sub = pj.eliminate_variable(
                pj.Polyhedron(dim, A, b, tuple(f"x{k}" for k in range(dim))),
                j)
            carried = int(np.count_nonzero(A[:, j] == 0.0))
            assert carried > 0
            A2, b2 = pj._normalize(sub.A, sub.b)
            A_eq2 = np.delete(A_eq, j, axis=1)
            second = sequential_prune(A2, b2, A_eq2, b_eq)
            assert second[:carried].all()
            known = np.arange(b2.size) < carried
            np.testing.assert_array_equal(
                pj._prune_rows_exact(A2, b2, A_eq2, b_eq, known,
                                     np.delete(x0, j)), second)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_segment_for_flags_no_row(self, kind, monkeypatch):
        # a feeder without generators has a segment for its FOR: the input
        # has no interior point, no row is flagged, and the FOR has the
        # bytes it has with the flags taken away
        model = pm.build_dso_model(chain_feeder([(0.5, 0.2)], 0.1, 0.1),
                                   LINK, kind)
        flagged, prune = [], pj._prune_rows

        def spy(*args, known=None, **kwargs):
            flagged.append(known is not None and bool(known.any()))
            return prune(*args, known=known, **kwargs)

        def unflagged(*args, known=None, **kwargs):
            return prune(*args, **kwargs)

        monkeypatch.setattr(pj, "_prune_rows", spy)
        stats = {}
        region = pj.coupling_region(model, stats=stats)
        assert flagged and not any(flagged) and stats["carried"] == 0
        monkeypatch.setattr(pj, "_prune_rows", unflagged)
        off = pj.coupling_region(model)
        assert region.A.tobytes() == off.A.tobytes()
        assert region.b.tobytes() == off.b.tobytes()
        assert pj._interior_point(region.A, region.b, None, None)[1] <= 1e-7

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_nine_generator_feeder(self, kind, monkeypatch):
        # the first FM steps of this feeder sit above _HULL_MAX_DIM: each
        # exact pass is at most one family and two scalar LPs, carried rows
        # and ray shots leave at most 100 family members in all (358 when
        # every row got one), and the FOR is the one the sequential pass,
        # testing every row, gives, bit for bit
        model = pm.build_dso_model(*deep_feeder(), kind)
        calls = {"family": 0, "scalar": 0, "members": 0}
        passes = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                if name == "family":
                    calls["members"] += len(args[0])
                return fn(*args, **kwargs)
            return call

        def counted_pass(*args):
            before = dict(calls)
            mask = exact_pass(*args)
            passes.append((calls["family"] - before["family"],
                           calls["scalar"] - before["scalar"]))
            return mask

        exact_pass = pj._prune_rows_exact
        monkeypatch.setattr(pj, "solve_family",
                            counted("family", pj.solve_family))
        monkeypatch.setattr(pj, "_lp_max", counted("scalar", pj._lp_max))
        monkeypatch.setattr(pj, "_prune_rows_exact", counted_pass)
        stats = {}
        region = pj.coupling_region(model, stats=stats)
        assert passes
        assert all(family <= 1 and scalar <= 2 for family, scalar in passes)
        assert calls["members"] == stats["exact_lps"] <= 100
        assert calls["scalar"] == stats["scalar_lps"]

        def oracle(A_in, b_in, A_eq, b_eq, *ignored):
            return sequential_prune(A_in, b_in, A_eq, b_eq)

        monkeypatch.setattr(pj, "_prune_rows_exact", oracle)
        reference = pj.coupling_region(model)
        assert region.labels == reference.labels
        np.testing.assert_array_equal(region.A, reference.A)
        np.testing.assert_array_equal(region.b, reference.b)


class TestProjectOnto:
    def test_simplex_shadow(self):
        tri = pj.project_onto(simplex3(), [0, 1])
        assert tri.dim == 2
        assert tri.labels == ("x", "y")
        assert tri.n_rows == 3
        for p, inside in [((0.2, 0.2), True), ((0.6, 0.6), False),
                          ((-0.1, 0.2), False), ((1.0, 0.0), True)]:
            assert pj.contains(tri, p, 1e-9) == inside

    def test_identity_projection(self):
        sq = box(2)
        out = pj.project_onto(sq, [0, 1])
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.uniform(-0.5, 1.5, size=2)
            assert pj.contains(out, p, 1e-9) == pj.contains(sq, p, 1e-9)

    def test_column_order_respected(self):
        tri = pj.project_onto(simplex3(), [1, 0])
        assert tri.labels == ("y", "x")
        assert pj.contains(tri, [0.9, 0.05])

    def test_substitution_matches_pure_fm(self):
        # x0 + x1 = 1 carried as a row pair; substitution path must agree
        # with generic cross-product elimination.
        A = np.array([[1.0, 1.0, 0.0, 0.0], [-1.0, -1.0, 0.0, 0.0]])
        b = np.array([1.0, -1.0])
        bx = box(4, lo=-2.0, hi=2.0)
        poly = pj.Polyhedron(4, np.vstack([bx.A, A]),
                             np.concatenate([bx.b, b]), bx.labels)
        fast = pj.project_onto(poly, [2, 3])
        slow = pj.eliminate_variable(pj.eliminate_variable(poly, 1), 0)
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = rng.uniform(-2.5, 2.5, size=2)
            assert pj.contains(fast, p, 1e-9) == pj.contains(slow, p, 1e-9)

    def test_feeder_coupling_region_roundtrip(self):
        model = feeder_model()
        stats = {}
        region = pj.coupling_region(model, stats=stats)
        assert region.dim == 3
        assert region.labels == ("p_if:1", "q_if:1", "nu_if:1")
        assert stats["max_rows"] <= 10_000
        rng = np.random.default_rng(17)
        hits = misses = 0
        for _ in range(500):
            z = np.array([rng.uniform(-0.4, 1.0), rng.uniform(-0.3, 0.7),
                          rng.uniform(0.75, 1.3)])
            inside = pj.contains(region, z, 1e-9)
            lifted = lift_point(model, z)
            assert inside == (lifted is not None)
            hits += inside
            misses += not inside
        assert hits > 20 and misses > 20

    def test_dense_elimination_stays_fast_and_exact(self):
        # dense random system whose cross products multiply the row
        # count; guards the elimination pipeline against quadratic-prune
        # regressions
        rng = np.random.default_rng(0)
        A = rng.normal(size=(20, 6))
        x0 = 0.5 * rng.normal(size=6)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=20)
        poly = pj.Polyhedron(6, A, b, tuple(f"x{j}" for j in range(6)))
        t0 = time.perf_counter()
        shadow = pj.project_onto(poly, [0, 1, 2])
        assert time.perf_counter() - t0 <= 20.0
        for _ in range(40):
            y = (x0 + 1.5 * rng.normal(size=6))[:3]
            rhs = b - A[:, :3] @ y
            liftable, _ = oc.check_feasible(A[:, 3:], rhs, tol=1e-7)
            assert pj.contains(shadow, y, slack=1e-7) == liftable

    def test_marker_propagates(self):
        e = pj.Polyhedron.empty(3, ("a", "b", "c"))
        out = pj.project_onto(e, [0, 2])
        assert out.is_marked_empty and out.dim == 2


def reference_split_pairs(A, b):
    """Reference pair split: rows in index order, each pairing with the
    first unused row of the negated key."""
    A, b = pj._normalize(A, b)
    m = b.size
    used = np.zeros(m, dtype=bool)
    eq_A, eq_b, in_A, in_b = [], [], [], []
    index = {}
    for i in range(m):
        key = ((np.round(A[i], 10) + 0.0).tobytes(), round(float(b[i]), 10))
        index.setdefault(key, []).append(i)
    for i in range(m):
        if used[i]:
            continue
        nkey = ((np.round(-A[i], 10) + 0.0).tobytes(),
                round(float(-b[i]), 10))
        partner = next((j for j in index.get(nkey, [])
                        if not used[j] and j != i), None)
        if partner is not None \
                and np.abs(A[i] + A[partner]).max() <= pj._PAIR_TOL \
                and abs(b[i] + b[partner]) <= pj._PAIR_TOL:
            used[i] = used[partner] = True
            eq_A.append(A[i])
            eq_b.append(b[i])
        else:
            used[i] = True
            in_A.append(A[i])
            in_b.append(b[i])
    eq_A = np.array(eq_A).reshape(-1, A.shape[1])
    in_A = np.array(in_A).reshape(-1, A.shape[1])
    return eq_A, np.array(eq_b), in_A, np.array(in_b)


def reference_substitute(A_eq, b_eq, A_in, b_in, pivot, j):
    """Reference substitution: drop the pivot row, update, delete column j.
    Also returns the mask of the inequality rows kept."""
    alpha = A_eq[pivot, j]
    piv_row = A_eq[pivot] / alpha
    piv_b = b_eq[pivot] / alpha

    def apply(A, b):
        if b.size == 0:
            return np.delete(A, j, axis=1), b
        beta = A[:, j]
        A = A - np.outer(beta, piv_row)
        b = b - beta * piv_b
        return pj._snap(np.delete(A, j, axis=1)), b

    A_eq2, b_eq2 = apply(np.delete(A_eq, pivot, axis=0),
                         np.delete(b_eq, pivot))
    A_in2, b_in2 = apply(A_in, b_in)
    kept = np.any(A_in2 != 0.0, axis=1)
    zero_eq = ~np.any(A_eq2 != 0.0, axis=1)
    if np.any(np.abs(b_eq2[zero_eq]) > 1e-9):
        return A_eq2, b_eq2, A_in2, b_in2, False, kept
    A_eq2, b_eq2 = A_eq2[~zero_eq], b_eq2[~zero_eq]
    A_in2, b_in2, feasible = pj._drop_trivial(A_in2, b_in2, tol=1e-9)
    return A_eq2, b_eq2, A_in2, b_in2, feasible, kept


def reference_project_onto(poly, keep, *, stats=None):
    """Reference projection: one column at a time, deleting each eliminated
    column, with the greedy column choice counted column by column.  The
    flags of the rows known to be irredundant follow the rows: every row a
    pruning keeps is known when the input has an interior point, a
    substitution drops the flags of the rows it drops, and an FM step keeps
    those of the rows without the eliminated column."""
    keep = list(keep)
    labels = tuple(poly.labels[c] for c in keep)
    if poly.is_marked_empty:
        return pj.Polyhedron.empty(len(keep), labels)
    A_eq, b_eq, A_in, b_in = reference_split_pairs(poly.A, poly.b)
    cols = list(range(poly.dim))
    z_int, radius = pj._interior_point(A_in, b_in, A_eq, b_eq)
    if z_int is not None and radius <= 1e-7:
        z_int = None
    if stats is not None:
        for key in ("max_rows", "fm_steps", "subst_steps", "exact_lps",
                    "scalar_lps", "carried", "ray_certified", "hull_calls"):
            stats.setdefault(key, 0)
    known = np.zeros(b_in.size, dtype=bool)

    def record():
        if stats is not None:
            rows = 2 * b_eq.size + b_in.size
            stats["max_rows"] = max(stats["max_rows"], rows)

    record()
    while len(cols) > len(keep):
        nnz = {}
        for c in cols:
            if c in keep:
                continue
            j = cols.index(c)
            nnz[c] = int(np.count_nonzero(np.abs(A_in[:, j]) > pj._SNAP)) \
                + 2 * int(np.count_nonzero(np.abs(A_eq[:, j]) > pj._SNAP))
        c = min(nnz, key=lambda k: (nnz[k], k))
        j = cols.index(c)
        eq_coef = np.abs(A_eq[:, j]) if b_eq.size else np.zeros(0)
        if eq_coef.size and eq_coef.max() > 1e-9:
            A_eq, b_eq, A_in, b_in, feasible, kept = reference_substitute(
                A_eq, b_eq, A_in, b_in, int(np.argmax(eq_coef)), j)
            known = known[kept]
            if z_int is not None:
                z_int = np.delete(z_int, j)
            if stats is not None:
                stats["subst_steps"] += 1
        else:
            A_eq = np.delete(A_eq, j, axis=1)
            carried = known[(A_in[:, j] == 0.0)
                            & np.delete(A_in, j, axis=1).any(axis=1)]
            sub = pj.eliminate_variable(
                pj.Polyhedron(len(cols), A_in, b_in,
                              tuple(str(k) for k in cols)), j)
            if sub.is_marked_empty:
                return pj.Polyhedron.empty(len(keep), labels)
            A_in, b_in = sub.A, sub.b
            known = np.zeros(b_in.size, dtype=bool)
            known[:carried.size] = carried
            if z_int is not None:
                z_int = np.delete(z_int, j)
            A_in, b_in, feasible = pj._prune_rows(
                A_in, b_in, A_eq, b_eq, z0=z_int, known=known, stats=stats)
            known = np.full(b_in.size, z_int is not None)
            if stats is not None:
                stats["fm_steps"] += 1
        if not feasible:
            return pj.Polyhedron.empty(len(keep), labels)
        cols.pop(j)
        record()

    perm = [cols.index(c) for c in keep]
    A_eq, A_in = A_eq[:, perm], A_in[:, perm]
    if z_int is not None:
        z_int = z_int[perm]
    A_eq, b_eq, consistent = pj._independent_equalities(A_eq, b_eq)
    if not consistent:
        return pj.Polyhedron.empty(len(keep), labels)
    A_in, b_in, feasible = pj._prune_rows(A_in, b_in, A_eq, b_eq, z0=z_int,
                                          known=known, stats=stats)
    if not feasible:
        return pj.Polyhedron.empty(len(keep), labels)
    record()
    A, b = pj._canonical(*pj._pair_back(A_eq, b_eq, A_in, b_in))
    return pj.Polyhedron(len(keep), A, b, labels)


def assert_same_projection(poly, keep):
    """`project_onto` and the reference give the same rows, bit for bit,
    and the same stats; returns the projection."""
    stats, ref_stats = {}, {}
    out = pj.project_onto(poly, keep, stats=stats)
    ref = reference_project_onto(poly, keep, stats=ref_stats)
    assert out.labels == ref.labels
    assert out.A.shape == ref.A.shape
    assert out.A.tobytes() == ref.A.tobytes()
    assert out.b.tobytes() == ref.b.tobytes()
    assert stats == ref_stats
    return out, stats


def equality_polytope(seed, *, contradictory=False):
    """Seven columns, keep (0, 1, 2): 14 dense inequality rows on columns
    0-2, 4 and 5 around an interior point, five rows bounding column 6
    against the kept columns, and four sparse equalities written as
    shuffled opposing row pairs.  Column 3 lives in one equality only (two
    nonzeros, against five for column 6), so the elimination order is
    substitution (3), FM (6), substitution (4), substitution (5); the
    equality on columns 0 and 1 survives into the projection.
    `contradictory` adds a copy of the equality on columns 0 and 3 with its
    bound moved by 0.5, which the first substitution leaves as 0 = 0.5."""
    rng = np.random.default_rng(seed)
    x0 = 0.5 * rng.normal(size=7)
    A_in = np.zeros((19, 7))
    A_in[:14, [0, 1, 2, 4, 5]] = rng.normal(size=(14, 5))
    A_in[14:, :3] = rng.normal(size=(5, 3))
    A_in[14:, 6] = [1.0, 1.0, 1.0, -1.0, -1.0]
    b_in = A_in @ x0 + rng.uniform(0.2, 1.0, size=19)
    A_eq = np.zeros((4, 7))
    for row, cols in enumerate([(0, 3), (1, 4, 5), (2, 5), (0, 1)]):
        A_eq[row, cols] = rng.uniform(0.5, 2.0, size=len(cols))
    b_eq = A_eq @ x0
    if contradictory:
        A_eq = np.vstack([A_eq, A_eq[0]])
        b_eq = np.append(b_eq, b_eq[0] + 0.5)
    A = np.vstack([A_in, A_eq, -A_eq])
    b = np.concatenate([b_in, b_eq, -b_eq])
    order = rng.permutation(b.size)
    return pj.Polyhedron(7, A[order], b[order],
                         tuple(f"x{j}" for j in range(7)))


class TestProjectionParity:
    """`project_onto` gives the rows and stats of the column-by-column
    reference bit for bit."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_benchmark_feeders(self, kind, benchmark_partition):
        part = benchmark_partition
        wide = feeder_copies(14)
        cases = list(zip(part.dsos, part.links)) + [
            deep_feeder(), deep_feeder((8, 14), 2, 6),
            (wide.dsos[0], wide.links[0]), (wide.dsos[13], wide.links[13])]
        for case, link in cases:
            model = pm.build_dso_model(case, link, kind)
            out, stats = assert_same_projection(
                pj.from_model(model), model.vmap.coupling_triple(0))
            assert not out.is_marked_empty and stats["subst_steps"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_fm_between_substitutions(self, seed, monkeypatch):
        steps = []
        for name, tag in (("_substitute", "S"), ("eliminate_variable", "F")):
            def spy(*args, fn=getattr(pj, name), tag=tag):
                steps.append(tag)
                return fn(*args)
            monkeypatch.setattr(pj, name, spy)
        pj.project_onto(equality_polytope(seed), [0, 1, 2])
        assert "".join(steps) == "SFSS"
        monkeypatch.undo()
        out, stats = assert_same_projection(equality_polytope(seed), [0, 1, 2])
        assert stats["subst_steps"] == 3 and stats["fm_steps"] == 1
        # the equality on the kept columns survives as an opposing pair
        eq, _, _, _ = pj._split_pairs(out.A, out.b)
        assert eq.shape[0] == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_contradictory_equality(self, seed):
        out, stats = assert_same_projection(
            equality_polytope(seed, contradictory=True), [0, 1, 2])
        assert out.is_marked_empty
        assert stats["subst_steps"] == 1 and stats["fm_steps"] == 0

    def test_split_pairs_matches_reference(self):
        # few distinct rows, many copies, scaled and negated, some zero:
        # every pairing rule of the reference is exercised
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            base = rng.integers(-2, 3, size=(4, n)).astype(float)
            bound = rng.integers(-1, 2, size=4).astype(float)
            pick = rng.integers(0, 4, size=int(rng.integers(0, 12)))
            sign = rng.choice([-1.0, 1.0, 0.5, 2.0], size=pick.size)
            A, b = base[pick] * sign[:, None], bound[pick] * sign
            for got, want in zip(pj._split_pairs(A, b),
                                 reference_split_pairs(A, b)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_equality_pair_with_zero_entry(self):
        # -A of a row written with +0.0 entries: np.round keeps the sign
        # of zero, so the keys must drop it for the rows to pair
        A = np.array([[1.0, 0.0, 2.0], [-1.0, 0.0, -2.0]])
        A_eq, b_eq, A_in, b_in = pj._split_pairs(A, np.array([1.0, -1.0]))
        np.testing.assert_array_equal(A_eq, [[0.5, 0.0, 1.0]])
        np.testing.assert_array_equal(b_eq, [0.5])
        assert A_in.shape == (0, 3) and b_in.size == 0


class TestLiftPoint:
    def test_center_lifts(self):
        model = feeder_model()
        region = pj.coupling_region(model)
        center, radius = pj.chebyshev_centers([region])[0]
        assert radius > 0
        w = lift_point(model, center)
        assert w is not None
        cols = list(model.vmap.coupling_triple(0))
        np.testing.assert_allclose(w[cols], center, atol=1e-7)

    def test_vertex_solutions_project_inside(self):
        model = feeder_model()
        region = pj.coupling_region(model)
        qp = model.qp_skeleton
        cols = list(model.vmap.coupling_triple(0))
        rng = np.random.default_rng(23)
        for _ in range(20):
            probe = oc.QuadraticProgram(np.zeros((qp.n, qp.n)),
                                        rng.normal(size=qp.n),
                                        qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq)
            sol = oc.solve_qp(probe)
            assert sol.status == oc.OPTIMAL
            assert pj.contains(region, sol.x[cols], 1e-6)

    def test_outside_face_infeasible(self):
        model = feeder_model()
        region = pj.coupling_region(model)
        center, _ = pj.chebyshev_centers([region])[0]
        # walk out through the first face by 1e-3 past its boundary
        a = region.A[0]
        t = (region.b[0] - a @ center) / (a @ a)
        z_out = center + a * (t + 1e-3 / np.linalg.norm(a))
        assert not pj.contains(region, z_out, 1e-9)
        assert lift_point(model, z_out) is None


class TestSliceFix:
    def test_simplex_slice(self):
        tri = pj.slice_fix(simplex3(), 2, 0.0)
        assert tri.dim == 2
        assert pj.contains(tri, [0.3, 0.3]) and not pj.contains(tri, [0.7, 0.7])

    def test_slice_outside_bounds_empty(self):
        out = pj.slice_fix(simplex3(), 2, 2.0)
        ok, _ = oc.check_feasible(out.A, out.b, tol=1e-9)
        assert not ok
        assert not pj.contains(out, [0.0, 0.0])

    def test_slice_project_commute(self):
        rng = np.random.default_rng(31)
        for seed in range(3):
            r = np.random.default_rng(seed)
            A = np.vstack([r.normal(size=(10, 4)), np.eye(4), -np.eye(4)])
            b = np.concatenate([r.uniform(0.5, 1.5, 10), np.full(8, 2.0)])
            poly = pj.Polyhedron(4, A, b, ("a", "b", "c", "d"))
            s_then_p = pj.project_onto(pj.slice_fix(poly, 3, 0.1), [0, 1])
            p_then_s = pj.slice_fix(pj.project_onto(poly, [0, 1, 3]), 2, 0.1)
            for _ in range(200):
                p = rng.uniform(-2.2, 2.2, size=2)
                assert pj.contains(s_then_p, p, 1e-7) == \
                    pj.contains(p_then_s, p, 1e-7)


class TestVertices2d:
    def test_unit_square(self):
        v = pj.vertices_2d(box(2))
        expect = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(v, expect, atol=1e-9)

    def test_triangle(self):
        tri = pj.project_onto(simplex3(), [0, 1])
        v = pj.vertices_2d(tri)
        assert v.shape == (3, 2)

    def test_unbounded_raises(self):
        half = pj.Polyhedron(2, np.array([[-1.0, 0.0]]), np.array([0.0]),
                             ("x", "y"))
        with pytest.raises(pj.UnboundedRegion):
            pj.vertices_2d(half)

    def test_empty_raises(self):
        with pytest.raises(pj.EmptyRegion):
            pj.vertices_2d(pj.Polyhedron.empty(2, ("x", "y")))
        bad = pj.Polyhedron(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            np.array([0.0, -1.0]), ("x", "y"))
        with pytest.raises(pj.EmptyRegion):
            pj.vertices_2d(bad)

    def test_area_matches_monte_carlo(self):
        rng = np.random.default_rng(41)
        dirs = rng.normal(size=(8, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        poly = pj.Polyhedron(2, dirs, rng.uniform(0.5, 1.5, 8), ("x", "y"))
        v = pj.vertices_2d(poly)
        x, y = v[:, 0], v[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        lo, hi = v.min(axis=0), v.max(axis=0)
        pts = rng.uniform(lo, hi, size=(100_000, 2))
        inside = np.all(pts @ poly.A.T <= poly.b + 1e-12, axis=1)
        mc = inside.mean() * np.prod(hi - lo)
        assert abs(mc - area) / area <= 0.02


class TestChebyshevCenter:
    def test_unit_square(self):
        c, r = pj.chebyshev_centers([box(2)])[0]
        np.testing.assert_allclose(c, [0.5, 0.5], atol=1e-7)
        assert abs(r - 0.5) <= 1e-7

    def test_empty_raises(self):
        bad = pj.Polyhedron(1, np.array([[1.0], [-1.0]]),
                            np.array([0.0, -1.0]), ("x",))
        with pytest.raises(pj.EmptyRegion):
            pj.chebyshev_centers([bad])
        with pytest.raises(pj.EmptyRegion):
            pj.chebyshev_centers([box(1), bad])

    def test_family_matches_each_region(self, benchmark_fors):
        # one LP family over regions of several shapes gives each region
        # its own center and radius, bit for bit
        regions = list(benchmark_fors.values()) + [box(3), simplex3(), box(2)]
        centers = pj.chebyshev_centers(regions)
        assert len(centers) == len(regions)
        for (c, r), region in zip(centers, regions):
            alone, radius = pj.chebyshev_centers([region])[0]
            assert np.array_equal(c, alone) and r == radius

    @pytest.mark.parametrize("region", [box(2), box(3, lo=-2.0, hi=4.0)])
    def test_interior_point_is_the_center(self, region):
        # on a box the interior point's ball LP (free radius, smaller cap)
        # and the Chebyshev LP have one optimum: the center
        center, radius = pj.chebyshev_centers([region])[0]
        z, r = pj._interior_point(region.A, region.b, None, None)
        np.testing.assert_allclose(z, center, atol=1e-7)
        assert abs(r - radius) <= 1e-7


class TestPolygonExport:
    def test_csv_and_sidecar(self, tmp_path):
        v = pj.vertices_2d(box(2))
        csv_path, sidecar = pj.write_polygon_csv(
            tmp_path / "slice.csv", v, dso_index=1, nu_value=1.0,
            model_kind="lindistflow")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "p_if,q_if"
        assert len(lines) == 5
        meta = json.loads(sidecar.read_text())
        assert meta == {"dso_index": 1, "nu_value": 1.0,
                        "model_kind": "lindistflow"}
