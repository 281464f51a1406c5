"""Tests for the 3D shape data type: meshes, voxelization, SHD, plugin."""

import sys
import types

import numpy as np
import pytest

from repro.core import SearchMethod, SimilaritySearchEngine, SketchParams, meta_from_dataset
from repro.datatypes.shape import (
    SHAPE_CLASSES,
    SHAPE_DIM,
    ShdL2Baseline,
    box,
    descriptor_from_mesh,
    ellipsoid,
    generate_shape_benchmark,
    make_instance,
    make_shape_plugin,
    merge,
    normalize_points,
    random_rotation,
    sample_surface,
    shd_descriptor,
    shell_decomposition,
    signature_from_mesh,
    torus,
    voxelize,
)
from repro.datatypes.shape import harmonics
from repro.evaltool import evaluate_engine


class TestMeshes:
    def test_box_geometry(self):
        vertices, faces = box(1.0, 2.0, 3.0)
        assert vertices.shape == (8, 3)
        assert faces.shape == (12, 3)
        assert vertices[:, 0].max() == 1.0 and vertices[:, 2].max() == 3.0

    def test_ellipsoid_on_surface(self):
        vertices, _ = ellipsoid(2.0, 1.0, 0.5, n=12)
        # implicit equation ~ 1 on the surface
        vals = (vertices[:, 0] / 2) ** 2 + vertices[:, 1] ** 2 + (vertices[:, 2] / 0.5) ** 2
        assert np.allclose(vals, 1.0, atol=1e-9)

    def test_merge_offsets_faces(self):
        m = merge(box(1, 1, 1), box(1, 1, 1, center=(5, 0, 0)))
        vertices, faces = m
        assert vertices.shape[0] == 16
        assert faces.max() == 15

    def test_random_rotation_is_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            r = random_rotation(rng)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-10)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_all_classes_generate(self):
        rng = np.random.default_rng(1)
        for shape_class in SHAPE_CLASSES:
            vertices, faces = make_instance(shape_class, rng)
            assert vertices.shape[1] == 3
            assert faces.shape[1] == 3
            assert faces.max() < len(vertices)


class TestVoxelization:
    def test_sample_surface_counts(self):
        mesh = box(1, 1, 1)
        points = sample_surface(*mesh, num_samples=500)
        assert points.shape == (500, 3)
        # All samples lie on the box surface: one coordinate at +-1.
        at_face = np.isclose(np.abs(points), 1.0, atol=1e-9).any(axis=1)
        assert at_face.all()

    def test_area_weighting(self):
        """A slab's samples land mostly on its two big faces."""
        mesh = box(1.0, 1.0, 0.01)
        points = sample_surface(*mesh, num_samples=2000, rng=np.random.default_rng(0))
        on_top_bottom = np.isclose(np.abs(points[:, 2]), 0.01, atol=1e-9).mean()
        assert on_top_bottom > 0.9

    def test_normalize_centers_and_scales(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(500, 3)) * 7 + np.array([10.0, -3.0, 4.0])
        normalized = normalize_points(points)
        assert np.allclose(normalized.mean(axis=0), 0.0, atol=1e-9)
        assert np.linalg.norm(normalized, axis=1).mean() == pytest.approx(0.5)

    def test_voxelize_grid(self):
        points = np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]])
        grid = voxelize(points, grid_size=64)
        assert grid.shape == (64, 64, 64)
        assert grid.sum() == 2

    def test_shell_decomposition_radii(self):
        grid = np.zeros((64, 64, 64), dtype=bool)
        grid[32, 32, 34] = True  # radius ~2 voxels -> inner shell
        grid[32, 32, 62] = True  # radius ~30 voxels -> outer shell
        shells = shell_decomposition(grid)
        assert len(shells) == 32
        nonempty = [i for i, s in enumerate(shells) if len(s)]
        assert len(nonempty) == 2
        assert nonempty[0] < 5 and nonempty[1] > 27

    def test_shell_directions_unit(self):
        rng = np.random.default_rng(3)
        pts = normalize_points(rng.normal(size=(300, 3)))
        shells = shell_decomposition(voxelize(pts))
        for shell in shells:
            if len(shell):
                assert np.allclose(np.linalg.norm(shell, axis=1), 1.0, atol=1e-9)


class TestSHD:
    def test_descriptor_dimension(self):
        mesh = make_instance(SHAPE_CLASSES[0], np.random.default_rng(4))
        d = descriptor_from_mesh(mesh, num_samples=2000)
        assert d.shape == (SHAPE_DIM,)
        assert np.all(d >= 0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        mesh = make_instance(SHAPE_CLASSES[12], rng, rotate=False)  # dumbbell
        d1 = descriptor_from_mesh(mesh, num_samples=4000, rng=np.random.default_rng(0))
        rot = random_rotation(rng)
        mesh_rot = (mesh[0] @ rot.T, mesh[1])
        d2 = descriptor_from_mesh(mesh_rot, num_samples=4000, rng=np.random.default_rng(1))
        rel = np.abs(d1 - d2).sum() / np.abs(d1).sum()
        assert rel < 0.25  # grid + sampling noise, but far below inter-class

    def test_rotation_distance_below_interclass(self):
        rng = np.random.default_rng(6)
        sphere = make_instance(SHAPE_CLASSES[0], rng, rotate=False)
        rot = random_rotation(rng)
        sphere_rot = (sphere[0] @ rot.T, sphere[1])
        cigar = make_instance(SHAPE_CLASSES[2], rng, rotate=False)
        d_sphere = descriptor_from_mesh(sphere, num_samples=3000)
        d_rot = descriptor_from_mesh(sphere_rot, num_samples=3000)
        d_cigar = descriptor_from_mesh(cigar, num_samples=3000)
        same = np.abs(d_sphere - d_rot).sum()
        different = np.abs(d_sphere - d_cigar).sum()
        assert different > 2 * same

    def test_sphere_energy_concentrated_at_degree_zero(self):
        """A sphere's shells are isotropic: degree-0 dominates every
        individual higher degree (which carry only Monte-Carlo noise)."""
        mesh = ellipsoid(1.0, 1.0, 1.0, n=24)
        d = descriptor_from_mesh(mesh, num_samples=6000)
        per_degree = d.reshape(32, 17)
        occupied = per_degree.sum(axis=1) > 0
        assert occupied.any()
        for row in per_degree[occupied]:
            assert row[0] > 3 * row[1:].max()

    def test_signature_single_segment(self):
        mesh = make_instance(SHAPE_CLASSES[3], np.random.default_rng(7))
        sig = signature_from_mesh(mesh)
        assert sig.num_segments == 1
        assert sig.weights[0] == pytest.approx(1.0)


class TestSphHarmBinding:
    """``_sph_harm(m, l, phi, theta)`` binds to whichever harmonic the
    installed SciPy has, with that function's own argument order."""

    @pytest.fixture(autouse=True)
    def fresh_binding(self):
        """Forget the cached binding before and after each test."""
        harmonics._resolve_sph_harm.cache_clear()
        yield
        harmonics._resolve_sph_harm.cache_clear()

    @pytest.fixture()
    def special(self, monkeypatch):
        """Swap ``scipy.special`` for an empty stub module."""
        import scipy

        stub = types.ModuleType("scipy.special")
        monkeypatch.setitem(sys.modules, "scipy.special", stub)
        monkeypatch.setattr(scipy, "special", stub)
        return stub

    def test_older_scipy_falls_back_to_sph_harm(self, special):
        calls = []
        special.sph_harm = lambda *args: calls.append(args) or "old"
        assert harmonics._sph_harm(2, 5, "phi", "theta") == "old"
        assert calls == [(2, 5, "phi", "theta")]

    def test_sph_harm_y_preferred_with_swapped_arguments(self, special):
        calls = []
        special.sph_harm_y = lambda *args: calls.append(args) or "new"
        special.sph_harm = lambda *args: pytest.fail("sph_harm_y exists")
        assert harmonics._sph_harm(2, 5, "phi", "theta") == "new"
        assert calls == [(5, 2, "theta", "phi")]

    def test_installed_scipy_is_called_as_sph_harm_y(self, monkeypatch):
        import scipy.special

        if not hasattr(scipy.special, "sph_harm_y"):
            pytest.skip("scipy < 1.15 has no sph_harm_y")
        calls = []
        real = scipy.special.sph_harm_y

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scipy.special, "sph_harm_y", spy)
        phi, theta = np.array([0.3, 1.1]), np.array([0.7, 2.0])
        value = harmonics._sph_harm(1, 3, phi, theta)
        assert len(calls) == 1
        degree, m, got_theta, got_phi = calls[0]
        assert (degree, m) == (3, 1)
        assert got_theta is theta and got_phi is phi
        np.testing.assert_array_equal(value, real(3, 1, theta, phi))


class TestShapeSearchQuality:
    def test_ferret_close_to_l2_baseline(self, shape_benchmark):
        """Table 1: Ferret (l1 + sketches) ~= SHD (l2 full vectors)."""
        from repro.evaltool.metrics import QualityScores, score_query

        meta = meta_from_dataset(shape_benchmark.dataset)
        plugin = make_shape_plugin(meta)
        engine = SimilaritySearchEngine(plugin, SketchParams(800, meta, seed=0))
        baseline = ShdL2Baseline()
        for obj in shape_benchmark.dataset:
            engine.insert(obj)
            baseline.insert(obj.object_id, obj.features[0])

        ferret = evaluate_engine(
            engine, shape_benchmark.suite, SearchMethod.BRUTE_FORCE_SKETCH
        ).quality.average_precision

        base_scores = []
        for sim_set in shape_benchmark.suite.sets:
            qid = sim_set.query_id
            results = baseline.query(
                shape_benchmark.dataset[qid].features[0], top_k=30, exclude_id=qid
            )
            base_scores.append(
                score_query([r.object_id for r in results], sim_set.members,
                            qid, len(shape_benchmark.dataset))
            )
        base = QualityScores.mean(base_scores).average_precision
        assert ferret > 0.65 * base  # "almost the same quality" at 22:1 savings

    def test_storage_ratio_matches_paper_scale(self, shape_benchmark):
        meta = meta_from_dataset(shape_benchmark.dataset)
        plugin = make_shape_plugin(meta)
        engine = SimilaritySearchEngine(plugin, SketchParams(800, meta, seed=0))
        for obj in shape_benchmark.dataset:
            engine.insert(obj)
        stats = engine.stats()
        # 544 dims x 32 bits = 17,408 (Table 1 prints 17,472, but its own
        # 21.8:1 ratio against the 800-bit sketch matches 544 x 32).
        assert stats.feature_bits_per_vector == 17_408
        assert stats.compression_ratio == pytest.approx(21.76, rel=0.01)
