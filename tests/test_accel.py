import numpy as np

from horizon import _accel
from horizon.kernels import _bump_fk_mp

from oracles import bump_derivative_edge


class TestBackendEquivalence:
    """The double kernels against the extended-precision route and plain sums."""

    def test_bump_derivative_paths_agree(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-1.05, 1.05, size=256)
        for k in (0, 1, 4, 9, 12, 16):
            got = bump_derivative_edge(u, k)
            ref = np.array([float(_bump_fk_mp(float(v), k)) for v in u])
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))

    def test_order_zero_is_the_edge_basis_bit_for_bit(self):
        # random points, the support edges, points past them, and the edge
        # distances either side of the underflow cutoff and the oracle's floor
        rng = np.random.default_rng(3)
        edge = np.sqrt(1.0 - np.array([1e-5, 1e-4, 1.0 / 740.0, 1.36e-3, 2e-3]))
        u = np.concatenate([rng.uniform(-1.05, 1.05, size=512), [-2.0, -1.0, 0.0, 1.0, 3.0], edge, -edge])
        np.testing.assert_array_equal(_accel.bump_derivative_values(u), bump_derivative_edge(u, 0))
        assert _accel.bump_derivative_values(0.0) == np.exp(-1.0)

    def test_transform_paths_agree(self, monkeypatch):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(-1, 1, size=600))
        w = rng.uniform(0.0, 1e-2, size=600)
        f = rng.normal(size=600)
        om = np.linspace(-50, 50, 257)
        direct = np.array([np.sum(w * f * np.exp(-1j * o * t)) for o in om])
        # 16-frequency blocks with a one-row tail merged, and one block
        for block, n_blocks in ((1, 16), (1 << 24, 1)):
            monkeypatch.setattr(_accel, "_BLOCK_ELEMENTS", block)
            assert len(_accel._row_blocks(om.size, t.size + 1, depth=6)) == n_blocks
            got = _accel.oscillatory_transform(t, w, f, om)
            np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-15)

    def test_out_of_support_is_exact_zero(self):
        u = np.array([-2.0, -1.0, 1.0, 3.0])
        np.testing.assert_array_equal(_accel.bump_derivative_values(u), 0.0)
        np.testing.assert_array_equal(bump_derivative_edge(u, 3), 0.0)
