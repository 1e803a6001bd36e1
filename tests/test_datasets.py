import copy
import tracemalloc

import numpy as np
import pytest

from coil2coil.config import DEFAULTS
from coil2coil.datasets import simulate_dataset
from coil2coil.simulate import CoilSpec, make_sensitivities


def config(channels, grid):
    cfg = copy.deepcopy(DEFAULTS)
    cfg["coils"]["channels"], cfg["phantom"]["grid_size"] = channels, grid
    return cfg


class TestSharedSensitivities:
    """Sensitivities belong to the coil array, not the slice: every slice
    of one geometry holds the same read-only array."""

    @pytest.mark.parametrize("m, n", [(4, 16), (8, 32)])
    def test_slices_of_one_geometry_share_one_read_only_array(self, m, n):
        slices = simulate_dataset(config(m, n), 5, 0) + simulate_dataset(config(m, n), 3, 1, with_second=True)
        sens = slices[0].sens
        assert all(s.sens is sens for s in slices)
        assert not sens.flags.writeable
        with pytest.raises(ValueError):
            sens[0, 0, 0] = 0
        with pytest.raises(ValueError):
            sens *= 2
        assert sens.tobytes() == make_sensitivities(CoilSpec.ring(m), (n, n)).tobytes()

    def test_alternating_geometries_get_their_own_array(self):
        for m, n in [(4, 16), (8, 16), (4, 16), (4, 32), (8, 32), (4, 16)]:
            (data,) = simulate_dataset(config(m, n), 1, 2)
            assert data.sens.shape == (m, n, n)
            assert data.sens.tobytes() == make_sensitivities(CoilSpec.ring(m), (n, n)).tobytes()

    def test_make_sensitivities_returns_a_fresh_writable_array(self):
        simulate_dataset(config(4, 16), 1, 3)
        a, b = (make_sensitivities(CoilSpec.ring(4), (16, 16)) for _ in range(2))
        assert a is not b and a.flags.writeable and b.flags.writeable
        a[0] = 0
        assert b.tobytes() == make_sensitivities(CoilSpec.ring(4), (16, 16)).tobytes()


@pytest.mark.parametrize("with_second", [False, True])
def test_dataset_keeps_one_sensitivity_array(with_second):
    # what a dataset keeps is its slices' own arrays, one shared sens and a
    # few KiB of Python objects per slice; a sens per slice (131 KB each at
    # the default 8 channels on 32x32) would be 40 more
    cfg, n = DEFAULTS, 40
    tracemalloc.start()
    try:
        slices = simulate_dataset(cfg, n, 4, with_second=with_second)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    s = slices[0]
    own = [s.stack, s.phantom, s.clean, s.mask, s.psi] + ([s.stack_b] if with_second else [])
    assert kept <= n * (sum(a.nbytes for a in own) + (4 << 10)) + s.sens.nbytes
