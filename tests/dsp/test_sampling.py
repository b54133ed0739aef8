"""Unit tests for repro.dsp.sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.sampling import upsample_chips


class TestUpsampleChips:
    def test_aquamodem_two_samples_per_chip(self):
        chips = np.array([1.0, -1.0, 1.0])
        samples = upsample_chips(chips, 2)
        np.testing.assert_array_equal(samples, [1, 1, -1, -1, 1, 1])

    def test_factor_one_is_identity(self):
        chips = np.array([1.0, -1.0])
        np.testing.assert_array_equal(upsample_chips(chips, 1), chips)

    def test_56_chips_become_112_samples(self):
        samples = upsample_chips(np.ones(56), 2)
        assert samples.shape == (112,)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            upsample_chips(np.ones(4), 0)

