"""The model's domain: inside ``geometry.MAGNITUDES`` every closed form is finite and positive.

Room sides, the speed of light, the wavelength and the bandwidth are drawn
anywhere in the domain, corners included, and the direct delay anywhere in
its range; numpy warnings are errors. This claim is why ``Room``,
``RadioConfig`` and ``SceneSummary`` check their inputs and no closed form
checks its own result; the scene reads the room's and radio's values, which
only their own checks guard. The constructors where the inputs enter refuse
the first value past either end.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roomchan import theory
from roomchan.antenna import SphericalCap
from roomchan.channel import RadioConfig
from roomchan.errors import ConfigError
from roomchan.geometry import MAGNITUDES, Room
from roomchan.theory import SceneSummary

LOW, HIGH = MAGNITUDES

# Log-uniform over the domain, with both corners drawn often.
magnitudes = st.one_of(
    st.sampled_from(MAGNITUDES),
    st.floats(np.log10(LOW), np.log10(HIGH)).map(lambda exponent: min(max(10.0**exponent, LOW), HIGH)),
)
# Beam fractions down to the narrowest cap whose threshold still has a width.
fractions = st.floats(1e-16, 1.0)


def finite_positive(values) -> bool:
    values = np.asarray(values)
    return bool(np.all(np.isfinite(values)) and np.all(values > 0.0))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    sides=st.lists(magnitudes, min_size=3, max_size=3),
    reflectance=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    speed=magnitudes,
    wavelength=magnitudes,
    bandwidth=magnitudes,
    tau0=magnitudes,
    tx_fraction=fractions,
    rx_fraction=fractions,
)
def test_closed_forms_are_finite_and_positive_in_the_domain(
    sides, reflectance, speed, wavelength, bandwidth, tau0, tx_fraction, rx_fraction
):
    radio = RadioConfig(wavelength, bandwidth, speed)
    patterns = SphericalCap(tx_fraction), SphericalCap(rx_fraction)
    scene = SceneSummary.from_components(Room(sides, reflectance), radio, *patterns)
    scene = dataclasses.replace(scene, direct_delay=tau0)
    # The direct delay and the tail's time constant, where no exponential
    # factor has decayed yet.
    decay = theory.reverberation_time(scene)
    taus = np.array([tau0, decay])
    assert finite_positive(decay)
    assert finite_positive(theory.mean_count(scene, taus))
    assert finite_positive(theory.mean_rate(scene, taus))
    assert finite_positive(theory.mixing_time(scene))
    assert finite_positive(theory.gain_second_moment(scene, decay, mode="randomized"))
    assert finite_positive(theory.gain_second_moment(scene, tau0, mode="deterministic"))
    assert finite_positive(theory.pds(scene, decay, mode="randomized").values)
    spectrum = theory.pds(scene, decay, mode="deterministic")
    assert finite_positive(spectrum.dirac[1])
    # The tail starts after the direct delay, and is zero before it.
    assert np.all(np.isfinite(spectrum.values))
    assert (spectrum.values[0] > 0.0) == (decay > tau0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda value: Room((5.0, value, 3.0), 0.6),
    lambda value: RadioConfig(0.005, 2e9, value),
    lambda value: RadioConfig(value, 2e9, 3e8),
    lambda value: RadioConfig(0.005, value, 3e8),
    lambda value: dataclasses.replace(SceneSummary.from_components(
        Room((5.0, 5.0, 3.0), 0.6), RadioConfig(0.005, 2e9), SphericalCap(1.0), SphericalCap(1.0)), direct_delay=value),
], ids=["side", "speed", "wavelength", "bandwidth", "direct-delay"])
def test_domain_ends_are_closed(build):
    for corner in MAGNITUDES:
        build(corner)
    for outside in (np.nextafter(LOW, 0.0), np.nextafter(HIGH, np.inf)):
        with pytest.raises(ConfigError, match=r"must lie in \[1e-30, 1e\+30\], got "):
            build(outside)
