"""Envelope demodulation and marginal-spectrum reconstruction.

With two delays and a leading delay-free splitter, a single interferogram
along tau_2 carries both spectral linewidths: the envelope sum isolates
the difference-frequency correlation, the envelope difference isolates
the sum-frequency correlation (with satellite replicas at the fixed
delay).  Fourier transforms of the two then recover |f_-|^2 and |f_+|^2.
"""

import numpy as np

import biphoton_cascade as bc

sigma_plus, sigma_minus = 1.0, 0.4
js = bc.make_spectrum(sigma_plus, sigma_minus, pump_frequency=12.0)
tm = bc.compose(bc.preset_cascade("two_param_2002"))
model = bc.expand(tm, bc.ExchangeSymmetry.SYMMETRIC)

tau1 = 5.0 / sigma_plus
spec = bc.SweepSpec(fixed={0: tau1}, swept=1,
                    start=-260.0, stop=260.0, samples=4096)
# The trace and its exact envelopes from the term list, in one walk.
trace, exact = bc.analytic_sweep(model, js, spec)

# Numeric envelopes by carrier demodulation, checked against the exact ones.
numeric = bc.envelopes_numeric(trace, js.pump_frequency)
rms = np.sqrt(np.mean((numeric.upper.values - exact.upper.values) ** 2))
print(f"numeric vs analytic upper envelope, RMS deviation: {rms:.2e}")

(w_minus, i_minus), (w_plus, i_plus) = bc.reconstruct_spectra(
    numeric, satellite_delay=tau1)
fit_minus = bc.fit_gaussian_sigma(w_minus, i_minus)
fit_plus = bc.fit_gaussian_sigma(w_plus, i_plus)
print(f"reconstructed sigma_minus = {fit_minus:.4f}  (true {sigma_minus})")
print(f"reconstructed sigma_plus  = {fit_plus:.4f}  (true {sigma_plus})")
