"""Symbolic expansion cross-checked against brute-force integration.

Every cascade's coincidence probability collapses to a finite sum of
cosine terms in the spectral correlation functions g_+ and g_-.  This
demo expands the three-delay cascade symbolically (28 terms), then spot
checks the closed form against direct 2-D quadrature of the coincidence
density at random delay triples.  It exits with an ``AssertionError``
if any printed check fails.
"""

import numpy as np

import biphoton_cascade as bc

tm = bc.compose(bc.preset_cascade("three_param_11"))
model = bc.expand(tm, bc.ExchangeSymmetry.SYMMETRIC)
print(f"three_param_11 expands to {len(model.coeffs)} terms:")
print(bc.render_text(model))
print()

js = bc.make_spectrum(sigma_plus=1.0, sigma_minus=1.0)
rng = np.random.default_rng(42)
print("closed form vs quadrature at random delays:")
for _ in range(5):
    taus = rng.uniform(-6, 6, 3)
    closed = float(bc.evaluate(model, js, taus))
    grid = bc.suggested_grid(tm, js, taus)
    numeric = bc.integrate_R(tm, js, taus, grid)
    print(f"  taus=({taus[0]:+.3f},{taus[1]:+.3f},{taus[2]:+.3f})  "
          f"closed={closed:.12f}  quad={numeric:.12f}  "
          f"|diff|={abs(closed - numeric):.2e}")
    assert abs(closed - numeric) <= 1e-9, "closed form and quadrature disagree"

# The swap rule: adding a delay-free splitter in front exchanges the roles
# of g_+ and g_- and flips every oscillating term's sign.
swapped = bc.swap_rule(model)
partner = bc.expand(bc.compose(bc.preset_cascade("three_param_2002")),
                    bc.ExchangeSymmetry.SYMMETRIC)
same = swapped == partner
print()
print("swap rule reproduces the |2002> cascade term-for-term:", same)
assert same, "swap rule does not reproduce the |2002> cascade"
