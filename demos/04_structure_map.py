"""Localized interference structures in a three-delay interferogram.

Fixing tau_1 = 8 and tau_2 = 22 and sweeping tau_3 produces isolated
interference structures wherever a cosine argument in the 28-term
expansion passes through zero: at tau_3 = +-8, +-22, +-(22-8) = +-14 and
+-(22+8) = +-30, with visibilities 1/4, 1/8, 1/16 and 1/16.
"""

import biphoton_cascade as bc

js = bc.make_spectrum(sigma_plus=1.0, sigma_minus=1.0)
tm = bc.compose(bc.preset_cascade("three_param_11"))
model = bc.expand(tm, bc.ExchangeSymmetry.SYMMETRIC)

spec = bc.SweepSpec(fixed={0: 8.0, 1: 22.0}, swept=2,
                    start=-80.0, stop=80.0, samples=6401)
trace = bc.sweep(bc.AnalyticBackend(model, js), spec)

structures = bc.detect_structures(trace, baseline=1.0,
                                  carrier_freq=js.pump_frequency)
print(f"{len(structures)} structures found:")
for s in structures:
    print(f"  center {s.center:+7.3f}   visibility {s.visibility:.4f}")

# Pruning the 28-term model at these large fixed delays leaves only the
# 11 terms whose correlation factors survive, which is the compact model
# the structure positions can be read off from.
pruned = bc.asymptotic_prune(model, {0: 8.0, 1: 22.0}, swept=2,
                             js=js, threshold=1e-2)
print()
print(f"pruned model ({len(pruned.coeffs)} terms):")
print(bc.render_text(pruned))
