"""Inside the self-tuning machinery: fuzzy gain scheduling.

A 7-label rule base maps normalized error and error rate to small PID
gain increments in [-0.1, 0.1].  The type-1 engine uses max-min
inference with centroid defuzzification; the interval type-2 engine
blurs every membership function into a footprint of uncertainty and
type-reduces to the exact Karnik-Mendel centroid interval (a closed
form, no iteration), which buys smoother gain adjustments when the
inputs are noisy.
"""

from pathlib import Path

import numpy as np

from omnitrack import Type1Engine, Type2Engine
from omnitrack.fuzzy import KP_RULES, LABELS
from omnitrack.svgplot import line_chart

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

print("proportional-gain rule table (rows = e, columns = de):")
print("     " + " ".join(f"{c:>3}" for c in LABELS))
for label, row in zip(LABELS, KP_RULES):
    print(f"  {label:>3}" + " ".join(f"{cell:>3}" for cell in row))

t1 = Type1Engine()
print("\ncrisp increments at a few operating points (type-1):")
for e, de in [(-1.0, -1.0), (-0.5, 0.0), (0.0, 0.0), (0.5, -0.25), (1.0, 1.0)]:
    out = t1.infer(e, de)
    print(f"  e={e:+.2f} de={de:+.2f} ->"
          f" dkp={out.dkp:+.4f} dki={out.dki:+.4f} dkd={out.dkd:+.4f}")

# Slice the control surface: dkp versus e for three fixed de values.
axis = np.linspace(-1.0, 1.0, 201)
curves = []
for de in (-0.5, 0.0, 0.5):
    curves.append(
        (f"de = {de:+.1f}", axis, np.array([t1.infer(float(e), de).dkp for e in axis]))
    )
line_chart(
    OUT / "fuzzy_surface_slice.svg",
    curves,
    title="Proportional increment vs normalized error",
    xlabel="e (normalized)",
    ylabel="dkp",
)
print(f"\nfigure -> {OUT / 'fuzzy_surface_slice.svg'}")

# Widening the footprint of uncertainty pulls the interval engine away
# from the type-1 output; a zero-width footprint reproduces it exactly.
print("\ninterval type-2 versus type-1 at (e, de) = (0.3, -0.2):")
reference = t1.infer(0.3, -0.2).dkp
for lag in (0.0, 0.15, 0.3, 0.45):
    it2 = Type2Engine(height_scale=1.0, lag=lag)
    print(f"  lag={lag:.2f}: dkp={it2.infer(0.3, -0.2).dkp:+.6f} "
          f"(type-1 {reference:+.6f})")
