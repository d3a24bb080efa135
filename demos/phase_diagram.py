"""Fixed points, stability and the critical line of the kernel recurrence.

For each (sw2, sb2) the variance map has a fixed point q*, the correlation
map has a fixed point c*, and the derivative chi1 of the correlation map
sets the depth scale xi = -1/log(chi1) over which kernel structure decays.
chi1 = 1 separates the ordered phase (all correlations driven to 1) from
the chaotic phase (c* < 1). The ReLU critical line sits at sw2 = 2 for any
sb2; the tanh line starts at sw2 = 1 and bends up with bias variance.

Writes phase_tanh.csv and the critical lines to critical_lines.csv.
"""

import numpy as np

from nngp import NetworkHyperparams, critical_line, diagnose, load_or_build, variance_grid

table = load_or_build("tanh")

sw2s, sb2s = variance_grid(30)
rows = []
for sw2 in sw2s:
    for sb2 in sb2s:
        hp = NetworkHyperparams(depth=1, sigma_w2=float(sw2), sigma_b2=float(sb2),
                                phi="tanh")
        d = diagnose(hp, table)
        rows.append((sw2, sb2, d.q_star, d.c_star, d.chi1, d.xi,
                     1.0 if d.phase == "ordered" else 0.0))
np.savetxt("phase_tanh.csv", rows, delimiter=",",
           header="sw2,sb2,q_star,c_star,chi1,xi,ordered", comments="")
print("wrote phase_tanh.csv (30 x 30 tanh diagnostics)")

_, sb2_grid = variance_grid(15)
tanh_line = critical_line("tanh", sb2_grid, table)
relu_line = critical_line("relu", sb2_grid)
np.savetxt("critical_lines.csv",
           np.column_stack([sb2_grid, tanh_line, relu_line]), delimiter=",",
           header="sb2,tanh_critical_sw2,relu_critical_sw2", comments="")
print("wrote critical_lines.csv")
print(f"relu critical line: sw2 = {relu_line.min():.3f} .. {relu_line.max():.3f}")
print(f"tanh critical sw2 at sb2=0: {tanh_line[0]:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    chi = np.array([r[4] for r in rows]).reshape(30, 30)
    fig, ax = plt.subplots(figsize=(5.5, 4))
    im = ax.pcolormesh(sb2s, sw2s, chi, shading="auto", cmap="coolwarm",
                       vmin=0.0, vmax=2.0)
    ax.plot(sb2_grid, tanh_line, "k--", label="critical line")
    ax.set_xlabel(r"$\sigma_b^2$")
    ax.set_ylabel(r"$\sigma_w^2$")
    ax.set_title(r"tanh stability multiplier $\chi_1$")
    fig.colorbar(im, ax=ax)
    ax.legend()
    fig.tight_layout()
    fig.savefig("phase_tanh.png", dpi=120)
    print("wrote phase_tanh.png")
except ImportError:
    pass
