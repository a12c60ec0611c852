"""The library layer below the experiment harness, piece by piece.

The harness (ExperimentConfig / run_experiment) is a thin wrapper around
composable parts: meshes and FE spaces, time propagators, the Parareal
iteration, backward adjoint solves, and residual evaluation.  This script
wires them together by hand for a small problem and verifies the error
identity directly.

Run:  python3 demos/03_building_blocks.py
"""

import math

from parapost import (
    FeSpace,
    FormCache,
    SpatialMesh,
    TimePartition,
    build_manufactured,
    propagate_be,
    qoi_eval,
    solve_auxiliary_adjoints,
    solve_coarse_adjoint,
    solve_fine_adjoints,
    stpa_breakdown,
    vpar,
)

print(__doc__)

# manufactured heat problem with exact solution cos(2 pi t) sin(pi x)
prob = build_manufactured(nu=2, mu=1, T=1.0)

# spaces: linear coarse, quadratic fine, cubic for the adjoints
mesh = SpatialMesh.uniform(0.0, 1.0, 16)
coarse_space = FeSpace(mesh, 1)
fine_space = FeSpace(mesh, 2)
adj_space = FeSpace(mesh, 3)
print(f"mesh: {mesh.n_elements} elements; "
      f"dofs coarse/fine/adjoint = {coarse_space.dof_count}/"
      f"{fine_space.dof_count}/{adj_space.dof_count}")

# 5 temporal subdomains, 4 coarse steps each, fine steps 4x smaller
part = TimePartition.uniform(prob.T, P_t=5, Nhat_t=20, r=4)
# one cache for the whole experiment: every solve, embedding and residual
# below shares its matrices, load blocks and factorizations
cache = FormCache()
# the fine solver gets all the fine solves of an iteration at once and
# steps them together; the coarse solver gets an iteration's serial sweep as
# one chain of rows, each starting from the previous row's end value plus
# its jump, the interpolated Parareal correction
fine = lambda grids, ics: propagate_be(fine_space, grids, ics, prob.f, cache)
crse = lambda grids, ic, jumps: propagate_be(coarse_space, grids, ic, prob.f,
                                             cache, jumps=jumps)

# two Parareal iterations from the interpolated initial condition
states = vpar(part, 2, coarse_space.interpolate(prob.u0), fine, crse, cache)
state = states[-1]

true_qoi = prob.true_qoi()
computed = qoi_eval(prob.psi, state.fine[-1].end)
true_err = true_qoi - computed
print(f"\ntrue QoI      {true_qoi:+.6e}")
print(f"computed QoI  {computed:+.6e}")
print(f"true error    {true_err:+.6e}")

# one backward adjoint solve per family: global coarse, per-subdomain fine,
# and the auxiliary solves that carry the adjoint jumps back to t = 0, all
# cG(3) in time
adj_q_t = 3
coarse_adj = solve_coarse_adjoint(part, adj_space, prob.psi, adj_q_t, cache)
fine_adjs = solve_fine_adjoints(part, coarse_adj, adj_q_t, cache)
aux_adjs = solve_auxiliary_adjoints(part, coarse_adj, fine_adjs, adj_q_t,
                                    cache)
adjoints = {"coarse": coarse_adj, "fine": fine_adjs, "aux": aux_adjs}

# the breakdown sees only the discrete solution and the adjoints (no
# Schwarz decomposition here, so D is not split); the estimate is the sum of
# its components, and only here, where the exact solution is known, is it
# compared with the true error
components = stpa_breakdown(part, state, adjoints, prob, None, None, cache)
estimate = math.fsum(components.values())

print("\ncomponents:")
for name, val in components.items():
    print(f"  {name}  {val:+.6e}")
print(f"\nestimated error {estimate:+.6e}")
print(f"effectivity     {estimate / true_err:.4f}")

gap = abs(estimate - true_err)
print(f"\n|estimate - truth| = {gap:.2e} "
      f"({gap / abs(true_err):.1%} of the true error)")
