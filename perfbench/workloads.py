"""The four benchmark workloads: one mmdrl config each, plus what the
harness needs to check and explain them.

Every workload runs on one committed MDP (``mdps/``), so every operation
of a workload does the same engine work; the workload seed only picks
which configured seeds (reward draws, Monte Carlo oracle, algorithm
randomness) the operations use. See WORKLOADS.md for why each exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Configured seeds with committed reference values (reference.json). A run
# takes ``Workload.seeds_per_run`` of them, chosen by the workload seed.
POOL = tuple(range(24))

ZEROSHOT = {"reward_draws": 10, "oracle_samples": 10_000, "tail_tol": 1e-3}
# Criterion 8's bound on the final TD distance to the signed-DP fixed point.
TD_SUP_MMD_BOUND = 0.05
# The sup-norm KKT residual up to which mmdrl accepts a simplex solve
# (``projections.KKT_ACCEPT``). A different solver may return any point
# within it, so the td-cat tolerances are derived from it.
KKT_ACCEPT = 1e-8
# Particle DP has no solver tolerance: it only resamples, so its output
# agrees with the reference up to round-off.
EWP_CRAMER_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mdp_file: str
    # The mmdrl config, without its mdp, zeroshot and seeds sections.
    config: dict
    # Spans that must record at least one call in a traced operation.
    spans: tuple
    # More seeds where cramer_mean varies more from seed to seed.
    seeds_per_run: int

    @property
    def algorithm(self) -> str:
        return self.config["algorithm"]

    @property
    def mdp(self) -> dict:
        return json.loads((HERE / "mdps" / self.mdp_file).read_text(encoding="utf-8"))

    def tolerances(self, reference: dict, estimate_l1: float) -> dict:
        """Allowed distance of each accuracy value from its committed one.

        ``estimate_l1`` is the largest sum of |weights| over the
        states of this operation's estimate (1 for probability weights).
        """
        mdp = self.mdp
        if self.algorithm == "dp-cat":
            return {"cramer_mean": dp_cramer_tolerance(self.config["dp"]["tol"], mdp["gamma"], mdp["d"])}
        if self.algorithm == "td-cat":
            return td_tolerances(self.config["support"]["resolution"], mdp, estimate_l1)
        return {"cramer_mean": EWP_CRAMER_RTOL * abs(reference["cramer_mean"])}


def _c_d(dim: int) -> float:
    """E|w_1| over unit vectors w in R^dim, so E_w|w.z| = c_d |z|."""
    return math.gamma(dim / 2.0) / (math.sqrt(math.pi) * math.gamma((dim + 1) / 2.0))


def dp_cramer_tolerance(tol: float, gamma: float, dim: int, alpha: float = 1.0) -> float:
    """Bound on how far two converged categorical-DP runs can move cramer_mean.

    DP stops once successive iterates are ``tol`` apart, so the final
    iterate lies within delta = tol * c / (1 - c) of the fixed point, with
    c = gamma^(alpha/2) the contraction rate. Two solvers that both meet
    ``tol`` therefore differ by at most 2 delta in MMD per state.

    With alpha = 1, MMD^2 = -1/2 sum_ij d_i d_j |x_i - x_j| for the weight
    difference d, and the Cramer distance of the projection onto a unit
    direction w is C_w^2 = -1/2 sum_ij d_i d_j |w.(x_i - x_j)|. Since
    E_w|w.z| = c_d |z|, E_w[C_w^2] = c_d MMD^2: the root mean square of C_w
    over all directions is at most 2 delta sqrt(c_d). At d = 1, c_d = 1 and
    the bound is exact for each direction w = +-1. At d >= 2, cramer_mean
    averages ten fixed directions, which a root mean square over all
    directions does not strictly bound; the check holds it to that figure.

    delta treats each sweep's projection as exact. mmdrl solves the
    projections of the last sweeps to a KKT residual of 1e-3 times the
    successive distance; ``projection_error`` gives their worst-case
    effect, which is not included here.
    """
    c = gamma ** (alpha / 2.0)
    delta = tol * c / (1.0 - c)
    return 2.0 * delta * math.sqrt(_c_d(dim))


def projection_error(residual: float, n_atoms: int, diameter: float, target_l1: float) -> float:
    """Bound on the MMD between a simplex projection accepted at sup-norm
    KKT residual ``residual`` and the exact projection (alpha = 1).

    The QP objective f(p) = p'Kp - 2p'q is the squared MMD to the target
    up to a constant. At its minimiser p* over the simplex,
    f(p) - f(p*) >= (p - p*)'K(p - p*) = MMD^2(p, p*), so the MMD is at
    most the square root of the optimality gap. With g = grad f(p),
    u = P(p - g) and r = |p - u|_inf, convexity gives the gap as at most
    g.(p - s) for some s on the simplex. The variational inequality of
    the projection gives g.(u - s) <= (p - u).(u - s) <= 2r. As p - u sums
    to 0, g.(p - u) <= range(g)/2 * |p - u|_1 <= range(g) n r / 2. Each
    g_i = const - sum_j p_j |xi_i - xi_j| + sum_l w_l |xi_i - a_l| is
    Lipschitz in the atom xi_i with constant 1 + |w|_1, so
    range(g) <= (1 + |w|_1) * diameter. This is a worst case, far above
    what a converged solve leaves in practice.
    """
    gap = residual * (2.0 + 0.5 * (1.0 + target_l1) * diameter * n_atoms)
    return math.sqrt(gap)


def td_tolerances(resolution: int, mdp: dict, estimate_l1: float) -> dict:
    """Bounds on how far a td-cat operation's accuracy values can move when
    only the simplex solver changes, within its acceptance ``KKT_ACCEPT``.

    Every other step is exact up to round-off: TD applies signed
    projections (linear solves), and the signed-DP reference is one too.
    Two simplex solves enter:

    - ``init_td_state`` projects a point mass (|w|_1 = 1) onto the
      support, so the two runs start within 2 e_init in sup-MMD. With the
      same sampled transitions, one TD step at state x moves the gap to
      (1 - a) D_x + a sqrt(gamma) D_x' <= max_y D_y, because the backup
      scales MMD by sqrt(gamma), the signed projection is an orthogonal
      projection and a <= 1. So the final estimates stay within 2 e_init
      of each other, and sup_mmd_to_reference moves by at most that.
    - the zero-shot step projects each signed estimate (|w|_1 =
      ``estimate_l1``) onto the simplex. The exact projection does not
      expand MMD, so the probability estimates differ by at most
      2 e_init + 2 e_zs. cramer_mean is held to sqrt(c_d) times that, as
      in ``dp_cramer_tolerance``, with the same caveat about ten fixed
      directions.

    The support is the simplex grid scaled by v_max = r_max / (1 - gamma):
    (resolution + d - 1 choose d - 1) atoms, of diameter v_max sqrt(2).
    """
    dim = mdp["d"]
    n_atoms = math.comb(resolution + dim - 1, dim - 1)
    diameter = math.sqrt(2.0) * mdp["r_max"] / (1.0 - mdp["gamma"])
    e_init = projection_error(KKT_ACCEPT, n_atoms, diameter, 1.0)
    e_zs = projection_error(KKT_ACCEPT, n_atoms, diameter, estimate_l1)
    return {
        "sup_mmd_to_reference": 2.0 * e_init,
        "cramer_mean": 2.0 * (e_init + e_zs) * math.sqrt(_c_d(dim)),
    }


_SHARED_SPANS = (
    "cli.main",
    "experiments.run",
    "experiments.run_seed",
    "experiments.zeroshot_run",
    "experiments.zeroshot_seed",
    "mdp.rollout_returns",
    "evaluation.cramer_distance",
    "evaluation.zeroshot_scalar",
)
_GRID_SPANS = _SHARED_SPANS + (
    "measures.SupportMap.__init__",
    "measures.SupportMap.uniform_grid",
    "projections.SimplexProjector.__init__",
    "projections.solve_simplex_qp",
    "projections.solve_simplex_qp_batch",
    "dp.categorical_dp_solve",
    "dp.CategoricalEngine.__init__",
    "dp.CategoricalEngine.init_weights",
    "dp.CategoricalEngine.step_weights",
    "dp.CategoricalEngine.linear_terms",
    "dp.CategoricalEngine.distance",
    "kernels.gram",
    "kernels.cross_kernel",
    "kernels.pairwise_semimetric",
)


def _grid(m: int, tol: float, max_iter: int) -> dict:
    return {
        "algorithm": "dp-cat",
        "support": {"kind": "grid", "m": m},
        "dp": {"tol": tol, "max_iter": max_iter, "projection": "simplex"},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zeroshot-d2-grid",
            "criterion-9 path: simplex DP at d=2, where the simplex constraints bind",
            "random_d2.json",
            _grid(64, 1e-3, 250),
            _GRID_SPANS,
            8,
        ),
        Workload(
            "zeroshot-d1-grid",
            "criterion-4 path: simplex DP at d=1, where the signed solution is already feasible",
            "random_d1.json",
            _grid(32, 1e-4, 300),
            _GRID_SPANS,
            8,
        ),
        Workload(
            "td-cat-dsm",
            "criterion-8 path: signed categorical TD, whose per-transition Python loop takes half the time; no batched simplex sweeps",
            "dsm_3.json",
            {
                "algorithm": "td-cat",
                "support": {"kind": "simplex-grid", "resolution": 10},
                "td": {
                    "steps": 50_000,
                    "report_interval": 1000,
                    "reference": "signed-dp",
                    "schedule": {"exponent": 0.6, "scale": 1.0},
                },
            },
            _SHARED_SPANS
            + (
                "measures.SupportMap.__init__",
                "measures.SupportMap.simplex_grid",
                "td.init_td_state",
                "td.categorical_td_run",
                "projections.SignedProjector.__init__",
                "projections.SignedProjector.affine_map",
                "dp.categorical_dp_solve",
            ),
            8,
        ),
        Workload(
            "particle-dp-d2",
            "particle DP at d=2: the only workload where the kernels layer (O(m^2) sup-MMD) dominates",
            "random_d2.json",
            {
                "algorithm": "dp-ewp",
                "ewp": {"particles": 256},
            },
            _SHARED_SPANS
            + (
                "dp.ewp_random_solve",
                "dp.ewp_random_step",
                "kernels.signed_energy_sum",
                "kernels.mmd",
            ),
            12,
        ),
    )
}


def program_config(workload: Workload, seed: int, run_out: Path) -> dict:
    """The mmdrl config one operation runs: ``run`` reads the algorithm
    sections, ``zeroshot-eval`` then evaluates the estimate that run wrote."""
    cfg = dict(workload.config)
    cfg["format_version"] = 1
    cfg["mdp"] = {"kind": "file", "path": str(HERE / "mdps" / workload.mdp_file)}
    cfg["zeroshot"] = {
        **ZEROSHOT,
        "estimate": {"kind": "file", "path": str(run_out / "seed_{seed}" / "estimate.json")},
    }
    cfg["seeds"] = [seed]
    return cfg


def computed_bytes(workload: Workload) -> dict:
    """Bytes of each workload's largest arrays, computed from the config
    (float64 = 8 B). Not measured traffic."""
    cfg = workload.config
    mdp = workload.mdp
    n_states, dim = mdp["n_states"], mdp["d"]
    rollout = ZEROSHOT["oracle_samples"] * (dim + n_states) * 8
    out = {"oracle_rollout_state": rollout}
    if cfg["algorithm"] == "dp-cat":
        per_axis = max(int(round(cfg["support"]["m"] ** (1.0 / dim))), 2)
        m = per_axis**dim
        out["cross_kernel_blocks"] = n_states * n_states * m * m * 8
        out["gram"] = m * m * 8
        out["pairwise_diff_temp"] = m * m * dim * 8
    elif cfg["algorithm"] == "td-cat":
        r = cfg["support"]["resolution"]
        m = math.comb(r + dim - 1, dim - 1)
        out["affine_maps"] = n_states * n_states * m * m * 8
        out["signed_inverse"] = n_states * m * m * 8
    else:
        n = 2 * cfg["ewp"]["particles"]
        out["energy_sum_block"] = n * n * (dim + 1) * 8
        out["particles"] = n_states * cfg["ewp"]["particles"] * dim * 8
    return out
