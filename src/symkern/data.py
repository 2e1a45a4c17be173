"""Training data construction for the mixed-variable learning problem.

Initial states are sampled (grids, seeded boxes), filtered by energy level
and optional half-space restriction, propagated one macro step with the
micro-step midpoint reference, and assembled into mixed inputs (q0, p_dT)
with difference-quotient gradient targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FilterTooTight, NotOneDOF, TooFewSamples
from .integrators import midpoint_many, step_count
from .surrogate import HBDataset
from .systems import HamiltonianSystem, apply_jt

BOX_CHUNK = 8192
MAX_DRAWS = 10_000_000
MIN_ACCEPT_RATE = 1e-3


@dataclass
class SamplerSpec:
    """How to draw initial states from the box bounds.

    With counts, the sample is the grid of counts[i] points per axis;
    otherwise it is target_count seeded uniform draws from the box.  The
    energy cap is strict (<) or inclusive (<=) per energy_strict; the
    half-space restriction keeps sign * x[coord] <= 0 and is applied after
    the energy filter.
    """

    bounds: list                          # [(lo, hi)] per state coordinate
    counts: list | None = None            # grid points per axis
    target_count: int | None = None       # accepted states for the box
    seed: int | None = None
    energy_cap: float | None = None
    energy_strict: bool = False
    halfspace: tuple | None = None        # (state coord, sign in {-1, +1})


def _apply_filters(sys: HamiltonianSystem, states: np.ndarray, spec: SamplerSpec):
    keep = np.ones(states.shape[0], dtype=bool)
    if spec.energy_cap is not None:
        H = sys.energy_many(states)
        keep &= (H < spec.energy_cap) if spec.energy_strict else (H <= spec.energy_cap)
    if spec.halfspace is not None:
        coord, sign = spec.halfspace
        keep &= sign * states[:, coord] <= 0.0
    return states[keep]


def sample_states(sys: HamiltonianSystem, spec: SamplerSpec) -> np.ndarray:
    """Deterministic state sample per the spec and seed; (M, 2n) array."""
    if len(spec.bounds) != sys.dim:
        raise DimensionMismatch(f"{len(spec.bounds)} bounds for state dim {sys.dim}")
    lo, hi = np.array(spec.bounds, dtype=float).T
    if not np.all(lo < hi):
        raise ValueError(f"bounds must be well ordered, got {spec.bounds}")
    if spec.counts is not None:
        if len(spec.counts) != sys.dim:
            raise ValueError("grid sampler needs one axis count per coordinate")
        axes = [np.linspace(a, b, int(c)) for a, b, c in zip(lo, hi, spec.counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        states = np.stack([m.ravel() for m in mesh], axis=1)
        return _apply_filters(sys, states, spec)

    # seeded rejection sampling over the box
    if not spec.target_count or spec.target_count < 1:
        raise ValueError("box sampler needs target_count >= 1")
    rng = np.random.default_rng(spec.seed)
    accepted = []
    n_accepted = 0
    n_drawn = 0
    while n_accepted < spec.target_count:
        chunk = rng.uniform(lo, hi, size=(BOX_CHUNK, sys.dim))
        n_drawn += BOX_CHUNK
        kept = _apply_filters(sys, chunk, spec)
        accepted.append(kept)
        n_accepted += kept.shape[0]
        if n_drawn >= MAX_DRAWS and n_accepted < MIN_ACCEPT_RATE * n_drawn:
            raise FilterTooTight(
                f"acceptance {n_accepted}/{n_drawn} below {MIN_ACCEPT_RATE:.1%}"
            )
    return np.concatenate(accepted)[: spec.target_count]


def build_hb_dataset(sys: HamiltonianSystem, states, delta_t: float,
                     micro_dt: float, meta: dict | None = None) -> HBDataset:
    """Propagate one macro step and assemble mixed inputs and targets.

    Inputs are (q0, p_dT); targets are J'(x_dT - x0) / dT, the discrete
    gradient data of the mixed-variable potential.
    """
    X0 = np.atleast_2d(np.asarray(states, dtype=float))
    if X0.shape[1] != sys.dim:
        raise DimensionMismatch(f"state dim {X0.shape[1]} != {sys.dim}")
    K = step_count(delta_t, micro_dt)
    if K is None:
        raise ValueError(f"delta_t={delta_t} is not an integer multiple of micro_dt={micro_dt}")
    XT = midpoint_many(sys, X0, micro_dt, K)
    n = sys.n
    xi = np.concatenate([X0[:, :n], XT[:, n:]], axis=1)
    y = apply_jt(XT - X0) / delta_t
    info = {"system": sys.name, "delta_t": float(delta_t), "micro_dt": float(micro_dt),
            "count": int(X0.shape[0])}
    info.update(meta or {})
    return HBDataset(inputs=xi, targets=y, delta_t=float(delta_t), meta=info)


def split_train_validation(data: HBDataset, fraction: float, seed: int):
    """Seeded shuffle split into disjoint, exhaustive train/validation parts."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    if data.count < 2:
        raise TooFewSamples("need at least 2 samples to split")
    perm = np.random.default_rng(seed).permutation(data.count)
    n_train = min(max(int(fraction * data.count), 1), data.count - 1)
    idx_a, idx_b = perm[:n_train], perm[n_train:]
    make = lambda idx, tag: HBDataset(
        inputs=data.inputs[idx], targets=data.targets[idx], delta_t=data.delta_t,
        meta={**data.meta, "split": tag},
    )
    return make(idx_a, "train"), make(idx_b, "validation")


def separability_diagnostic(data: HBDataset):
    """Scatter tables contrasting separable and mixed-input data views.

    Table A pairs each scalar input with its would-be separable target:
    rows ('q_update', p_dT, dq/dT) and ('p_update', q0, -dp/dT).  Table B
    keys the same targets by the full mixed input.  Returns (table_a,
    table_b) as column dicts; no modeling is performed.
    """
    if data.dim != 2:
        raise NotOneDOF(f"diagnostic is defined for one degree of freedom, dim={data.dim}")
    q0, p_dt = data.inputs[:, 0], data.inputs[:, 1]
    y_q, y_p = data.targets[:, 0], data.targets[:, 1]   # y_q = -dp/dT, y_p = dq/dT
    table_a = {
        "component": ["q_update"] * data.count + ["p_update"] * data.count,
        "input": np.concatenate([p_dt, q0]),
        "output": np.concatenate([y_p, y_q]),
    }
    table_b = {"xi_q": q0, "xi_p": p_dt, "y_q": y_q, "y_p": y_p}
    return table_a, table_b
