"""The slab sweep of the lattice stencil and of the Chebyshev propagator
changes no bit, and holds no buffer of the size of the box beyond the terms
and the sums.

The reference below is the whole-box form of both: a stencil that runs each
flat shift over the entire flattened box and fixes its face by index, and a
propagator whose every Chebyshev term makes one such pass per chain before
the block products are summed in pieces of 2**15 sites."""

import tracemalloc

import numpy as np
import pytest

from kinwave import lattice
from kinwave.dispersion import Couplings, couplings_nn, couplings_nn_squared
from kinwave.lattice import (
    LatticeState,
    _flat_shift,
    _slabs,
    _stencil,
    energy,
    evolve,
    propagate,
    sample_disorder,
    spectral_bound,
)


def quartic_couplings() -> Couplings:
    """alpha_hat = 1 + sum_i (1 - cos 2 pi k_i)^2: offsets +-1 at -1 and +-2
    at 1/4 per axis, alpha(0) = 5.5."""
    table = {(0, 0, 0): 5.5}
    for axis in range(3):
        for sign in (-1, 1):
            for step, value in ((1, -1.0), (2, 0.25)):
                offset = [0, 0, 0]
                offset[axis] = sign * step
                table[tuple(offset)] = value
    return Couplings(entries=tuple(sorted(table.items())))


COUPLINGS = {"nn": couplings_nn(1.0), "nn_squared": couplings_nn_squared(1.0),
             "quartic": quartic_couplings()}


# -- the whole-box reference ------------------------------------------------

def reference_groups(c: Couplings, L: int) -> list:
    """The offsets as whole-box flat shifts, grouped by value, +-1 last."""
    groups: dict[float, list] = {}
    for offset, value in c.entries:
        groups.setdefault(value, []).append(_flat_shift(offset, L))
    return sorted(groups.items(), key=lambda group: abs(group[0]) == 1.0)


def _shift(qf, tf, shift, op, value=1.0):
    """tf_y = value * q_{y - x} (op None) or op(tf_y, q_{y - x}), over the
    whole flattened box, the face saved first and written exactly after."""
    d, face, source = shift
    n = qf.size
    pieces = ((tf[d:], qf[: n - d]), (tf[:d], qf[n - d:])) if d else ((tf, qf),)
    if op is None:
        for dst, src in pieces:
            np.multiply(src, value, out=dst)
        if face.size:
            tf[face] = qf[source] * value
        return
    saved = tf[face]
    for dst, src in pieces:
        op(dst, src, out=dst)
    if face.size:
        tf[face] = op(saved, qf[source])


def reference_convolution(q, groups, out):
    qf, of = q.reshape(-1), out.reshape(-1)
    acc = np.empty_like(of)
    if not groups:
        of.fill(0.0)
    for g, (value, shifts) in enumerate(groups):
        if g > 0 and abs(value) == 1.0:
            for shift in shifts:
                _shift(qf, of, shift, np.add if value > 0.0 else np.subtract)
            continue
        target = of if g == 0 else acc
        _shift(qf, target, shifts[0], None, value if len(shifts) == 1 else 1.0)
        for shift in shifts[1:]:
            _shift(qf, target, shift, np.add)
        if len(shifts) > 1 and value != 1.0:
            target *= value
        if g > 0:
            of += acc
    return out


def reference_with_diagonal(groups, diagonal):
    centre = diagonal.reshape(-1).copy()
    moving = []
    for value, shifts in groups:
        kept = [shift for shift in shifts if shift[0]]
        centre += value * (len(shifts) - len(kept))
        if kept:
            moving.append((value, kept))
    identity = (0, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    return [(centre, [identity]), *moving]


def reference_propagate(q0, velocities, disorder, eps, c, t):
    """One whole-box pass per chain and term, block products in 2**15 pieces."""
    block_size, chunk = 2, 2**15
    lam = spectral_bound(c, disorder, eps)
    cos_c, sinc_c = lattice._propagator_series(t, lam)
    groups = reference_groups(c, q0.shape[0])
    msq = (1.0 + np.sqrt(eps) * disorder.xi) ** 2
    w = (4.0 / lam) * msq
    shifted = reference_with_diagonal(groups, -2.0 / w)
    work = np.empty(msq.shape)
    m = len(velocities)
    chains = 1 + m
    n_terms = cos_c.size
    blocks = -(-n_terms // block_size)
    mix = np.zeros((blocks * block_size, 2 * m + 1, chains))
    mix[:n_terms, :m, 0] = cos_c[:, None]
    mix[:n_terms, 2 * m, 0] = sinc_c
    for i in range(m):
        mix[:n_terms, i, 1 + i] = sinc_c
        mix[:n_terms, m + i, 1 + i] = cos_c
    mix = mix.reshape(blocks, block_size, 2 * m + 1, chains).transpose(0, 2, 1, 3)
    mix = mix.reshape(blocks, 2 * m + 1, -1)
    ring = np.zeros((block_size, chains, *msq.shape))
    ring[0, 0] = q0
    for i, v0 in enumerate(velocities):
        ring[0, 1 + i] = v0
    flat = ring.reshape(block_size * chains, -1)
    sums = np.zeros((2 * m + 1, msq.size))
    for j in range(n_terms):
        if j > 0:
            for chain in range(chains):
                reference_convolution(ring[(j - 1) % block_size, chain], shifted, work)
                work *= w
                out = ring[j % block_size, chain]
                if j == 1:
                    np.multiply(work, 0.5, out=out)
                else:
                    np.subtract(work, ring[(j - 2) % block_size, chain], out=out)
        if j % block_size == block_size - 1 or j == n_terms - 1:
            for lo in range(0, msq.size, chunk):
                piece = slice(lo, lo + chunk)
                sums[:, piece] += mix[j // block_size] @ flat[:, piece]
    ks = reference_convolution(sums[2 * m].reshape(msq.shape), groups, work)
    ks *= msq
    return [LatticeState(q=sums[i].reshape(msq.shape),
                         v=(sums[m + i] - ks.reshape(-1)).reshape(msq.shape))
            for i in range(m)]


def reference_evolve(state, disorder, eps, c, t_final, dt):
    """Velocity Verlet with merged kicks, as evolve runs it, on the
    whole-box stencil."""
    kick = (-dt * dt) * (1.0 + np.sqrt(eps) * disorder.xi) ** 2
    groups = reference_groups(c, state.L)
    force = np.empty(kick.shape)

    def dt2_accel(q):
        return np.multiply(reference_convolution(q, groups, force), kick, out=force)

    n_steps = int(np.floor(t_final / dt + 1e-9))
    rem = t_final - n_steps * dt
    q, p = state.q.copy(), state.v * dt
    dt2_accel(q)
    p += 0.5 * force
    for _ in range(n_steps):
        q += p
        p += dt2_accel(q)
    p -= 0.5 * force
    half = 0.5 * (rem / dt) ** 2
    p *= rem / dt
    p += half * force
    q += p
    p += half * dt2_accel(q)
    return LatticeState(q=q, v=p / rem)


# -- tests ------------------------------------------------------------------

def _fields(L, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(L, L, L)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_slab_sweep_propagate_changes_no_bit(name):
    """At L = 48 the box is two slabs of unequal size (28 and 20 planes), and
    the +-2 offsets of the quartic couplings read two planes past a slab;
    for 1, 2 and 3 velocities every final field equals the whole-box
    reference bitwise."""
    c, L, eps, t = COUPLINGS[name], 48, 0.25, 1.5
    assert [hi - lo for lo, hi in _slabs(L)] == [28 * L * L, 20 * L * L]
    d = sample_disorder(L, "rademacher", seed=17)
    q0, *velocities = _fields(L, 4, 23)
    for m in (1, 2, 3):
        got = propagate(q0, velocities[:m], d, eps, c, t)
        ref = reference_propagate(q0, velocities[:m], d, eps, c, t)
        for a, b in zip(got, ref, strict=True):
            assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v), (name, m)


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_evolve_and_energy_keep_the_flat_shift_arithmetic(name):
    """At L = 16 (one slab) evolve and energy equal the whole-box flat-shift
    stencil bitwise, over whole steps and a fractional one."""
    c, L, eps = COUPLINGS[name], 16, 0.25
    d = sample_disorder(L, "rademacher", seed=5)
    q, v = _fields(L, 2, 29)
    state = LatticeState(q=q, v=v)
    force = reference_convolution(q, reference_groups(c, L), np.empty(q.shape))
    kinetic = 0.5 * float(np.sum((1.0 + np.sqrt(eps) * d.xi) ** -2 * v**2))
    assert energy(state, d, eps, c) == kinetic + 0.5 * float(np.sum(q * force))
    dt = 0.01
    got = evolve(state, d, eps, c, 7.5 * dt, dt=dt)
    ref = reference_evolve(state, d, eps, c, 7.5 * dt, dt)
    assert np.array_equal(got.q, ref.q) and np.array_equal(got.v, ref.v)


def test_stencil_faces_of_z_offsets_are_slices():
    """The face of a +-z offset, one site per row, is applied through a
    strided slice; a +-y face, whole rows, through an index array."""
    plan = _stencil(couplings_nn(1.0), 16)
    (lo, hi, groups), = plan
    faces = {}
    for _, shifts in groups:
        for d, _, face, _ in shifts:
            faces[d] = face
    assert isinstance(faces[1], slice) and faces[1].step == 16
    assert isinstance(faces[16**3 - 1], slice)
    assert isinstance(faces[16], np.ndarray) and faces[0] is None


def test_propagate_holds_no_box_sized_temporary(monkeypatch):
    """With slabs of four planes, the peak allocation of propagate at L = 32
    with two velocities stays below its ring of terms, its sums, the per-site
    scaling and diagonal, and twelve slabs (it uses seven: two work buffers
    and the five rows of a block product): no work buffer, product or
    scaling pass spans the box."""
    L, m, slab = 32, 2, 4 * 32 * 32
    monkeypatch.setattr(lattice, "_SLAB", slab)
    _stencil.cache_clear()
    try:
        c, eps = couplings_nn(1.0), 0.25
        d = sample_disorder(L, "rademacher", seed=2)
        q0, *velocities = _fields(L, 1 + m, 31)
        propagate(q0, velocities, d, eps, c, 2.0)     # warm the caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            propagate(q0, velocities, d, eps, c, 2.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    finally:
        _stencil.cache_clear()
    box = L**3 * 8
    ring, sums = 2 * (1 + m) * box, (2 * m + 1) * box
    assert peak < ring + sums + 2 * box + 12 * slab * 8
