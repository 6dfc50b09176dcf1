"""Coupled electron-nuclear spin systems and their dressed eigenstates.

Hamiltonian model (frequency units, MHz; fields in tesla):

    H = g_e * (B . S) (x) 1  +  g_n * 1 (x) (B . I)  +  A * S . I

with ``S`` the electron spin, ``I`` the nuclear spin, ``g_e``/``g_n`` the
gyromagnetic ratios in MHz/T (both entering with a plus sign) and ``A`` the
isotropic hyperfine constant in MHz.  The product basis is |m_S> (x) |m_I>
with both quantum numbers ascending; a full-space index is

    p = (m_S + S) * (2I + 1) + (m_I + I).

Dressed (exact) eigenstates are labelled by the product-basis state they
overlap most with; the labelling is a greedy bijection on descending overlap
and raises :class:`LabelingError` when a state's two largest overlaps, or two
states claiming one label, are within a gap of 1e-6 (e.g. at B = 0).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import NumericalError, PreconditionError, hermitian_eigendecompose, kron

#: least overlap gap that makes a dressed-state label unambiguous
LABEL_GAP_TOL = 1e-6


class LabelingError(NumericalError):
    """Dressed-state labelling was ambiguous (near-degenerate overlaps)."""


def _check_spin(j, what):
    twoj = round(2 * j) if np.isfinite(j) else -1
    if abs(2 * j - twoj) > 1e-12 or twoj < 0:
        raise PreconditionError(f"{what} must be a non-negative half-integer, got {j}")
    return twoj / 2.0


@dataclass(frozen=True)
class SpinSystem:
    """An electron spin S coupled to a nuclear spin I.

    Attributes
    ----------
    name : str
    s, i : float
        Electron / nuclear spin quantum numbers (half-integers).
    g_e, g_n : float
        Gyromagnetic ratios in MHz/T.
    a : float
        Isotropic hyperfine constant in MHz.
    """

    name: str
    s: float
    i: float
    g_e: float
    g_n: float
    a: float

    def __post_init__(self):
        _check_spin(self.s, "S")
        _check_spin(self.i, "I")

    @property
    def dim_e(self):
        return round(2 * self.s) + 1

    @property
    def dim_n(self):
        return round(2 * self.i) + 1

    @property
    def dim(self):
        return self.dim_e * self.dim_n


PRESETS = {
    "Si:Sb-123": SpinSystem("Si:Sb-123", 0.5, 3.5, 28020.0, 5.55, 101.52),
    "Si:Bi-209": SpinSystem("Si:Bi-209", 0.5, 4.5, 28020.0, 6.841, 1475.4),
}

#: CLI-friendly aliases
PRESET_ALIASES = {
    "si-sb": "Si:Sb-123",
    "si-bi": "Si:Bi-209",
}


def get_system(key):
    """Resolve a preset name or alias to a :class:`SpinSystem`."""
    name = PRESET_ALIASES.get(key.lower(), key)
    if name not in PRESETS:
        raise PreconditionError(
            f"unknown system {key!r}; presets: {sorted(PRESETS)} "
            f"(aliases: {sorted(PRESET_ALIASES)})"
        )
    return PRESETS[name]


def _parse_halfint(text):
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def load_system(path):
    """Read a :class:`SpinSystem` from a key-value text file.

    Expected keys: ``name``, ``S``, ``I``, ``g_e_MHz_per_T``,
    ``g_n_MHz_per_T``, ``A_MHz``.  Lines starting with ``#`` are comments.
    """
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
    required = {"name", "S", "I", "g_e_MHz_per_T", "g_n_MHz_per_T", "A_MHz"}
    missing = required - fields.keys()
    if missing:
        raise PreconditionError(f"{path}: missing keys {sorted(missing)}")
    try:
        return SpinSystem(
            name=fields["name"],
            s=_parse_halfint(fields["S"]),
            i=_parse_halfint(fields["I"]),
            g_e=float(fields["g_e_MHz_per_T"]),
            g_n=float(fields["g_n_MHz_per_T"]),
            a=float(fields["A_MHz"]),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"{path}: {exc}") from exc


def spin_operators(j):
    """Angular-momentum matrices (Jx, Jy, Jz) for spin ``j``.

    Basis: |j, m> with m ascending, index k = m + j.  Built from the ladder
    operator <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)).
    """
    j = _check_spin(j, "j")
    dim = round(2 * j) + 1
    m = -j + np.arange(dim)
    jz = np.diag(m.astype(np.complex128))
    lam = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jplus = np.zeros((dim, dim), dtype=np.complex128)
    jplus[np.arange(1, dim), np.arange(dim - 1)] = lam
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return jx, jy, jz


def build_hamiltonian(system, b_field):
    """Hamiltonian matrix (MHz) for ``system`` in field ``b_field``.

    ``b_field`` may be a scalar (interpreted as B_z) or a 3-vector in tesla.
    """
    b = np.atleast_1d(np.asarray(b_field, dtype=float))
    if b.size == 1:
        b = np.array([0.0, 0.0, float(b[0])])
    if b.shape != (3,):
        raise PreconditionError(f"b_field must be scalar or length 3, got {b.shape}")
    sx, sy, sz = spin_operators(system.s)
    ix, iy, iz = spin_operators(system.i)
    eye_e = np.eye(system.dim_e, dtype=np.complex128)
    eye_n = np.eye(system.dim_n, dtype=np.complex128)
    # lifting B.S and B.I once equals lifting each term: kron by an identity is exact
    h = system.g_e * kron(b[0] * sx + b[1] * sy + b[2] * sz, eye_n)
    h += system.g_n * kron(eye_e, b[0] * ix + b[1] * iy + b[2] * iz)
    h += system.a * (kron(sx, ix) + kron(sy, iy) + kron(sz, iz))
    return h


@dataclass(frozen=True)
class DressedState:
    """One exact eigenstate, labelled by its dominant product-basis state."""

    energy: float
    vector: np.ndarray
    m_s: float
    m_i: float
    weight: float  # squared overlap with the labelling product state


def product_index(system, m_s, m_i):
    """Full-space index of the product state |m_s> (x) |m_i>."""
    ks = round(m_s + system.s)
    ki = round(m_i + system.i)
    if not (0 <= ks < system.dim_e and 0 <= ki < system.dim_n):
        raise PreconditionError(
            f"no product state m_S={m_s}, m_I={m_i} for S={system.s}, I={system.i}"
        )
    return ks * system.dim_n + ki


def dressed_eigenstates(system, b_field):
    """All eigenstates of ``system`` at ``b_field``, labelled and sorted.

    Returns
    -------
    list[DressedState]
        Sorted by energy ascending.

    Raises
    ------
    LabelingError
        If the greedy overlap labelling is ambiguous within
        :data:`LABEL_GAP_TOL`: a state's two largest product weights, or two
        states competing for one label, differ by less than it.
    """
    h = build_hamiltonian(system, b_field)
    dec = hermitian_eigendecompose(h)
    dim = system.dim
    weights = np.abs(dec.eigenvectors) ** 2  # [product index, state]
    top = np.sort(weights, axis=0)
    tied = top[-1] - top[-2] < LABEL_GAP_TOL
    if tied.any():
        k = int(np.argmax(tied))
        raise LabelingError(
            f"state {k} has two product labels with overlap gap "
            f"{top[-1, k] - top[-2, k]:.2e} < {LABEL_GAP_TOL:g}"
        )
    # entry k*dim + p pairs state k with product p; a stable sort on -weight
    # visits them by descending overlap, ties in index order
    flat = weights.T.ravel()
    order = np.argsort(-flat, kind="stable")
    label_of_state = {}
    taken_weight = {}
    for idx, w in zip(order.tolist(), flat[order].tolist()):
        k, p = divmod(idx, dim)
        if k in label_of_state:
            continue
        if p in taken_weight:
            if taken_weight[p] - w < LABEL_GAP_TOL:
                raise LabelingError(
                    f"states compete for product label {p} with overlap gap "
                    f"{taken_weight[p] - w:.2e} < {LABEL_GAP_TOL:g}"
                )
            continue
        label_of_state[k] = p
        taken_weight[p] = w
        if len(label_of_state) == dim:
            break
    if len(label_of_state) != dim:
        raise NumericalError(
            f"labelling is not a bijection: {len(label_of_state)} of {dim} states labelled"
        )
    states = []  # in the eigensolver's ascending energy order
    for k in range(dim):
        p = label_of_state[k]
        ks, ki = divmod(p, system.dim_n)
        states.append(
            DressedState(
                energy=float(dec.eigenvalues[k]),
                vector=dec.eigenvectors[:, k].copy(),
                m_s=ks - system.s,
                m_i=ki - system.i,
                weight=float(weights[p, k]),
            )
        )
    return states


def manifold_states(system, b_field, m_s=-0.5):
    """Dressed states of one electron manifold, keyed by nuclear label m_i."""
    out = {}
    for st in dressed_eigenstates(system, b_field):
        if abs(st.m_s - m_s) < 1e-9:
            out[st.m_i] = st
    if len(out) != system.dim_n:
        raise PreconditionError(
            f"manifold m_S={m_s} is incomplete: {len(out)} of {system.dim_n} states"
        )
    return out


def nuclear_transition_frequencies(system, b_z, manifold=-0.5):
    """Adjacent nuclear transition frequencies f_k within one manifold.

    f_k = E(manifold, m_i = -I + k + 1) - E(manifold, m_i = -I + k),
    k = 0 .. 2I-1, in MHz.
    """
    states = manifold_states(system, b_z, manifold)
    mis = sorted(states)
    energies = np.array([states[mi].energy for mi in mis])
    return np.diff(energies)


def transition_gradients(system, b_z, manifold=-0.5):
    """Exact dB_z-derivatives (MHz/T) of the transition frequencies.

    Hellmann-Feynman from one labelled solve: dH/dB_z is diagonal in the
    product basis, d_p = g_e m_S + g_n m_I, so a slope is sum_p |v_p|^2 d_p.
    """
    states = manifold_states(system, b_z, manifold)
    d = np.add.outer(system.g_e * (np.arange(system.dim_e) - system.s),
                     system.g_n * (np.arange(system.dim_n) - system.i)).ravel()
    return np.diff([np.abs(states[mi].vector) ** 2 @ d for mi in sorted(states)])
