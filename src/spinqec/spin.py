"""Coupled electron-nuclear spin systems and their dressed eigenstates.

Hamiltonian model (frequency units, MHz; fields in tesla):

    H = g_e * (B . S) (x) 1  +  g_n * 1 (x) (B . I)  +  A * S . I

with ``S`` the electron spin, ``I`` the nuclear spin, ``g_e``/``g_n`` the
gyromagnetic ratios in MHz/T (both entering with a plus sign) and ``A`` the
isotropic hyperfine constant in MHz.  The product basis is |m_S> (x) |m_I>
with both quantum numbers ascending; a full-space index is

    p = (m_S + S) * (2I + 1) + (m_I + I).

The spin operators, the two identities and the lifted S . I depend only on
(S, I), so they are built once per spin pair and kept read-only; a field
lifts only B . S and B . I.  The last few labelled solves are kept, so the
states and then the transition gradients at one field cost one solve.

Dressed (exact) eigenstates are labelled by the product-basis state they
overlap most with; the labelling is a greedy bijection on descending overlap
and raises :class:`LabelingError` when a state's two largest overlaps, or two
states claiming one label, are within a gap of 1e-6 (e.g. at B = 0).
"""

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import NumericalError, PreconditionError, hermitian_eigendecompose, kron, \
    require_finite

#: least overlap gap that makes a dressed-state label unambiguous
LABEL_GAP_TOL = 1e-6

#: electron projection m_S of the manifold that holds the code words
MANIFOLD_M_S = -0.5

#: largest (2S+1)(2I+1) a SpinSystem accepts; every dense matrix is dim x dim
MAX_SYSTEM_DIM = 256


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
        if self.dim > MAX_SYSTEM_DIM:
            raise PreconditionError(f"system dimension (2S+1)(2I+1) = {self.dim} exceeds "
                                    f"MAX_SYSTEM_DIM = {MAX_SYSTEM_DIM}")
        require_finite(g_e=self.g_e, g_n=self.g_n, a=self.a)

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


#: an exact half-integer spin in a system file: an integer, n/2, or a decimal ending
#: in .0 or .5, all ASCII digits
_HALF_INTEGER = re.compile(r"([0-9]+)(/2|\.[05])?")
#: a constant in a system file: a decimal in ASCII digits with optional sign, fraction and
#: exponent, or a spelling of nan or inf, which the finite check refuses by name
_DECIMAL = re.compile(r"[+-]?(?:([0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                      r"|(?i:nan|inf|infinity))")
#: the keys of a system file (:func:`load_system`), each required exactly once, and
#: the grammar of each number as (pattern, description)
SYSTEM_KEYS = ("name", "S", "I", "g_e_MHz_per_T", "g_n_MHz_per_T", "A_MHz")
_GRAMMAR = {
    **dict.fromkeys("SI", (_HALF_INTEGER, "an integer, n/2 or a decimal ending in .0 or .5")),
    **dict.fromkeys(SYSTEM_KEYS[3:], (_DECIMAL, "a decimal in ASCII digits, with optional "
                                                "sign, fraction and exponent"))}


def _parse_number(key, text):
    """The value of number ``key`` written as ``text`` (see :data:`_GRAMMAR`); a
    nonzero must not round to 0.0."""
    pattern, grammar = _GRAMMAR[key]
    match = pattern.fullmatch(text)
    if match is None:
        raise PreconditionError(f"{key} must be {grammar}, got {text!r}")
    # exact for every spin that SpinSystem accepts
    value = float(match[1]) / 2.0 if text.endswith("/2") else float(text)
    if value == 0.0 and re.search("[1-9]", match[1]):
        raise PreconditionError(f"{key} = {text} is not zero but rounds to 0.0")
    return value


def load_system(path):
    """Read a :class:`SpinSystem` from a key-value text file.

    The keys are :data:`SYSTEM_KEYS`, each set exactly once; any other key,
    such as a miscased one, is refused by name.  S and I are exact
    half-integers (:data:`_HALF_INTEGER`): an integer, ``n/2``, or a decimal
    ending in ``.0`` or ``.5``; the constants are decimals (:data:`_DECIMAL`),
    and a nonzero one must not round to 0.0.  Lines starting with ``#`` are comments.
    A path that cannot be read as UTF-8 text (a directory, an unreadable or a
    binary file) is a :class:`PreconditionError` naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise PreconditionError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise PreconditionError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    fields, set_on = {}, {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SYSTEM_KEYS:
            raise PreconditionError(
                f"{path}:{lineno}: unknown key {key!r}; the keys are {', '.join(SYSTEM_KEYS)}"
            )
        if key in set_on:
            raise PreconditionError(
                f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}"
            )
        fields[key], set_on[key] = val.strip(), lineno
    missing = set(SYSTEM_KEYS) - fields.keys()
    if missing:
        raise PreconditionError(f"{path}: missing keys {sorted(missing)}")
    try:
        return SpinSystem(fields["name"], *(_parse_number(k, fields[k]) for k in SYSTEM_KEYS[1:]))
    except PreconditionError as exc:
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


@lru_cache(maxsize=16)
def _operators(s, i):
    """The field-independent operators of :func:`build_hamiltonian` for spins
    ``s`` and ``i``, built once and read-only: (S_x, S_y, S_z), (I_x, I_y, I_z),
    the two identities and the product-space S.I."""
    (sx, sy, sz), (ix, iy, iz) = spin_operators(s), spin_operators(i)
    eye_e = np.eye(len(sx), dtype=np.complex128)
    eye_n = np.eye(len(ix), dtype=np.complex128)
    s_dot_i = kron(sx, ix) + kron(sy, iy) + kron(sz, iz)
    for op in (sx, sy, sz, ix, iy, iz, eye_e, eye_n, s_dot_i):
        op.flags.writeable = False
    return (sx, sy, sz), (ix, iy, iz), eye_e, eye_n, s_dot_i


def build_hamiltonian(system, b_field):
    """Hamiltonian matrix (MHz) for ``system`` in field ``b_field``.

    ``b_field`` may be a scalar (interpreted as B_z) or a 3-vector in tesla;
    a NaN or infinite component, or a field and constants whose Hamiltonian
    overflows float64, raise :class:`PreconditionError`.  The spin operators
    and the lifted S.I do not depend on the field and are built once per spin
    pair; only B.S and B.I are lifted per call.
    """
    b = np.atleast_1d(np.asarray(b_field, dtype=float))
    require_finite(b_field=b_field)
    if b.size == 1:
        b = np.array([0.0, 0.0, float(b[0])])
    if b.shape != (3,):
        raise PreconditionError(f"b_field must be scalar or length 3, got {b.shape}")
    (sx, sy, sz), (ix, iy, iz), eye_e, eye_n, s_dot_i = _operators(system.s, system.i)
    # lifting B.S and B.I once equals lifting each term: kron by an identity is
    # exact in value (summing lifted terms instead can turn the sign of a zero)
    try:
        with np.errstate(over="raise"):
            h = system.g_e * kron(b[0] * sx + b[1] * sy + b[2] * sz, eye_n)
            h += system.g_n * kron(eye_e, b[0] * ix + b[1] * iy + b[2] * iz)
            h += system.a * s_dot_i
    except FloatingPointError:
        raise PreconditionError(
            f"the Hamiltonian of {system.name} at b_field={b_field} overflows float64"
        ) from None
    return h


@dataclass(frozen=True)
class DressedState:
    """One exact eigenstate, labelled by its dominant product-basis state."""

    energy: float
    vector: np.ndarray
    m_s: float
    m_i: float


def dressed_eigenstates(system, b_field):
    """All eigenstates of ``system`` at ``b_field``, labelled and sorted.

    The last eight solves are kept (:func:`_labelled`, least recently used
    out first), keyed by the system and the exact bits of
    ``np.asarray(b_field, float)`` (so 0.0 and -0.0 are two fields); a repeat
    returns a new list of the same states, whose vectors are read-only.  A
    solve that raises is not kept.

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
    b = np.asarray(b_field, dtype=float)
    return list(_labelled(system, b.shape, b.tobytes()))


def _by_overlap(flat, dim):
    """(entry, weight) of ``flat`` by descending weight, ties in index order
    (a stable sort on -weight), listed ``dim`` at a time: a labelling usually
    ends within the first ``dim``."""
    order = np.argsort(-flat, kind="stable")
    for start in range(0, len(order), dim):
        chunk = order[start:start + dim]
        yield from zip(chunk.tolist(), flat[chunk].tolist())


# well below one spectra pool cycle (4 donors x 63 fields), so only a repeat
# at one field hits
@lru_cache(maxsize=8)
def _labelled(system, shape, raw):
    """The labelled solve of :func:`dressed_eigenstates` at the field of shape
    ``shape`` whose float64 bytes are ``raw``, as a tuple of states with
    read-only vectors."""
    h = build_hamiltonian(system, np.frombuffer(raw).reshape(shape))
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
    label_of_state = {}
    taken_weight = {}
    # entry k*dim + p pairs state k with product p
    for idx, w in _by_overlap(weights.T.ravel(), dim):
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
    # in the eigensolver's ascending energy order; state k's vector is row k
    labels, dim_n = [label_of_state[k] for k in range(dim)], system.dim_n
    vectors = dec.eigenvectors.T.copy()
    vectors.flags.writeable = False
    return tuple(DressedState(energy=energy, vector=vector, m_s=p // dim_n - system.s,
                              m_i=p % dim_n - system.i)
                 for energy, vector, p in zip(dec.eigenvalues.tolist(), vectors, labels))


def manifold_states(system, b_field):
    """Dressed states of the m_S = :data:`MANIFOLD_M_S` manifold, keyed by m_i."""
    out = {}
    for st in dressed_eigenstates(system, b_field):
        if abs(st.m_s - MANIFOLD_M_S) < 1e-9:
            out[st.m_i] = st
    if len(out) != system.dim_n:
        raise PreconditionError(
            f"manifold m_S={MANIFOLD_M_S} is incomplete: {len(out)} of {system.dim_n} states"
        )
    return out


def transition_gradients(system, b_z):
    """Exact dB_z-derivatives (MHz/T) of the transition frequencies.

    Hellmann-Feynman from one labelled solve: dH/dB_z is diagonal in the
    product basis, d_p = g_e m_S + g_n m_I, so a slope is sum_p |v_p|^2 d_p.
    """
    states = manifold_states(system, b_z)
    d = np.add.outer(system.g_e * (np.arange(system.dim_e) - system.s),
                     system.g_n * (np.arange(system.dim_n) - system.i)).ravel()
    return np.diff([np.abs(states[mi].vector) ** 2 @ d for mi in sorted(states)])
