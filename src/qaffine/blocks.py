"""The Gram matrix check, the lattice coordinates, and block labels.

The main theorem machinery: pairing the s-functions of the phi_Q images of
the simple roots must reproduce the Cartan matrix of the associated
simply-laced type.  Then s_{phi_Q(beta)} -> beta is an isometry onto the
root lattice, and with s_{D p} = -s_p every point of sigma_0 has known
coordinates: beta at phi_Q(beta), -beta at its dual translate
(`qdata.root_coords`).  So `psi_lattice` solves nothing: it sums those of
the generators and verifies the sum.  Block labels are such coordinates
listed per connected component.

The check is one integer identity (Kronecker substitution), not a dict
re-expansion.  Each of the 2 |Delta+| keys of `root_coords` gets its own
slot of w bits, numbered as `root_coords` builds the keys, and a function g
packs to the int pack(g) = sum of g(k) 2^(w slot(k)).  If every value of g
lies strictly within +-2^(w-1), its values are the digits of a balanced
base-2^w expansion of pack(g), which are unique; so for f and coordinates c,

    f = sum_i c_i s_{phi_Q(alpha_i)}  iff  pack(f) = sum_i c_i P_i,

with P_i the pack of s_{phi_Q(alpha_i)}, whenever w bounds both sides.  The
values of f are bounded by max |f| and those of the sum by
sum_i |c_i| max |s_{phi_Q(alpha_i)}|, so each call takes the least w of 16,
32, 64, ... bits with both below 2^(w-1).  P_i and max |s_{phi_Q(alpha_i)}|
are kept in the lattice table (`qdata.Lattice`), per simple root and width,
and built only for c_i != 0, so the check builds no s-function or template
that the re-expansion did not; a call costs O(|f|) plus one big-int
multiply-add per nonzero c_i.  A key of f with no slot puts f outside W0
(NotInW0); a key of some s_{phi_Q(alpha_i)} with none is a library bug
(InvariantViolation).  A slot is written as its value plus the bias 2^(w-1),
an unsigned w-bit digit, into a copy of a template of biases (through a
typed view up to 64 bits, as bytes beyond), and the template's own pack,
`base`, is added to the right-hand side.  The dict re-expansion is kept in
the tests as the oracle.

`block_label` sums per-generator coordinates as well.  Each generator g,
moved into the component of sigma_Q, is passed through `psi_lattice` once
and its coordinates kept in the memo of q's lattice table for d under the
`_key` of g; s_g depends on g only through that key, so the memo holds at
most |I0| * 24 * 12 hvee entries.  Every generator lies in W0 (criterion 12
of `acceptance` checks every point of sigma_Q and of its dual translate), so
a generator that fails its check is a library bug: InvariantViolation.

A weight is read as its ints (node, phase, e).  `block_label` checks the
node, takes its component class by `affine.class_of` and its moved key by
`invariants._key`, all in int arithmetic, and looks the key up in the memo.
Only a miss builds the moved SigmaPoint, which `psi_lattice` verifies by the
packed identity before its coordinates enter the memo; a SpectralScalar is
built once per component, to sort and print it.
"""

from __future__ import annotations

from sys import byteorder
from typing import NamedTuple

from .affine import AffineData, class_of, component_class
from .invariants import SigmaFunction, _as_gens, _key, pairing, s_func, sigma_point
from .qcartan import QDatum, default_qdatum
from .qdata import lattice_table, root_coords, sigma_q_points, simple_root_points, translate_star
from .scalars import InvariantViolation, QAffineError, SpectralScalar, order_key, print_scalar

Matrix = tuple[tuple[int, ...], ...]

# slot size in bytes -> the format of a native unsigned int of that size
_SLOT_FORMATS = {2: "H", 4: "I", 8: "Q"}


class NotInW0(QAffineError):
    """The function is not an integer combination of the lattice basis."""


class GramResult(NamedTuple):
    type_string: str
    matrix: Matrix
    expected: Matrix
    mismatches: tuple[tuple[int, int], ...]

    @property
    def equal(self) -> bool:
        return not self.mismatches


def gram(d: AffineData, q: QDatum | None = None) -> GramResult:
    """The matrix (s_{phi(alpha_i)}, s_{phi(alpha_j)}) against Cartan(gfin)."""
    q = q or default_qdatum(d)
    pts = simple_root_points(q, d)
    r = len(pts)
    matrix = tuple(tuple(pairing(d, pts[i], pts[j]) for j in range(r)) for i in range(r))
    expected = d.gfin.cartan
    mismatches = tuple(
        (i + 1, j + 1) for i in range(r) for j in range(r) if matrix[i][j] != expected[i][j]
    )
    return GramResult(str(d), matrix, expected, mismatches)


def psi_lattice(d: AffineData, q: QDatum | None, f: SigmaFunction) -> tuple[int, ...]:
    """Sum of c * `root_coords` over f's generators c * s_p (0 off sigma_0), verified by the packed identity."""
    q = q or default_qdatum(d)
    lattice = lattice_table(q, d)  # one weak lookup; a part still unbuilt is built by its reader
    table = lattice.coords or root_coords(q, d)
    slots, peaks, widths = lattice.slots, lattice.peaks, lattice.widths
    coords = [0] * q.rs.rank
    for p, c in _as_gens(f):
        d.check_node(p.node)
        beta = table.get(_key(d, p.node, *p.param))
        if beta:
            coords = [a + c * b for a, b in zip(coords, beta)]
    used = [(i, c) for i, c in enumerate(coords) if c]
    for i, _ in used:
        if i not in peaks:
            peaks[i] = max(map(abs, s_func(d, simple_root_points(q, d)[i]).vals), default=0)
    bound = max(max(map(abs, f.vals), default=0), sum(abs(c) * peaks[i] for i, c in used))
    size = 2  # bytes per slot: the least of 2, 4, 8, ... with bound < 2^(8 size - 1)
    while bound >> 8 * size - 1:
        size *= 2
    if size not in widths:  # every slot holds the bias; base is that template packed
        template = (1 << 8 * size - 1).to_bytes(size, byteorder) * len(slots)
        widths[size] = template, int.from_bytes(template, byteorder), {}
    template, base, packed = widths[size]
    expansion = base
    for i, c in used:
        if i not in packed:
            g = s_func(d, simple_root_points(q, d)[i])
            try:
                packed[i] = _pack(slots, template, size, g.keys, g.vals) - base
            except KeyError as exc:
                raise InvariantViolation(f"s-function of simple root {i + 1} of {d} leaves sigma_0") from exc
        expansion += c * packed[i]
    try:
        if _pack(slots, template, size, f.keys, f.vals) == expansion:
            return tuple(coords)
    except KeyError:  # a key of f off sigma_0
        pass
    raise NotInW0("re-expansion of the solved coordinates does not reproduce the function")


def _pack(slots: dict[int, int], template: bytes, size: int, keys, vals) -> int:
    """base + the sum of v * 2^(8 size slots[k]) over the entries (k, v); KeyError for a key with no slot."""
    buf, bias = bytearray(template), 1 << 8 * size - 1
    if size in _SLOT_FORMATS:  # a slot is one native unsigned int: write it through a cast view
        view = memoryview(buf).cast(_SLOT_FORMATS[size])
        for k, v in zip(keys, vals):
            view[slots[k]] = v + bias  # an unsigned digit (see the module docstring)
    else:
        for k, v in zip(keys, vals):
            at = slots[k] * size
            buf[at:at + size] = (v + bias).to_bytes(size, byteorder)
    return int.from_bytes(buf, byteorder)


class BlockLabel(NamedTuple):
    """Per-component lattice coordinates; zero components are dropped."""

    components: tuple[tuple[str, tuple[int, ...]], ...]


def block_label(d: AffineData, q: QDatum, weights) -> BlockLabel:
    """Group the affine weight by component and sum coordinates per group.

    Each parameter is classified once into its translate of the reference
    component and moved by the translation into q's home, the component of
    sigma_Q: sigma_Z unless q is a height function of the other parity (the
    pairing is shift-equivariant, so coordinates are independent of that
    choice).  A group's coordinates are the sum of its generators', read from
    the memo by int keys (see the module docstring).
    """
    q = q or default_qdatum(d)
    lattice = lattice_table(q, d)
    if lattice.home is None:
        lattice.home = component_class(d, *simple_root_points(q, d)[0])
    home_phase, home_e = lattice.home
    memo = lattice.memo
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for node, (phase, e) in weights:
        d.check_node(node)
        cls = class_of(d, node, phase, e)
        moved = phase + home_phase - cls[0], e + home_e - cls[1]  # (node, z24^phase q^(e/6) home / cls)
        coords = memo.get(key := _key(d, node, *moved))
        if coords is None:  # psi_lattice of the generator's s-function, verified once and kept
            p = sigma_point(d, node, SpectralScalar(moved[0] % 24, moved[1]))
            try:
                coords = memo[key] = psi_lattice(d, q, s_func(d, p))
            except NotInW0 as exc:
                raise InvariantViolation(f"generator {p} of {d} is not in W0: {exc}") from exc
        groups.setdefault(cls, []).append(coords)
    components = []
    for cls in sorted(map(SpectralScalar._make, groups), key=order_key):
        coords = tuple(map(sum, zip(*groups[cls])))
        if any(coords):
            components.append((print_scalar(cls), coords))
    return BlockLabel(tuple(components))


def partition_blocks(d: AffineData, q: QDatum, modules) -> list[tuple[BlockLabel, list]]:
    """Group affine-weight lists by equality of their block labels."""
    q = q or default_qdatum(d)
    groups: dict[BlockLabel, list] = {}
    for module in modules:
        groups.setdefault(block_label(d, q, module), []).append(module)
    return list(groups.items())


def delta0(d: AffineData, q: QDatum | None = None) -> list[SigmaFunction]:
    """The root set: the s-functions over sigma_Q and its first dual translate, in point order,
    distinct by the theorem (criterion 9 of `acceptance` checks it), so none is dropped."""
    q = q or default_qdatum(d)
    pts = sigma_q_points(d, q)
    return [s_func(d, p) for p in sorted(pts | translate_star(d, pts, 1))]
