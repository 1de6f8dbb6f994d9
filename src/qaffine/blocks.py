"""The Gram matrix check, the lattice coordinates, and block labels.

The main theorem machinery: pairing the s-functions of the phi_Q images of
the simple roots must reproduce the Cartan matrix of the associated
simply-laced type.  Then s_{phi_Q(beta)} -> beta is an isometry onto the
root lattice, and with s_{D p} = -s_p every point of sigma_0 has known
coordinates: beta at phi_Q(beta), -beta at its dual translate
(`qdata.root_coords`).  So `psi_lattice` solves nothing: it sums those of
the generators and verifies the sum by re-expansion.  Block labels are
such coordinates listed per connected component.

`block_label` sums per-generator coordinates as well.  Each generator g is
passed through `psi_lattice` once and its coordinates kept in the Q-datum's
lattice table (`qdata.lattice_table`) under the `_key` of g; s_g depends on
g only through that key, so the memo holds at most |I0| * 24 * 12 hvee
entries.  Every generator lies in W0 (criterion 12 of `acceptance` checks
every point of sigma_Q and of its dual translate), so a generator that
fails its check is a library bug and raises InvariantViolation.
"""

from __future__ import annotations

from typing import NamedTuple

from .affine import AffineData, component_class
from .invariants import SigmaFunction, SigmaPoint, _as_gens, _key, pairing, s_func, sigma_point
from .qcartan import QDatum, default_qdatum
from .qdata import lattice_table, root_coords, sigma_q_points, simple_root_points, translate_star
from .scalars import InvariantViolation, QAffineError, SpectralScalar, order_key, print_scalar

Matrix = tuple[tuple[int, ...], ...]


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


def psi_lattice(d: AffineData, q: QDatum, f: SigmaFunction) -> tuple[int, ...]:
    """Sum of c * `root_coords` over f's generators c * s_p (0 off sigma_0), verified by re-expansion."""
    pts, table = simple_root_points(q, d), root_coords(q, d)
    coords = [0] * len(pts)
    for p, c in _as_gens(f):
        d.check_node(p.node)
        beta = table.get(_key(d, p.node, *p.param))
        if beta:
            coords = [a + c * b for a, b in zip(coords, beta)]
    check: dict[int, int] = {}
    for p, c in zip(pts, coords):
        if c:
            g = s_func(d, p)
            for k, v in zip(g.keys, g.vals):
                check[k] = check.get(k, 0) + c * v
    if {k: v for k, v in check.items() if v} != dict(zip(f.keys, f.vals)):
        raise NotInW0("re-expansion of the solved coordinates does not reproduce the function")
    return tuple(coords)


def _generator_coords(d: AffineData, q: QDatum, p: SigmaPoint) -> tuple[int, ...]:
    """psi_lattice of s_p from q's lattice table, verified on first use."""
    memo = lattice_table(q, d)[1]
    key = _key(d, p.node, *p.param)
    coords = memo.get(key)
    if coords is None:
        try:
            coords = memo[key] = psi_lattice(d, q, s_func(d, p))
        except NotInW0 as exc:
            raise InvariantViolation(f"generator {p} of {d} is not in W0: {exc}") from exc
    return coords


class BlockLabel(NamedTuple):
    """Per-component lattice coordinates; zero components are dropped."""

    components: tuple[tuple[str, tuple[int, ...]], ...]


def block_label(d: AffineData, q: QDatum, weights) -> BlockLabel:
    """Group the affine weight by component and sum coordinates per group.

    Each parameter is classified once into its translate of the reference
    component and pulled back by the translation into sigma_Z (the pairing
    is shift-equivariant, so coordinates are independent of that choice).  The
    coordinates of a group are the sum of its generators' (see the module
    docstring).
    """
    q = q or default_qdatum(d)
    groups: dict[SpectralScalar, list[SigmaPoint]] = {}
    for p in weights:
        cls = component_class(d, p.node, p.param)
        groups.setdefault(cls, []).append(sigma_point(d, p.node, p.param / cls))
    components = []
    for cls in sorted(groups, key=order_key):
        coords = tuple(map(sum, zip(*(_generator_coords(d, q, p) for p in groups[cls]))))
        if any(coords):
            components.append((print_scalar(cls), coords))
    return BlockLabel(tuple(components))


def partition_blocks(d: AffineData, q: QDatum, modules) -> list[tuple[BlockLabel, list]]:
    """Group affine-weight lists by equality of their block labels."""
    q = q or default_qdatum(d)
    out: list[tuple[BlockLabel, list]] = []
    index: dict[BlockLabel, int] = {}
    for module in modules:
        label = block_label(d, q, module)
        if label not in index:
            index[label] = len(out)
            out.append((label, []))
        out[index[label]][1].append(module)
    return out


def delta0(d: AffineData, q: QDatum | None = None) -> list[SigmaFunction]:
    """The root set: distinct s-functions over sigma_Q and its first dual translate."""
    q = q or default_qdatum(d)
    pts = sigma_q_points(d, q)
    seen: dict[SigmaFunction, SigmaPoint] = {}
    for p in sorted(pts | translate_star(d, pts, 1)):
        f = s_func(d, p)
        seen.setdefault(f, p)
    return list(seen)
