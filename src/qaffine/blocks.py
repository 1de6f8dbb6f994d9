"""The Gram matrix check, the lattice coordinates, and block labels.

The main theorem machinery: pairing the s-functions of the phi_Q images of
the simple roots must reproduce the Cartan matrix of the associated
simply-laced type.  Once that holds, every Z-combination of s-generators
has well-defined integer coordinates in the simple-root basis, and block
labels are those coordinates listed per connected component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineData, component_class, in_sigma_z
from .invariants import Key, SigmaFunction, SigmaPoint, e_of, pairing, s_func, sigma_point
from .qdata import QDatum, default_qdatum, sigma_q_points, simple_root_points, translate_star
from .roots import FinWeight, NotInRootLattice
from .scalars import QAffineError, SpectralScalar, order_key, print_scalar

Matrix = tuple[tuple[int, ...], ...]


class NotInW0(QAffineError):
    """The function is not an integer combination of the lattice basis."""


class UnclassifiablePoint(QAffineError):
    """A parameter fits no translate of the reference component.

    Unreachable for scalars inside the z24 * q^(Q/6) domain of the
    supported families; kept as a guard on the classification tables.
    """


@dataclass(frozen=True)
class GramResult:
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
    """Coordinates n with sum n_i s_{phi(alpha_i)} = f, verified by re-expansion."""
    pts = simple_root_points(q, d)
    try:
        coords = d.gfin.weight_to_root(FinWeight(tuple(pairing(d, p, f) for p in pts)))
    except NotInRootLattice as exc:
        raise NotInW0(f"coordinate solve is non-integral: {exc}") from exc
    check: dict[Key, int] = {}
    for p, c in zip(pts, coords):
        if c:
            for k, v in s_func(d, p).keyed:
                check[k] = check.get(k, 0) + c * v
    if {k: v for k, v in check.items() if v} != dict(f.keyed):
        raise NotInW0("re-expansion of the solved coordinates does not reproduce the function")
    return coords


@dataclass(frozen=True)
class BlockLabel:
    """Per-component lattice coordinates; zero components are dropped."""

    components: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def is_trivial(self) -> bool:
        return not self.components


def block_label(d: AffineData, q: QDatum, weights) -> BlockLabel:
    """Group the affine weight by component and solve coordinates per group.

    Each parameter is classified into its translate of the reference
    component; the group is pulled back by the translation (the pairing is
    shift-equivariant, so coordinates are independent of that choice).
    """
    q = q or default_qdatum(d)
    groups: dict[SpectralScalar, list[SigmaPoint]] = {}
    for p in weights:
        cls = component_class(d, p.node, p.param)
        if not in_sigma_z(d, p.node, p.param / cls):
            raise UnclassifiablePoint(f"{p} does not land in sigma_Z under its solved translate")
        groups.setdefault(cls, []).append(p)
    components = []
    for cls in sorted(groups, key=order_key):
        translated = [sigma_point(d, p.node, p.param / cls) for p in groups[cls]]
        coords = psi_lattice(d, q, e_of(d, translated))
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
