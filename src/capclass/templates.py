"""Reference caps built from dependent-set templates over a fixed frame.

Every template lives in AG(7,2) over the frame a1..a8 embedded as
a1 -> 0 and ai -> unit vector e_{i-1} (bit i-2) for i = 2..8, so a
dependent point's mask is just the XOR of its listed generators and
stays human-auditable.  Template tables are data: each label maps to
the generator index lists of its dependents and the extended type
(dependent sizes, pair intersection sizes) its frame should have.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capset import Cap
from .decomp import ExtendedType
from .errors import UnknownLabelError
from .gf2 import Point, PointSet

FRAME_MASKS: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

_Deps = tuple[tuple[int, ...], ...]

# label -> (dependent generator lists, 1-based into a1..a8; dependent sizes; pair sizes)
_TEMPLATES: dict[str, tuple[_Deps, tuple[int, ...], tuple[int, ...]]] = {
    "INDEPENDENT8": ((), (), ()),
    "R5": (((1, 2, 3, 4, 5),), (5,), ()),
    "R7": (((1, 2, 3, 4, 5, 6, 7),), (7,), ()),
    "T10_75_4": (((1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 8)), (7, 5), (4,)),
    "T10_55_2": (((1, 2, 3, 4, 5), (4, 5, 6, 7, 8)), (5, 5), (2,)),
    "T10_55_3": (((1, 2, 3, 4, 5), (3, 4, 5, 6, 7)), (5, 5), (3,)),
    "T11_755_443": (((1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 8), (1, 2, 6, 7, 8)), (7, 5, 5), (4, 4, 3)),
    "T11_555_333": (((1, 2, 3, 4, 5), (3, 4, 5, 6, 7), (1, 3, 4, 6, 8)), (5, 5, 5), (3, 3, 3)),
    "T11_555_332": (((1, 2, 3, 4, 5), (3, 4, 5, 6, 7), (1, 2, 3, 7, 8)), (5, 5, 5), (3, 3, 2)),
    "T12_7555": (
        ((1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 8), (1, 2, 6, 7, 8), (1, 3, 5, 7, 8)),
        (7, 5, 5, 5), (4, 4, 4, 3, 3, 3),
    ),
    "T12_5555_233333": (
        ((1, 2, 3, 4, 5), (1, 2, 3, 7, 8), (3, 4, 5, 6, 7), (2, 3, 4, 6, 8)),
        (5, 5, 5, 5), (2, 3, 3, 3, 3, 3),
    ),
    "T12_5555_233332": (
        ((1, 2, 3, 4, 5), (1, 2, 3, 7, 8), (3, 4, 5, 6, 7), (2, 4, 6, 7, 8)),
        (5, 5, 5, 5), (2, 3, 3, 3, 3, 2),
    ),
}


@dataclass(frozen=True)
class TemplateId:
    """A known template label and the size of the cap it produces."""

    label: str
    size: int


TEMPLATES: tuple[TemplateId, ...] = tuple(
    TemplateId(label, len(FRAME_MASKS) + len(deps)) for label, (deps, _, _) in _TEMPLATES.items()
)

LABELS: tuple[str, ...] = tuple(t.label for t in TEMPLATES)


def _generator_mask(indices: tuple[int, ...], frame: tuple[int, ...]) -> int:
    acc = 0
    for i in indices:
        acc ^= frame[i - 1]
    return acc


def _over_frame(frame: tuple[int, ...], deps: _Deps) -> Cap:
    """The frame's points plus one dependent per generator list, in AG(len(frame) - 1, 2)."""
    return Cap(PointSet(len(frame) - 1, list(frame) + [_generator_mask(d, frame) for d in deps]))


def _frame_points(frame: tuple[int, ...]) -> tuple[Point, ...]:
    return tuple(Point(m, len(frame) - 1) for m in frame)


def _require_label(label: str) -> tuple[_Deps, tuple[int, ...], tuple[int, ...]]:
    try:
        return _TEMPLATES[label]
    except KeyError:
        raise UnknownLabelError(f"unknown template label {label!r}") from None


def instantiate(label: str) -> Cap:
    """Concrete cap in AG(7,2) for the given template label."""
    return _over_frame(FRAME_MASKS, _require_label(label)[0])


def generating_basis(label: str) -> tuple[Point, ...]:
    """The embedded frame a1..a8, the basis the template is written against."""
    _require_label(label)
    return _frame_points(FRAME_MASKS)


def expected_extended_type(label: str) -> ExtendedType:
    """Extended type the template's generating basis is supposed to have."""
    _, sizes, pairs = _require_label(label)
    return ExtendedType(sizes, pairs)


HIGHERDIM_FRAME_MASKS: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)

_HIGHERDIM_DEPENDENTS: tuple[_Deps, _Deps] = (
    ((1, 2, 3, 4, 5), (1, 2, 3, 6, 7), (1, 2, 3, 8, 9)),
    ((1, 2, 3, 4, 5), (1, 2, 3, 6, 7), (1, 2, 4, 6, 8)),
)


def higherdim_pair() -> tuple[Cap, Cap]:
    """Two 12-point caps of dimension 8 with equal extended types that are
    nevertheless not affinely equivalent: in the first, every frame point
    occurs in some dependence; in the second, the last one never does."""
    first, second = _HIGHERDIM_DEPENDENTS
    return _over_frame(HIGHERDIM_FRAME_MASKS, first), _over_frame(HIGHERDIM_FRAME_MASKS, second)


def higherdim_generating_basis() -> tuple[Point, ...]:
    return _frame_points(HIGHERDIM_FRAME_MASKS)
