import pytest

from capclass.capset import is_cap, is_complete
from capclass.decomp import ExtendedType, decompose, extended_type
from capclass.equivalence import _SIZE_LIMIT, are_equivalent
from capclass.errors import UnknownLabelError
from capclass.templates import (
    HIGHERDIM_FRAME_MASKS,
    LABELS,
    TEMPLATES,
    _over_frame,
    expected_extended_type,
    generating_basis,
    higherdim_generating_basis,
    higherdim_pair,
    instantiate,
)

# frozen instantiation values, worked out by hand from the frame embedding
# a1 -> 0, a_i -> 1 << (i-2)
EXPECTED_MASKS = {
    "INDEPENDENT8": {0, 1, 2, 4, 8, 16, 32, 64},
    "R5": {0, 1, 2, 4, 8, 16, 32, 64, 15},
    "R7": {0, 1, 2, 4, 8, 16, 32, 64, 63},
    "T10_75_4": {0, 1, 2, 4, 8, 16, 32, 64, 63, 124},
    "T10_55_2": {0, 1, 2, 4, 8, 16, 32, 64, 15, 124},
    "T10_55_3": {0, 1, 2, 4, 8, 16, 32, 64, 15, 62},
    "T11_755_443": {0, 1, 2, 4, 8, 16, 32, 64, 63, 124, 113},
    "T11_555_333": {0, 1, 2, 4, 8, 16, 32, 64, 15, 62, 86},
    "T11_555_332": {0, 1, 2, 4, 8, 16, 32, 64, 15, 62, 99},
    "T12_7555": {0, 1, 2, 4, 8, 16, 32, 64, 63, 124, 113, 106},
    "T12_5555_233333": {0, 1, 2, 4, 8, 16, 32, 64, 15, 99, 62, 87},
    "T12_5555_233332": {0, 1, 2, 4, 8, 16, 32, 64, 15, 99, 62, 117},
}


def test_registry_is_complete():
    assert len(TEMPLATES) == 12
    assert set(LABELS) == set(EXPECTED_MASKS)


@pytest.mark.parametrize("label", LABELS)
def test_instantiation_masks(label):
    assert set(instantiate(label).sorted_masks()) == EXPECTED_MASKS[label]


@pytest.mark.parametrize("tid", TEMPLATES, ids=lambda t: t.label)
def test_every_template_is_a_cap_of_the_stated_shape(tid):
    cap = instantiate(tid.label)
    assert cap.size == tid.size
    assert cap.dim == 7
    assert is_cap(cap.points)
    dec = decompose(cap, generating_basis(tid.label))
    assert extended_type(dec) == expected_extended_type(tid.label)


def test_unknown_label():
    with pytest.raises(UnknownLabelError):
        instantiate("BOGUS")
    with pytest.raises(UnknownLabelError):
        expected_extended_type("BOGUS")


class TestHigherdimPair:
    def test_masks(self):
        c1, c2 = higherdim_pair()
        assert c1.sorted_masks() == (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 128, 195)
        assert c2.sorted_masks() == (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 128)
        assert tuple(p.mask for p in higherdim_generating_basis()) == (0, 1, 2, 4, 8, 16, 32, 64, 128)
        assert {p.n for p in higherdim_generating_basis()} == {8}

    def test_both_are_caps_of_dimension_eight(self):
        c1, c2 = higherdim_pair()
        for c in (c1, c2):
            assert is_cap(c.points)
            assert c.dim == 8
            assert c.size == 12

    def test_shared_extended_type(self):
        c1, c2 = higherdim_pair()
        basis = higherdim_generating_basis()
        want = ExtendedType((5, 5, 5), (3, 3, 3))
        assert extended_type(decompose(c1, basis)) == want
        assert extended_type(decompose(c2, basis)) == want

    def test_not_equivalent(self):
        c1, c2 = higherdim_pair()
        assert not are_equivalent(c1, c2)

    def test_dependence_coverage_differs(self):
        # in the first cap every frame point occurs in some support; in the
        # second the last frame point occurs in none
        c1, c2 = higherdim_pair()
        basis = higherdim_generating_basis()
        union1 = union2 = 0
        for _, sup in decompose(c1, basis).dependents:
            union1 |= sup
        for _, sup in decompose(c2, basis).dependents:
            union2 |= sup
        assert union1.bit_count() == 9
        assert union2.bit_count() == 8


# the QR 18-cap of AG(8,2) (extended [17,9] quadratic-residue code) over the dim-8 frame
QR18_DEPENDENTS = (
    (1, 2, 3, 4, 7),
    (1, 2, 5, 6, 7),
    (1, 3, 4, 5, 8),
    (1, 3, 6, 7, 8),
    (2, 3, 4, 5, 9),
    (1, 4, 5, 6, 9),
    (1, 2, 3, 5, 6, 8, 9),
    (1, 4, 7, 8, 9),
    (2, 6, 7, 8, 9),
)


def test_qr_18_cap_is_complete_and_past_the_form_limit():
    # a complete cap larger than the canonical-form limit: why max_cap_size(8) cannot stop at 14
    cap = _over_frame(HIGHERDIM_FRAME_MASKS, QR18_DEPENDENTS)
    assert list(cap.sorted_masks()) == [
        0, 1, 2, 4, 8, 16, 32, 39, 57, 64, 78, 114, 128, 143, 156, 219, 228, 241
    ]
    assert cap.size == 18
    assert cap.dim == 8
    assert is_complete(cap)
    assert cap.size > _SIZE_LIMIT
