import pytest

from cea.algebra import AtomSpace, MismatchedSpaceError, material_implies
from cea.verify import implication_identity_suite, ring_lattice_suite, sum_parity_resolution


@pytest.fixture
def space3():
    return AtomSpace(3)


def test_space_validation():
    with pytest.raises(ValueError):
        AtomSpace(0)
    with pytest.raises(ValueError):
        AtomSpace(2, ["x"])
    with pytest.raises(ValueError):
        AtomSpace(2, ["x", "x"])
    s = AtomSpace(2, ["x", "y"])
    assert s.atom_labels.index("y") == 1


def test_event_basic_ops(space3):
    a = space3.event([0, 1])
    b = space3.event([1, 2])
    assert (a & b) == space3.event([1])
    assert (a | b) == space3.event([0, 1, 2])
    assert (a ^ b) == space3.event([0, 2])
    assert ~space3.event([0]) == space3.event([1, 2])
    assert space3.zero.mask == 0 and space3.one.is_one


def test_event_order(space3):
    assert space3.event([0]) <= space3.event([0, 1])
    assert not space3.event([0, 2]) <= space3.event([0, 1])
    for x in space3.events():
        assert space3.zero <= x


def test_material_implies_examples(space3):
    # atomwise: an atom satisfies b => a iff it misses b or hits a
    b = space3.event([0, 1])
    a = space3.event([0])
    assert material_implies(b, a) == space3.event([0, 2])
    assert material_implies(space3.one, a) == a
    assert material_implies(space3.zero, a) == space3.one


def test_mismatched_space_rejected(space3):
    other = AtomSpace(3, ["p", "q", "r"])
    with pytest.raises(MismatchedSpaceError):
        space3.event([0]) & other.event([1])
    with pytest.raises(MismatchedSpaceError):
        space3.event([0]) <= other.event([1])


def test_same_labels_interoperate():
    s1 = AtomSpace(2, ["x", "y"])
    s2 = AtomSpace(2, ["x", "y"])
    assert s1.event([0]) == s2.event([0])
    assert (s1.event([0]) | s2.event([1])).is_one


def test_event_enumeration_order(space3):
    masks = [e.mask for e in space3.events()]
    assert masks == list(range(8))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ring_and_lattice_laws(n):
    for result in ring_lattice_suite(AtomSpace(n)):
        assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("n", [2, 3])
def test_implication_identities(n):
    for result in implication_identity_suite(AtomSpace(n)):
        assert result.passed, f"{result.name}: {result.detail}"


def test_sum_parity_resolution_is_unambiguous():
    # odd-arity sums of shared-antecedent implications collapse to one
    # implication; even-arity sums drop the antecedent's complement
    resolution = sum_parity_resolution(AtomSpace(2))
    assert resolution == {
        "odd": "implication_of_sum",
        "even": "sum_restricted_to_antecedent",
    }


def test_atoms_and_cardinality(space3):
    e = space3.event([0, 2])
    assert e.atoms() == [0, 2]
    assert e.mask.bit_count() == 2
    assert 0 in e and 1 not in e
