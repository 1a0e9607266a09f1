"""Every result type that holds arrays: read-only arrays, compared by identity."""

import numpy as np
import pytest

from goldbachkit import arc_classify, build_mangoldt, bundled_zeros, gk_fft, mangoldt, sk_prefix

BUILDERS = {
    "MangoldtTable": lambda: build_mangoldt(100),
    "GoldbachTable": lambda: gk_fft(build_mangoldt(100), 2, 100),
    "PrefixSums": lambda: sk_prefix(gk_fft(build_mangoldt(100), 2, 100)),
    "ZeroTable": bundled_zeros,
    "ArcClassification": lambda: arc_classify(100, 2, 0.5),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_result_compares_and_hashes_by_identity(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert type(first).__name__ == name
    assert first == first
    assert first != second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_result_arrays_are_read_only(name):
    result = BUILDERS[name]()
    arrays = [value for value in vars(result).values() if isinstance(value, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_every_array_result_keeps_identity_equality():
    # each subclass repeats eq=False in its own decorator; a dropped one
    # would generate a field-by-field == that raises on the arrays
    subclasses = mangoldt.ArrayResult.__subclasses__()
    assert sorted(cls.__name__ for cls in subclasses) == sorted(BUILDERS)
    for cls in subclasses:
        assert cls.__eq__ is object.__eq__, cls.__name__
        assert cls.__hash__ is object.__hash__, cls.__name__
