import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbachkit.accum import running_prefix


def neumaier_loop(values):
    """Sequential Neumaier running sums, one scalar step per entry."""
    hi = np.empty(len(values))
    lo = np.empty(len(values))
    s = 0.0
    c = 0.0
    for i, v in enumerate(values.tolist()):
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
        hi[i] = s
        lo[i] = c
    return hi, lo


# bounded by 1e300, so no running sum of 2000 terms can overflow
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def _summands(draw):
    head = draw(st.lists(_entries, max_size=1000))
    if draw(st.booleans()):
        head += [-x for x in reversed(head)]  # cancels back to zero
    return np.array(head, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(_summands())
def test_running_prefix_matches_loop_bytes(values):
    hi, lo = running_prefix(values)
    ref_hi, ref_lo = neumaier_loop(values)
    assert hi.tobytes() == ref_hi.tobytes()
    assert lo.tobytes() == ref_lo.tobytes()


def test_running_prefix_leading_negative_zero():
    for values in ([-0.0], [-0.0, 2.5], [-0.0, -0.0, -0.0, 1.0]):
        hi, lo = running_prefix(np.array(values))
        ref_hi, ref_lo = neumaier_loop(np.array(values))
        assert not np.signbit(hi[0]) and hi[0] == 0.0
        assert hi.tobytes() == ref_hi.tobytes()
        assert lo.tobytes() == ref_lo.tobytes()
