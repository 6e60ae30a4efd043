import re
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from paveplan.model import ZERO, Segment
from paveplan.synth import synthesize_dataset


# over a 60-year span, 1.25**60 and 0.8**-60 are below 10**6, so each cost
# of a 5,000.00-15,000.00 base stays at least a cent and below 10**18
GROWTH_RATES = st.just(0.0) | st.floats(-0.2, 0.25)


@settings(max_examples=80, deadline=None)
@given(
    extra=st.integers(0, 12),
    blobs=st.integers(1, 4),
    years=st.lists(st.integers(2000, 2060), min_size=1, max_size=6, unique=True).map(sorted),
    seed=st.integers(0, 2**32),
    fraction=st.floats(0, 2),
    growth_rate=GROWTH_RATES,
)
def test_each_segment_is_the_one_segment_would_build(
    extra, blobs, years, seed, fraction, growth_rate
):
    # synth builds each segment unchecked; the checking constructor agrees
    n = max(blobs, len(years)) + extra
    segments, schedule = synthesize_dataset(
        n, blobs, years, seed, growth_rate=growth_rate, tolerance_fraction=fraction
    )
    assert len(segments) == n
    sums = dict.fromkeys(years, ZERO)
    for seg in segments:
        rebuilt = Segment(seg.id, seg.coords, dict(seg.cost_by_year), seg.scheduled_year)
        assert seg == rebuilt
        assert type(seg.scheduled_year) is int
        assert all(type(c) is float for c in seg.coords)
        assert tuple(seg.cost_by_year) == tuple(years)
        assert all(cost.as_tuple().exponent == -2 for cost in seg.cost_by_year.values())
        sums[seg.scheduled_year] += seg.base_cost()
    assert [(e.year, e.budget) for e in schedule.entries] == list(sums.items())
    assert all(e.budget.as_tuple().exponent == -2 for e in schedule.entries)


def test_refuses_a_dataset_it_cannot_deal(monkeypatch):
    monkeypatch.setattr(Segment, "_trusted", None)  # building a segment fails the test
    with pytest.raises(ValueError, match="^need n >= blobs >= 1$"):
        synthesize_dataset(2, 3, (2018,), 1)
    with pytest.raises(ValueError, match="^need at least one year$"):
        synthesize_dataset(2, 1, (), 1)
    for years in [2019, 2018], [2018, 2018]:
        refusal = f"schedule years must be strictly increasing, got {years}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            synthesize_dataset(20, 1, years, 1)


class _UnreadableYears(Sequence):
    """A billion years, none of which may be read."""

    def __len__(self):
        return 10**9

    def __getitem__(self, index):
        raise AssertionError("a year was read")

    def __iter__(self):
        raise AssertionError("the years were iterated")


def test_refuses_more_years_than_projects_before_reading_one():
    with pytest.raises(ValueError, match="^auto-sized budgets need at least one project per year$"):
        synthesize_dataset(5, 1, _UnreadableYears(), 1)
