import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from paveplan.io_formats import emit_budgets_csv, emit_cost_matrix_csv, emit_segments_csv
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


def test_refuses_a_dataset_it_cannot_deal():
    with pytest.raises(ValueError, match="^need n >= blobs >= 1$"):
        synthesize_dataset(2, 3, (2018,), 1)
    with pytest.raises(ValueError, match="^need at least one year$"):
        synthesize_dataset(2, 1, (), 1)


# the README quick-start dataset (n 800, 5 blobs, 2018:2022, seed 7, fraction
# 0.05) as each writer writes it, flat and compounded by 5% a year
QUICK_START_CSV = {
    0.0: {
        "segments": "a2810b9663f8e81c2403c34bfe5d8871306fa690d9aedd0d1eb8416f81761175",
        "budgets": "25cd3077b337deded16d59ba846c3705f58480c58777cec41246f7c6b640b407",
        "matrix": "72f99766e90e60ac158d4592d5a48b223fcbef69c10506d0ad31cdb35e7b2a28",
    },
    0.05: {
        "segments": "a2810b9663f8e81c2403c34bfe5d8871306fa690d9aedd0d1eb8416f81761175",
        "budgets": "25cd3077b337deded16d59ba846c3705f58480c58777cec41246f7c6b640b407",
        "matrix": "af8d439f962635abfba5f52f4e885971fded124b5efb8c1f9bf0587321310aa1",
    },
}


@pytest.mark.parametrize("growth_rate", QUICK_START_CSV, ids=["flat", "growth"])
def test_quick_start_csv_bytes(growth_rate):
    years = range(2018, 2023)
    segments, schedule = synthesize_dataset(
        800, 5, years, 7, growth_rate=growth_rate, tolerance_fraction=0.05
    )
    texts = {
        "segments": emit_segments_csv(segments),
        "budgets": emit_budgets_csv(schedule),
        "matrix": emit_cost_matrix_csv(segments, years),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == QUICK_START_CSV[growth_rate]
