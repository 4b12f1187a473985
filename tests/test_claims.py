import argparse
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "claims", Path(__file__).resolve().parent.parent / "tools" / "claims.py")
claims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(claims)


def _seed(full, obj_interact, lw, dvsa, lw5, lw20, dvsa5, dvsa20):
    return {"full": full, "obj-interact": obj_interact, "loss-weight": lw, "dvsa": dvsa,
            "loss-weight T=5": lw5, "loss-weight T=20": lw20,
            "dvsa T=5": dvsa5, "dvsa T=20": dvsa20}


# per seed: full - loss-weight is 0.125, -0.125, 0.375; obj-interact ties
# loss-weight; loss-weight - dvsa is 0.5; dvsa drop - loss-weight drop is
# 0.25, 0.25, -0.5
FIXED = [_seed(0.625, 0.5, 0.5, 0.0, 0.5, 0.5, 0.75, 0.5),
         _seed(0.375, 0.5, 0.5, 0.0, 0.5, 0.5, 0.75, 0.5),
         _seed(0.875, 0.5, 0.5, 0.0, 0.75, 0.5, 0.5, 0.75)]


def test_claims_summary_on_a_fixed_input():
    summary = claims.summarize(FIXED)
    assert list(summary) == list(claims.CLAIMS)
    full = summary["full - loss-weight"]
    assert (full["mean"], full["median"], full["wins"], full["n"]) == (0.125, 0.125, 2, 3)
    assert -0.125 <= full["ci_low"] < full["mean"] < full["ci_high"] <= 0.375
    # ties win nothing, and a constant difference has a point interval
    tie = summary["obj-interact - loss-weight"]
    assert (tie["mean"], tie["wins"], tie["ci_low"], tie["ci_high"]) == (0.0, 0, 0.0, 0.0)
    gap = summary["loss-weight - dvsa"]
    assert (gap["wins"], gap["ci_low"], gap["ci_high"]) == (3, 0.5, 0.5)
    drop = summary["dvsa drop - loss-weight drop"]
    assert (drop["mean"], drop["median"], drop["wins"]) == (0.0, 0.25, 2)
    # the bootstrap seed is fixed, so a second summary is the same
    assert claims.summarize(FIXED) == summary


@pytest.mark.parametrize("text, seeds", [("0-19", range(0, 20)), ("0-0", range(0, 1)),
                                         ("7", range(7, 8))])
def test_claims_seed_range(text, seeds):
    assert claims.seed_range(text) == seeds


@pytest.mark.parametrize("text, error", [("5-2", argparse.ArgumentTypeError),
                                         ("-1", ValueError)])
def test_claims_seed_range_refuses_an_empty_or_negative_range(text, error):
    # argparse reports either as an invalid --seeds value
    with pytest.raises(error):
        claims.seed_range(text)
