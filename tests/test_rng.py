"""The seed tree's purpose numbers and how a stream is named."""

import numpy as np
import pytest

from centerbias import rng

# Saved results (datasets, initial weights, evaluation rows) name their
# streams by these numbers: renumbering a purpose changes every result it
# feeds.  6 and 8 belonged to retired purposes and stay unused.
PURPOSES = {"REPEAT": 0, "SAMPLE": 1, "BACKGROUND": 2, "MODEL_INIT": 3,
            "EPOCH_ORDER": 4, "AUGMENT": 5, "EVAL_SAMPLES": 7}


@pytest.mark.parametrize("name, number", PURPOSES.items(), ids=list(PURPOSES))
def test_purpose_number_is_pinned(name, number):
    assert getattr(rng, name) == number


def test_every_purpose_is_pinned_and_retired_numbers_stay_free():
    purposes = {k: v for k, v in vars(rng).items()
                if k.isupper() and isinstance(v, int)}
    assert purposes == PURPOSES
    assert not {6, 8} & set(purposes.values())


def test_indices_are_integers():
    # no placement policy names a stream: a label is not an index
    with pytest.raises(TypeError):
        rng.stream(3, rng.EVAL_SAMPLES, "band:0-0.1")
    with pytest.raises(TypeError):
        rng.derive(3, rng.SAMPLE, 1.0)
    a = rng.stream(3, rng.SAMPLE, np.int64(5)).random(4)
    b = rng.stream(3, rng.SAMPLE, 5).random(4)
    assert a.tobytes() == b.tobytes()
