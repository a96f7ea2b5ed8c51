"""The seed tree's purpose numbers and how a stream is named."""

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


def test_string_index_enters_as_its_utf8_integer():
    label = "band:0-0.1"
    as_int = int.from_bytes(label.encode(), "big")
    assert rng.derive(3, rng.EVAL_SAMPLES, label) == \
        rng.derive(3, rng.EVAL_SAMPLES, as_int)
    a = rng.stream(3, rng.EVAL_SAMPLES, label).random(4)
    b = rng.stream(3, rng.EVAL_SAMPLES, as_int).random(4)
    assert a.tobytes() == b.tobytes()
    assert rng.derive(3, rng.EVAL_SAMPLES, "band:0.9-1") != \
        rng.derive(3, rng.EVAL_SAMPLES, label)
