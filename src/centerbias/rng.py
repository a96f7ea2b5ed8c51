"""The seed tree: the one module that decides how random streams derive.

A stream is named (seed, purpose, *index) and built from numpy's
SeedSequence(seed, spawn_key=(purpose, *index)), so streams of different
names are independent and each can be re-derived alone: generation order
and worker counts never change results.  Indices are integers.

An experiment job names every stream under its repeat's seed,
derive(master_seed, REPEAT, rep), which is also its model's seed, its
training dataset's master seed and its evaluation seed.  The train policy
enters no name, so the arms of a repeat, the train policies of one config
(the center and edge rows of `centerbias asymmetry` among them), share
initial weights, glyph sequence, backgrounds and evaluation inputs, and
differ only in placement.  The same rule pairs the bands of one
evaluation: they share one dataset seed, so sample i has the same digit and
background in every band.  No placement policy enters a stream name.
"""

import operator

import numpy as np

# purposes and the indices each takes; saved results depend on the numbers
REPEAT = 0         # rep: the seed of one repeat of an experiment
SAMPLE = 1         # i: glyph and placement of dataset sample i
BACKGROUND = 2     # i: background of sample i; none for a saliency canvas
MODEL_INIT = 3     # none: initial weights, from UNetConfig.seed
EPOCH_ORDER = 4    # epoch: order of the training samples
AUGMENT = 5        # epoch, i: augmentation of training sample i; none
#                    for the `centerbias augment` probe
EVAL_SAMPLES = 7   # none: the dataset seed of every band of an evaluation
# 6 and 8 are retired (random padding's streams); a new purpose takes 9


def _node(seed: int, purpose: int, index) -> np.random.SeedSequence:
    key = [operator.index(i) for i in index]  # TypeError for a non-integer
    return np.random.SeedSequence(seed, spawn_key=(purpose, *key))


def stream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """The PCG64 generator named (seed, purpose, *index)."""
    return np.random.Generator(np.random.PCG64(_node(seed, purpose, index)))


def derive(seed: int, purpose: int, *index: int) -> int:
    """The 64-bit seed named (seed, purpose, *index), for a record that
    carries its own seed (a dataset's master_seed, a model's seed)."""
    return int(_node(seed, purpose, index).generate_state(1, np.uint64)[0])
