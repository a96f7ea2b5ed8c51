"""U-Net construction, training-step, determinism, and checkpoint oracles."""

import hashlib
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from centerbias import data, saliency, unet
from centerbias import tensor_core as tc


def small_config(**kw):
    base = dict(depth=2, base_channels=4, padding=tc.ZERO, seed=5)
    base.update(kw)
    return unet.UNetConfig(**base)


class TestBuild:
    def test_depth_one_is_two_convs_plus_head(self):
        model = unet.build_unet(unet.UNetConfig(depth=1, base_channels=4))
        assert len(model.layers()) == 3
        assert model.decoder == []

    def test_logit_shape_contract(self):
        # a (classes, n, h + 2, w + 2) frame
        model = unet.build_unet(unet.UNetConfig())
        x = np.zeros((2, 1, 64, 96), dtype=np.float32)
        logits, _ = unet.forward(model, x)
        assert logits.shape == (11, 2, 66, 98)

    def test_equal_seeds_bit_identical(self):
        a = unet.build_unet(unet.UNetConfig(seed=9))
        b = unet.build_unet(unet.UNetConfig(seed=9))
        np.testing.assert_array_equal(a.flat_params, b.flat_params)
        c = unet.build_unet(unet.UNetConfig(seed=10))
        assert not np.array_equal(a.flat_params, c.flat_params)

    def test_param_count_formula_matches_enumeration(self):
        for cfg in (unet.UNetConfig(), small_config(),
                    unet.UNetConfig(depth=1, base_channels=3),
                    unet.UNetConfig(depth=4, base_channels=2)):
            model = unet.build_unet(cfg)
            actual = sum(p.size for p in model.parameters())
            assert unet.param_count(cfg) == actual

    def test_indivisible_dims_rejected_at_forward(self):
        model = unet.build_unet(unet.UNetConfig(depth=3))
        with pytest.raises(ValueError):
            unet.forward(model, np.zeros((1, 1, 30, 32), dtype=np.float32))

    def test_reflect_needs_two_pixels_at_the_bottom_level(self):
        # depth 3 pools twice: 8 px is 2 at the bottom, 4 px is 1
        reflect = unet.UNetConfig(depth=3, padding=tc.REFLECT)
        reflect.check_input_hw((8, 12))
        replace(reflect, padding=tc.ZERO).check_input_hw((4, 8))
        with pytest.raises(ValueError, match=r"^x \(4x8\) must be >= 8"):
            reflect.check_input_hw((4, 8), "x")
        with pytest.raises(ValueError, match="reflect padding"):
            unet.forward(unet.build_unet(reflect),
                         np.zeros((1, 1, 8, 4), dtype=np.float32))


class TestForwardBackward:
    def test_zero_upstream_zero_grads(self):
        model = unet.build_unet(small_config())
        x = np.random.default_rng(1).random((1, 1, 8, 8)).astype(np.float32)
        logits, tape = unet.forward(model, x)
        logits[...] = 0
        tape.grad_logits = logits
        grads, gx = unet.backward(model, tape)
        assert all(np.all(g == 0) for g in grads)
        assert np.all(gx == 0)

    def test_batch_rows_independent(self):
        model = unet.build_unet(small_config())
        x = np.random.default_rng(2).random((1, 1, 8, 8)).astype(np.float32)
        dup = np.concatenate([x, x], axis=0)
        logits, _ = unet.forward(model, dup)
        rows = tc.from_frame(logits)
        np.testing.assert_array_equal(rows[0], rows[1])

    def test_bits_do_not_depend_on_blas_threads(self):
        # pool workers run single-threaded BLAS and the main process does
        # not; OpenBLAS computes a thread's last (columns mod 16) pixels with
        # another kernel, so unaligned GEMM column ranges differ in the bits
        script = (
            "import hashlib, numpy as np\n"
            "from centerbias import unet, tensor_core as tc\n"
            "m = unet.build_unet(unet.UNetConfig(padding=tc.CIRCULAR, seed=1))\n"
            "x = np.random.default_rng(0).random((3, 1, 64, 96))\n"
            "ones = np.ones((3, 11, 64, 96), dtype=np.float32)\n"
            "logits, tape = unet.forward(m, x.astype(np.float32))\n"
            "tape.grad_logits = tc.to_frame(ones)\n"
            "grads, gx = unet.backward(m, tape)\n"
            "_, tape = unet.forward(m, x.astype(np.float32))\n"
            "tape.grad_logits = tc.to_frame(ones)\n"
            "_, gx_only = unet.backward(m, tape, need_params=False)\n"
            "arrays = [tc.from_frame(logits), gx, gx_only, *grads]\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in arrays))"
            ".hexdigest())\n")
        src = os.path.dirname(os.path.dirname(unet.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=300)
            digests.add(done.stdout)
        assert len(digests) == 1

    @pytest.mark.parametrize("padding", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_partial_backward_keeps_the_full_bits(self, padding):
        model = unet.build_unet(unet.UNetConfig(padding=padding, seed=2))
        rng = np.random.default_rng(6)
        x = rng.random((2, 1, 32, 48)).astype(np.float32)
        g = rng.standard_normal((2, 11, 32, 48)).astype(np.float32)

        def backward(**need):
            # each backward gets its own tape
            _, tape = unet.forward(model, x)
            tape.grad_logits = tc.to_frame(g)
            return unet.backward(model, tape, **need)

        grads, gx = backward()
        no_grads, gx_only = backward(need_params=False)
        grads_only, no_gx = backward(need_input=False)
        assert no_grads is None and no_gx is None
        assert gx_only.tobytes() == gx.tobytes()
        assert len(grads_only) == len(grads)
        for a, b in zip(grads_only, grads):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("padding", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_forward_without_tape_is_bit_identical(self, padding):
        model = unet.build_unet(small_config(padding=padding, depth=3))
        x = np.random.default_rng(5).random((2, 1, 16, 8)).astype(np.float32)
        taped, tape = unet.forward(model, x)
        bare, none = unet.forward(model, x, keep_tape=False)
        assert none is None and tape is not None
        assert bare.tobytes() == taped.tobytes()


class TestTapeRelease:
    """A tape serves one backward, which drops each record once used."""

    @pytest.mark.parametrize("need", [
        {}, {"need_params": False}, {"need_input": False}],
        ids=["both", "input", "params"])
    def test_backward_empties_the_tape(self, need):
        model = unet.build_unet(small_config(depth=3))
        x = np.random.default_rng(3).random((2, 1, 8, 8)).astype(np.float32)
        logits, tape = unet.forward(model, x)
        assert tape.conv_tapes and tape.activations and tape.pools
        tape.grad_logits = logits
        unet.backward(model, tape, **need)
        assert tape.conv_tapes == {} and tape.activations == {}
        assert tape.pools == []
        assert tape.grad_logits is None

    def test_step_peak_stays_near_the_tape(self):
        # one default shard (8 images at 64x96): forward, in-frame loss and
        # a parameter backward that is handed the logits frame.  Absolute
        # bounds, fixed before the first run: a tape that kept each
        # decoder's input frame left 22.15 MB live and peaked at 25.27 MB,
        # and a backward that pops no record peaks above 26 MB
        model = unet.build_unet(unet.UNetConfig(seed=1))
        samples = list(data.iter_samples(data.DatasetConfig(count=8,
                                                            master_seed=1)))
        x = np.concatenate([s.input for s in samples])
        t = np.stack([s.target for s in samples])
        tracemalloc.start()
        try:
            logits, tape = unet.forward(model, x)
            live = tracemalloc.get_traced_memory()[0]
            _, tape.grad_logits = tc.softmax_cross_entropy_pixelwise(logits, t)
            del logits
            unet.backward(model, tape, need_input=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert live <= 16.5e6, live / 1e6
        assert peak <= 20e6, peak / 1e6


class TestDecoderFrames:
    """The tape keeps no decoder input frame: backward rebuilds it from two
    activations and refills its ring with tc.pad."""

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("padding", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_backward_rebuilds_the_forward_frame(self, monkeypatch, padding,
                                                 depth):
        model = unet.build_unet(small_config(padding=padding, depth=depth))
        firsts = {id(a.weight): a.name for a, _ in model.decoder}
        padded, rebuilt = {}, {}
        conv_forward, conv_backward = tc.conv2d_forward, tc.conv2d_backward

        def forward(x, weights, *args):
            out = conv_forward(x, weights, *args)
            if id(weights) in firsts:
                padded[firsts[id(weights)]] = x.copy()  # its ring now filled
            return out

        def backward(tape, *args, **kw):
            if id(tape.weights) in firsts:
                rebuilt[firsts[id(tape.weights)]] = tape.padded.copy()
            return conv_backward(tape, *args, **kw)

        monkeypatch.setattr(tc, "conv2d_forward", forward)
        monkeypatch.setattr(tc, "conv2d_backward", backward)
        x = np.random.default_rng(2).random((3, 1, 16, 24)).astype(np.float32)
        logits, tape = unet.forward(model, x)
        assert [tape.conv_tapes[name].padded for name in firsts.values()] \
            == [None] * (depth - 1)
        tape.grad_logits = logits
        unet.backward(model, tape)
        assert sorted(rebuilt) == sorted(padded) == sorted(firsts.values())
        for name, frame in padded.items():
            assert rebuilt[name].tobytes() == frame.tobytes(), name


class TestTrainStep:
    def test_zero_head_loss_is_log_k(self):
        # with the head's weight and bias zeroed every logit is 0, so the
        # softmax is uniform and the loss is log 11 up to f32 rounding,
        # whatever the seed and the inputs
        model = unet.build_unet(unet.UNetConfig(seed=0))
        model.head.weight[...] = 0
        model.head.bias[...] = 0
        rng = np.random.default_rng(0)
        x = rng.random((4, 1, 16, 16)).astype(np.float32)
        t = rng.integers(0, 11, (4, 16, 16))
        adam = tc.AdamState.for_params([model.flat_params])
        loss = unet.train_step(model, x, t, adam)
        assert loss == pytest.approx(np.log(11), rel=1e-6)

    def test_single_batch_loss_falls_by_a_fixed_factor(self):
        # the loss on one batch of two noise images, whose targets hold the
        # same square, falls at least 2.5-fold in 100 steps at this rate
        model = unet.build_unet(small_config(seed=0))
        rng = np.random.default_rng(0)
        x = rng.random((2, 1, 16, 16)).astype(np.float32)
        t = np.zeros((2, 16, 16), dtype=np.int64)
        t[:, 4:12, 4:12] = 3
        adam = tc.AdamState.for_params([model.flat_params], lr=2e-2)
        first = unet.train_step(model, x, t, adam)
        for _ in range(99):
            loss = unet.train_step(model, x, t, adam)
        assert loss < first / 2.5

    def test_equal_seeds_identical_traces(self):
        def run():
            model = unet.build_unet(small_config(seed=2))
            rng = np.random.default_rng(7)
            adam = tc.AdamState.for_params([model.flat_params])
            trace = []
            for _ in range(5):
                x = rng.random((2, 1, 8, 8)).astype(np.float32)
                t = rng.integers(0, 11, (2, 8, 8))
                trace.append(unet.train_step(model, x, t, adam))
            return trace

        assert run() == run()


def shard_threads(monkeypatch):
    """Record the thread of every unet.forward call."""
    seen = []
    forward = unet.forward

    def recording(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return forward(*args, **kwargs)

    monkeypatch.setattr(unet, "forward", recording)
    return seen


def require_blas_hook():
    setter = unet._blas_threads_hook()
    if not setter:
        pytest.skip("numpy's OpenBLAS has no openblas_set_num_threads_local")
    return setter


class TestShards:
    def test_split_is_fixed_first_half_on_calling_thread(self):
        require_blas_hook()
        for n, bounds in ((1, [(0, 1)]), (2, [(0, 1), (1, 2)]),
                          (5, [(0, 2), (2, 5)])):
            runs = unet.run_shards(
                lambda lo, hi: (lo, hi, threading.current_thread()), n)
            assert [r[:2] for r in runs] == bounds
            assert runs[0][2] is threading.current_thread()
            if n >= 2:
                assert runs[1][2].name.startswith("unet-shard")

    def test_nested_shards_run_on_the_calling_thread(self):
        require_blas_hook()
        nested = unet.run_shards(
            lambda lo, hi: unet.run_shards(
                lambda a, b: threading.current_thread(), 2), 2)
        assert nested[0][0] is not nested[1][0]
        for pair in nested:
            assert pair[0] is pair[1]

    def test_first_shard_error_waits_for_the_second(self):
        require_blas_hook()
        done = []

        def shard(lo, hi):
            if lo == 0:
                raise RuntimeError("shard 0 failed")
            time.sleep(0.2)
            done.append(hi)
            return hi

        with pytest.raises(RuntimeError, match="shard 0"):
            unet.run_shards(shard, 4)
        assert done == [4]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_runs_shards(self):
        # the parent's worker thread does not exist in a forked child
        require_blas_hook()
        unet.run_shards(lambda lo, hi: hi, 2)
        child = multiprocessing.get_context("fork").Process(
            target=unet.run_shards, args=(lambda lo, hi: hi, 2))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_concurrent_callers_keep_shards_and_blas_setting(self):
        # more calling threads than cores, switching often: each caller
        # gets its own shards, and the BLAS thread count ends as it began
        setter = require_blas_hook()
        original = setter(2)
        errors = []

        def caller(k):
            try:
                for _ in range(200):
                    n = 2 + k
                    runs = unet.run_shards(lambda lo, hi: (k, lo, hi), n)
                    assert runs == [(k, 0, n // 2), (k, n // 2, n)]
            except BaseException as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,))
                       for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            after = setter(original)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        assert after == 2

    @pytest.mark.parametrize("padding", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_train_step_threaded_equals_serial(self, monkeypatch, padding):
        require_blas_hook()
        rng = np.random.default_rng(3)
        x = rng.random((5, 1, 16, 24)).astype(np.float32)
        t = rng.integers(0, 11, (5, 16, 24))

        def run():
            model = unet.build_unet(small_config(padding=padding, seed=4))
            adam = tc.AdamState.for_params([model.flat_params])
            losses = [unet.train_step(model, x, t, adam) for _ in range(3)]
            return losses, model.flat_params.tobytes()

        threads = shard_threads(monkeypatch)
        threaded = run()
        assert threaded == run()
        assert {name.startswith("unet-shard") for name in threads} == \
            {True, False}
        threads.clear()
        monkeypatch.setattr(unet, "_blas_setter", False)
        assert run() == threaded
        assert set(threads) == {threading.current_thread().name}

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="heap thresholds are set through glibc")
    @pytest.mark.parametrize("setup", ["", "unet.disable_shard_thread()"],
                             ids=["shard_thread", "pool_worker"])
    def test_steps_reuse_the_freed_tapes(self, setup):
        # the tapes a step frees stay mapped for the next step; with glibc's
        # default thresholds a default step faulted 10k-15k pages back in.
        # A fresh interpreter each, since the thresholds are process-wide.
        require_blas_hook()
        script = (
            "import resource, numpy as np\n"
            "from centerbias import unet, tensor_core as tc\n"
            f"{setup}\n"
            "m = unet.build_unet(unet.UNetConfig(seed=1))\n"
            "adam = tc.AdamState.for_params([m.flat_params])\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random((16, 1, 64, 96)).astype(np.float32)\n"
            "t = rng.integers(0, 11, (16, 64, 96))\n"
            "for step in range(5):\n"
            "    if step == 2:\n"
            "        before = resource.getrusage(resource.RUSAGE_SELF)\n"
            "    unet.train_step(m, x, t, adam)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF)\n"
            "print(after.ru_minflt - before.ru_minflt)\n")
        src = os.path.dirname(os.path.dirname(unet.__file__))
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True,
                              timeout=300)
        assert int(done.stdout) < 3 * 1000

    @pytest.mark.parametrize("n", [1, 5])
    def test_tape_free_rows_equal_single_runs(self, n):
        model = unet.build_unet(small_config(padding=tc.CIRCULAR, depth=3))
        rng = np.random.default_rng(8)
        x = rng.random((n, 1, 16, 24)).astype(np.float32)
        t = rng.integers(0, 11, (n, 16, 24))
        logits, tape = unet.forward(model, x, keep_tape=False)
        assert tape is None
        rows = tc.from_frame(logits)
        losses = unet.sample_losses(model, x, t)
        assert losses.shape == (n,)
        for i in range(n):
            alone, _ = unet.forward(model, x[i:i + 1], keep_tape=False)
            assert rows[i].tobytes() == tc.from_frame(alone)[0].tobytes()
            alone = unet.sample_losses(model, x[i:i + 1], t[i:i + 1])
            assert losses[i].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("padding", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_sharded_losses_equal_taped_whole_batch_losses(self, monkeypatch,
                                                           padding):
        # the evaluation contract: two tape-free shards, each reduced to
        # its images' losses, give the bits of one taped forward of the
        # whole batch plus the same cross-entropy
        model = unet.build_unet(small_config(padding=padding, depth=3))
        rng = np.random.default_rng(9)
        x = rng.random((5, 1, 16, 24)).astype(np.float32)
        t = rng.integers(0, 11, (5, 16, 24)).astype(np.uint8)
        logits, tape = unet.forward(model, x)
        assert tape is not None
        whole, _ = tc.softmax_cross_entropy_pixelwise(logits, t,
                                                      need_grad=False)
        threads = shard_threads(monkeypatch)
        sharded = unet.sample_losses(model, x, t)
        assert len(threads) == 2
        assert sharded.dtype == np.float64
        assert sharded.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("depth", [2, 3])
    def test_step_gradient_and_loss_are_the_whole_batch_ones(self, depth):
        # f64, odd batch: the shards' gradients and losses, each scaled by
        # the whole batch's pixel count, add up to the whole batch's; a
        # fresh Adam state holds (1 - beta1) * gradient after one step, each
        # parameter's part where that parameter lives in flat_params (at
        # depth 3 the decoder levels are declared in another order than
        # _layer_plan's)
        model = unet.build_unet(small_config(depth=depth, precision="f64",
                                             seed=6))
        rng = np.random.default_rng(2)
        x = rng.random((5, 1, 8, 8))
        t = rng.integers(0, 11, (5, 8, 8))
        logits, tape = unet.forward(model, x)
        loss, tape.grad_logits = tc.softmax_cross_entropy_pixelwise(logits, t)
        grads, _ = unet.backward(model, tape)
        adam = tc.AdamState.for_params([model.flat_params])
        assert unet.train_step(model, x, t, adam) == pytest.approx(
            loss, rel=1e-12)
        # read the moment through each parameter's view of the buffer
        model.flat_params[...] = adam.m[0] / (1 - tc.ADAM_BETA1)
        for p, g in zip(model.parameters(), grads):
            np.testing.assert_allclose(p, g, rtol=1e-9, atol=1e-15)


class TestPinnedLosses:
    """f32 losses of a fixed-seed smoke run; a faster engine must keep them
    within f32 rounding.  Recorded with the shift-accumulate conv engine
    (see tensor_core), the last three again once each decoder layer's Adam
    step took its own gradient (flat_params in parameter order), and all
    again once placements were drawn from the admitted set, which moved
    every sample's offset."""

    PINNED = {
        "zero": [2.1206024885177612, 1.776230275630951, 1.4942627549171448,
                 1.4444993734359741],
        "circular": [2.075249195098877, 1.6987888813018799,
                     1.4070025086402893, 1.335067629814148],
    }

    @pytest.mark.parametrize("kind", ["zero", "circular"])
    def test_four_default_steps(self, kind):
        cfg = data.DatasetConfig(policy=data.AllowedCentral(0.3), count=16,
                                 master_seed=2024)
        samples = list(data.iter_samples(cfg))
        X = np.concatenate([s.input for s in samples]).astype(np.float32)
        T = np.stack([s.target for s in samples]).astype(np.int64)
        model = unet.build_unet(unet.UNetConfig(
            padding=tc.PaddingMode(kind), seed=7))
        adam = tc.AdamState.for_params([model.flat_params])
        losses = [unet.train_step(model, X[i:i + 4], T[i:i + 4], adam)
                  for i in range(0, 16, 4)]
        np.testing.assert_allclose(losses, self.PINNED[kind], rtol=1e-5)


class TestBitsAcrossPaddings:
    """Digests of four train steps (weights and losses), saliency maps and
    per-image losses of the default net.  First recorded while the tape
    still kept each decoder's input frame, so rebuilding that frame and
    refilling its ring in the backward kept every bit; recorded again once
    each decoder layer's Adam step took its own gradient (flat_params in
    parameter order), which moved every digest, and again once placements
    were drawn from the admitted set, which moved every sample's offset."""

    DIGESTS = {
        "zero": {"train": "5037ae3b5a19d8a4", "saliency": "e3fe3495f836f118",
                 "losses": "eb8ea3be5f567fe6"},
        "circular": {"train": "574d34914e0a2d55",
                     "saliency": "f25ceb3396288ac3",
                     "losses": "e02cab0eec8bb455"},
        "reflect": {"train": "19cfd423019b5c77",
                    "saliency": "a5e48fd7c0f4a19f",
                    "losses": "1fa7007abc5795d5"},
    }

    @staticmethod
    def digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("kind", list(DIGESTS))
    def test_results_keep_their_bits(self, kind):
        mode = tc.PaddingMode(kind)
        samples = list(data.iter_samples(data.DatasetConfig(
            height=32, width=48, count=8, master_seed=3)))
        x = np.concatenate([s.input for s in samples])
        t = np.stack([s.target for s in samples])
        model = unet.build_unet(unet.UNetConfig(padding=mode, seed=7))
        adam = tc.AdamState.for_params([model.flat_params])
        losses = [unet.train_step(model, x, t, adam) for _ in range(4)]
        got = {"train": self.digest(model.flat_params, np.array(losses)),
               "saliency": self.digest(saliency.saliency_maps(model, x, t)),
               "losses": self.digest(unet.sample_losses(model, x, t))}
        assert got == self.DIGESTS[kind]


class TestWholeModelEquivariance:
    def test_circular_logits_shift_with_input(self):
        cfg = unet.UNetConfig(depth=3, base_channels=4, padding=tc.CIRCULAR,
                              seed=8)
        model = unet.build_unet(cfg)
        x = np.random.default_rng(5).random((1, 1, 32, 32)).astype(np.float32)
        base = tc.from_frame(unet.forward(model, x)[0])
        for shift in ((4, 8), (12, 4)):  # multiples of 2^(depth-1)
            out = tc.from_frame(
                unet.forward(model, np.roll(x, shift, (2, 3)))[0])
            np.testing.assert_allclose(
                out, np.roll(base, shift, (2, 3)), atol=1e-4)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = unet.build_unet(small_config(seed=4))
        model.step = 17
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(model, path)
        loaded = unet.load_checkpoint(path)
        assert loaded.step == 17
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.flat_params, model.flat_params)
        x = np.random.default_rng(6).random((1, 1, 8, 8)).astype(np.float32)
        a, _ = unet.forward(model, x)
        b, _ = unet.forward(loaded, x)
        np.testing.assert_array_equal(a, b)

    def test_truncated_payload_rejected(self, tmp_path):
        model = unet.build_unet(small_config())
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            unet.load_checkpoint(path)

    def test_header_payload_crosscheck(self, tmp_path):
        model = unet.build_unet(small_config())
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00" * 4)
        with pytest.raises(ValueError):
            unet.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            unet.load_checkpoint(path)
