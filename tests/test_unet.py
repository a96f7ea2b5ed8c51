"""U-Net construction, training-step, determinism, and checkpoint oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest

from centerbias import data, unet
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
        model = unet.build_unet(unet.UNetConfig())
        x = np.zeros((2, 1, 64, 96), dtype=np.float32)
        logits, _ = unet.forward(model, x)
        assert logits.shape == (2, 11, 64, 96)

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


class TestForwardBackward:
    def test_whole_model_gradcheck_f64(self):
        # every padding mode fills and folds the ring at every level; depth 3
        # on 8x8 keeps reflect legal at the 2x2 level, and the frozen rng
        # makes random padding a pure function
        for padding in (tc.ZERO, tc.CIRCULAR, tc.REFLECT, tc.random_pad(1.0)):
            cfg = unet.UNetConfig(depth=3, base_channels=2, precision="f64",
                                  padding=padding, seed=3)
            model = unet.build_unet(cfg)
            x = np.random.default_rng(0).standard_normal((1, 1, 8, 8))
            params = model.parameters()

            def op(x_, *ps, model=model, params=params):
                for dst, src in zip(params, ps):
                    dst[...] = src
                logits, tape = unet.forward(model, x_,
                                            np.random.default_rng(99))

                def vjp(g):
                    grads, gx = unet.backward(model, tape, g)
                    return (gx, *grads)
                return logits, vjp

            report = tc.gradcheck(op, [x] + [p.copy() for p in params], 1e-3,
                                  np.random.default_rng(4))
            assert report.passed, (padding.kind, report)

    def test_zero_upstream_zero_grads(self):
        model = unet.build_unet(small_config())
        x = np.random.default_rng(1).random((1, 1, 8, 8)).astype(np.float32)
        logits, tape = unet.forward(model, x)
        grads, gx = unet.backward(model, tape, np.zeros_like(logits))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(gx == 0)

    def test_batch_rows_independent(self):
        model = unet.build_unet(small_config())
        x = np.random.default_rng(2).random((1, 1, 8, 8)).astype(np.float32)
        dup = np.concatenate([x, x], axis=0)
        logits, _ = unet.forward(model, dup)
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_bits_do_not_depend_on_blas_threads(self):
        # pool workers run single-threaded BLAS and the main process does
        # not; OpenBLAS computes a thread's last (columns mod 16) pixels with
        # another kernel, so unaligned GEMM column ranges differ in the bits
        script = (
            "import hashlib, numpy as np\n"
            "from centerbias import unet, tensor_core as tc\n"
            "m = unet.build_unet(unet.UNetConfig(padding=tc.CIRCULAR, seed=1))\n"
            "x = np.random.default_rng(0).random((3, 1, 64, 96))\n"
            "logits, tape = unet.forward(m, x.astype(np.float32))\n"
            "grads, gx = unet.backward(m, tape, np.ones_like(logits))\n"
            "arrays = [logits, gx, *grads]\n"
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

    @pytest.mark.parametrize("padding", [tc.ZERO, tc.REFLECT,
                                         tc.random_pad(1.0)],
                             ids=["zero", "reflect", "random"])
    def test_forward_without_tape_is_bit_identical(self, padding):
        model = unet.build_unet(small_config(padding=padding, depth=3))
        x = np.random.default_rng(5).random((2, 1, 16, 8)).astype(np.float32)
        taped, tape = unet.forward(model, x, np.random.default_rng(1))
        bare, none = unet.forward(model, x, np.random.default_rng(1),
                                  keep_tape=False)
        assert none is None and tape is not None
        assert bare.tobytes() == taped.tobytes()

    def test_forward_deterministic_with_random_padding(self):
        cfg = small_config(padding=tc.random_pad(1.0))
        model = unet.build_unet(cfg)
        x = np.random.default_rng(3).random((1, 1, 8, 8)).astype(np.float32)
        a, _ = unet.forward(model, x, np.random.default_rng(11))
        b, _ = unet.forward(model, x, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)
        c, _ = unet.forward(model, x, np.random.default_rng(12))
        assert not np.array_equal(a, c)


class TestTrainStep:
    def test_untrained_loss_near_uniform(self):
        model = unet.build_unet(unet.UNetConfig(seed=0))
        rng = np.random.default_rng(0)
        x = rng.random((4, 1, 16, 16)).astype(np.float32)
        t = rng.integers(0, 11, (4, 16, 16))
        adam = tc.AdamState.for_params([model.flat_params])
        loss = unet.train_step(model, x, t, adam)
        assert abs(loss - np.log(11)) < 0.5

    def test_overfits_single_batch(self):
        model = unet.build_unet(small_config(seed=1))
        rng = np.random.default_rng(1)
        x = rng.random((2, 1, 16, 16)).astype(np.float32)
        t = np.zeros((2, 16, 16), dtype=np.int64)
        t[:, 4:12, 4:12] = 3
        adam = tc.AdamState.for_params([model.flat_params], lr=2e-2)
        loss = None
        for _ in range(50):
            loss = unet.train_step(model, x, t, adam)
        assert loss < 0.1

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


class TestPinnedLosses:
    """f32 losses of a fixed-seed smoke run, recorded with the im2col
    engine; a faster engine must keep them within f32 rounding."""

    PINNED = {
        "zero": [2.7619521617889404, 2.5988333225250244, 2.552443265914917,
                 2.5279793739318848],
        "circular": [2.745661497116089, 2.553860902786255, 2.5259220600128174,
                     2.5115890502929688],
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


class TestWholeModelEquivariance:
    def test_circular_logits_shift_with_input(self):
        cfg = unet.UNetConfig(depth=3, base_channels=4, padding=tc.CIRCULAR,
                              seed=8)
        model = unet.build_unet(cfg)
        x = np.random.default_rng(5).random((1, 1, 32, 32)).astype(np.float32)
        base, _ = unet.forward(model, x)
        for shift in ((4, 8), (12, 4)):  # multiples of 2^(depth-1)
            out, _ = unet.forward(model, np.roll(x, shift, (2, 3)))
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
