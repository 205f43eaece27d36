import numpy as np

from chaoskit.rng import stream


def test_same_key_same_stream():
    a = stream(42, "x").standard_normal(100)
    b = stream(42, "x").standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_tag_and_seed_separate_streams():
    base = stream(42, "x").standard_normal(100)
    assert not np.array_equal(base, stream(42, "y").standard_normal(100))
    assert not np.array_equal(base, stream(43, "x").standard_normal(100))


def test_full_64_bit_seeds():
    a = stream(2**63 - 1, "t").standard_normal(8)
    b = stream(-(2**63), "t").standard_normal(8)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    assert not np.array_equal(a, b)


def test_draw_order_does_not_leak_between_streams():
    # interleaved consumption must equal isolated consumption
    s1, s2 = stream(7, "a"), stream(7, "b")
    mixed = [s1.standard_normal(), s2.standard_normal(), s1.standard_normal()]
    t1, t2 = stream(7, "a"), stream(7, "b")
    pure = [t1.standard_normal(), t2.standard_normal(), t1.standard_normal()]
    assert mixed == pure


def test_streams_are_pcg64dxsm():
    assert type(stream(0, "x").bit_generator) is np.random.PCG64DXSM


def test_golden_normals_pin_the_generator():
    # a silent change of bit generator, key derivation or numpy's normal
    # sampler changes these values
    golden = stream(42, "golden").standard_normal(4)
    np.testing.assert_array_equal(
        golden, [0.8796225758204729, 0.578624777774535,
                 0.8026348485720135, 0.47846077307256246])
