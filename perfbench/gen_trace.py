#!/usr/bin/env python3
"""Seeded access stream for the trace_policy_sweep workload.

One stream, written in two encodings into OUTDIR:

  stream.bin    libCacheSim-style lcs records (24 bytes little-endian:
                u32 time, u64 object id, u32 size, i64 next access),
                every reference a load
  stream.trace  rcache's native text format, the same references in
                the same order, with about 30% of them stores

rcache maps object id k to byte address 64*k, so every object is one
32-byte block of the dcache and the stride reaches only its even sets.

Shape: Zipf(1.1) draws over a hot set of 2048 objects -- 64 KB of
blocks, twice the 32 KB L1 and four times the half of it the stride
reaches -- interleaved with one-shot scans of 64 never-reused objects.
A scan starts at 0.2% of draws, so scans make about 11% of references.

The seed is the only input: equal seeds give byte-identical files.
Only this workload varies with the seed; the synthetic workloads'
inputs are fixed by src/workload/profiles.cc.

    python3 perfbench/gen_trace.py SEED OUTDIR
"""

import bisect
import os
import random
import struct
import sys

RECORDS = 200000
HOT_OBJECTS = 2048
ZIPF_ALPHA = 1.1
SCAN_START_PROB = 0.002
SCAN_LENGTH = 64
SCAN_BASE = 1 << 20  # scan ids start far above the hot set
STORE_FRACTION = 0.3
PC = 0x400000  # the pc the lcs reader gives every record

LCS_NAME = "stream.bin"
NATIVE_NAME = "stream.trace"


def stream(seed):
    """Return (object ids, store flags), RECORDS long, for @seed."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(HOT_OBJECTS)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    # Popularity rank -> object id, so hot objects spread over the sets.
    objects = list(range(HOT_OBJECTS))
    rng.shuffle(objects)

    ids = []
    next_scan = SCAN_BASE
    while len(ids) < RECORDS:
        if rng.random() < SCAN_START_PROB:
            ids.extend(range(next_scan, next_scan + SCAN_LENGTH))
            next_scan += SCAN_LENGTH
        else:
            rank = min(bisect.bisect_left(cdf, rng.random()), HOT_OBJECTS - 1)
            ids.append(objects[rank])
    del ids[RECORDS:]
    stores = [rng.random() < STORE_FRACTION for _ in ids]
    return ids, stores


def write_streams(seed, outdir):
    """Write both encodings of @seed's stream; return their paths."""
    ids, stores = stream(seed)
    lcs = os.path.join(outdir, LCS_NAME)
    native = os.path.join(outdir, NATIVE_NAME)
    with open(lcs, "wb") as f:
        f.write(b"".join(struct.pack("<IQIq", t + 1, obj, 64, -1)
                         for t, obj in enumerate(ids)))
    with open(native, "w") as f:
        f.write("".join("%s %x %x 1 0 0 0\n" % ("S" if st else "L", PC,
                                                 obj * 64)
                        for obj, st in zip(ids, stores)))
    return lcs, native


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen_trace.py SEED OUTDIR")
    for path in write_streams(int(sys.argv[1]), sys.argv[2]):
        print(path)
