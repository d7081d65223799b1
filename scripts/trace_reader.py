#!/usr/bin/env python3
"""Validate a binary LithOS trace and print its record and per-kind counts.

Stdlib-only, independent pin on the on-disk format of src/obs/trace.h: a
40-byte little-endian header ("LITHTRC1", version, record size, counts)
followed by fixed 32-byte records

    int64 time_ns | u8 layer | u8 kind | u16 reserved
    | i32 node | i32 zone | i32 arg | i64 payload

Chrome/Perfetto JSON comes from `trace_export --chrome`.

Usage: trace_reader.py <trace.bin>
"""

import collections
import struct
import sys

HEADER_FMT = "<8sIIQQQ"
RECORD_FMT = "<qBBHiiiq"
MAGIC = b"LITHTRC1"
VERSION = 2


def read_trace(path):
    with open(path, "rb") as f:
        data = f.read()
    size = struct.calcsize(HEADER_FMT)
    if len(data) < size:
        sys.exit(f"{path}: too short for a trace header")
    magic, version, record_size, count, total, dropped = struct.unpack_from(HEADER_FMT, data)
    if magic != MAGIC or version != VERSION:
        sys.exit(f"{path}: not a v{VERSION} LithOS trace ({magic!r} v{version})")
    if record_size != struct.calcsize(RECORD_FMT):
        sys.exit(f"{path}: record size {record_size} != {struct.calcsize(RECORD_FMT)}")
    if len(data) != size + count * record_size:
        sys.exit(f"{path}: {len(data)} bytes, header promises {size + count * record_size}")
    return total, dropped, list(struct.iter_unpack(RECORD_FMT, data[size:]))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    total, dropped, records = read_trace(sys.argv[1])
    print(f"records {len(records)} (appended {total}, dropped {dropped})")
    for kind, n in sorted(collections.Counter(r[2] for r in records).items()):
        print(f"kind {kind} {n}")
