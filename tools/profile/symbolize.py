#!/usr/bin/env python3
"""Symbolize a `sampler.c` profile and split it by handler and by layer.

usage: symbolize.py BINARY PROFILE [--focus REGEX] [--callers REGEX] [--top N]

Every sampled address of BINARY goes through one batched, inline-aware
`addr2line -i` call, so a sample's stack lists inlined functions as frames
of their own. A sample's *layer* is the crate of its innermost frame that
belongs to this repository (std, core, alloc and libc frames count for
their caller); its *handler* is its innermost event handler
(`on_*`, `start_*`, `submit*`, `send_*` of a store cluster or the node
runtime). With --focus, only samples with a frame matching REGEX count,
and shares are of those samples. With --callers, the samples with a frame
matching REGEX are also split by the nearest repository frame above (outside)
its innermost match: which code calls, say, `Arc::clone`.
"""
import argparse
import collections
import os
import re
import struct
import subprocess

REPO_CRATES = {
    "audit", "bench_core", "cstore", "faults", "fig", "hstore",
    "layered_benchmark", "node", "obs", "simkit", "storage", "ycsb",
}
HANDLER = re.compile(r"^(cstore|hstore|node)::.*::((?:on|start|send)_\w+|submit\w*)$")


def exec_segments(path):
    """(p_offset, p_vaddr, p_filesz) of every executable PT_LOAD in an ELF64."""
    with open(path, "rb") as f:
        data = f.read(1 << 16)
    phoff, = struct.unpack_from("<Q", data, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    segs = []
    for i in range(phnum):
        p_type, p_flags, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", data, phoff + i * phentsize)
        if p_type == 1 and p_flags & 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def load(profile, binary):
    """The samples as address lists, and a function mapping an address to
    (module, address inside BINARY or None)."""
    maps = []
    for line in open(profile + ".maps"):
        f = line.split()
        if len(f) >= 6 and "x" in f[1]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    real = os.path.realpath(binary)
    segs = exec_segments(binary)

    def place(addr):
        for lo, hi, off, path in maps:
            if lo <= addr < hi:
                file_off = addr - lo + off
                if os.path.realpath(path) != real:
                    return os.path.basename(path), None
                for s_off, s_vaddr, s_size in segs:
                    if s_off <= file_off < s_off + s_size:
                        return "", file_off - s_off + s_vaddr
        return "?", None

    samples = []
    for line in open(profile):
        addrs = [int(x, 16) for x in line.split()]
        # Return addresses point past the call; step back into it.
        samples.append(addrs[:1] + [a - 1 for a in addrs[1:]])
    return samples, place


def symbolize(binary, vaddrs):
    """vaddr -> its inline chain of function names, innermost first."""
    out = subprocess.run(
        ["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
        input="\n".join(hex(a) for a in vaddrs), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, current = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            chains[current] = []
            i += 1
            continue
        chains[current].append(out[i])
        i += 2  # function, then file:line
    return chains


def crate_of(name):
    m = re.match(r"<*(\w+)::", name)
    return m.group(1) if m else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("profile")
    ap.add_argument("--focus", help="keep samples with a frame matching this regex")
    ap.add_argument("--callers", help="split samples with a frame matching this regex by "
                    "the nearest repository frame above it")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    raw, place = load(args.profile, args.binary)
    placed = {a: place(a) for s in raw for a in s}
    chains = symbolize(args.binary, sorted({v for _, v in placed.values() if v is not None}))
    stacks = []
    for s in raw:
        frames = []
        for a in s:
            module, vaddr = placed[a]
            frames += chains.get(vaddr, ["??"]) if vaddr is not None else [f"[{module}]"]
        stacks.append(frames)
    if args.focus:
        focus = re.compile(args.focus)
        stacks = [s for s in stacks if any(focus.search(f) for f in s)]
    total = len(stacks)
    if not total:
        raise SystemExit("no samples")

    layer, handler, leaf, inclusive = (collections.Counter() for _ in range(4))
    for s in stacks:
        layer[next((c for c in map(crate_of, s) if c in REPO_CRATES), "(outside the repo)")] += 1
        handler[next((f"{m.group(1)}::{m.group(2)}" for m in map(HANDLER.search, s) if m),
                     "(no handler: driver, queue)")] += 1
        leaf[s[0]] += 1
        for f in set(s):
            inclusive[f] += 1

    def table(title, counter, limit=None, of=total):
        print(f"\n{title}")
        for name, n in counter.most_common(limit):
            print(f"  {100 * n / of:6.2f}%  {n:7d}  {name}")

    print(f"{total} samples" + (f" matching {args.focus!r}" if args.focus else ""))
    table("by layer (self, std/libc charged to the calling crate)", layer)
    table("by handler (inclusive)", handler)
    table(f"top {args.top} functions (self, innermost inlined frame)", leaf, args.top)
    table(f"top {args.top} functions (inclusive)", inclusive, args.top)

    if args.callers:
        callee = re.compile(args.callers)
        callers = collections.Counter()
        for s in stacks:
            hit = next((i for i, f in enumerate(s) if callee.search(f)), None)
            if hit is not None:
                callers[next((f for f in s[hit + 1:] if crate_of(f) in REPO_CRATES),
                             "(no repository caller)")] += 1
        matched = sum(callers.values())
        if matched:
            table(f"callers of {args.callers!r}: {matched} samples, {100 * matched / total:.2f}% "
                  "of all; shares of those", callers, args.top, matched)
        else:
            print(f"\nno sample has a frame matching {args.callers!r}")


if __name__ == "__main__":
    main()
