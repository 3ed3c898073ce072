#!/usr/bin/env python3
"""Symbolizes and summarizes a wallprof profile (see wallprof.c).

    python3 scripts/wallprof/symbolize.py wallprof.<pid>.raw [--top N]
        [--within REGEX] [--match NAME=REGEX ...]

Reads wallprof.<pid>.raw and the wallprof.<pid>.maps beside it, maps every
address to (module, function) with addr2line, and prints:

  * self: the share of samples whose leaf frame is in each function;
  * total: the share of samples with each function anywhere on the stack
    (counted once per sample, so recursion does not inflate it);
  * one line per --match: the share of samples with any frame whose
    function name matches REGEX (e.g. --match maps='_Hashtable<cm::Hash128').

--within REGEX keeps only the samples with a frame matching REGEX, so the
shares are of that part of the run (e.g. --within 'Rig::RunPhase' for
perfbench's measured phases).

Self time goes to the innermost inlined function at the leaf address, so a
hash-map probe inlined into its caller still shows as the probe; total and
--match count every function of each frame's inlining chain. A leaf without
line info (a stripped libc, whose nearest exported symbol is usually not the
function that ran) is named by its module under the first caller frame that
has line info, e.g. "libc.so.6 (no line info) under DataPool::ReadAt".
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys


def read_samples(path):
    data = open(path, "rb").read()
    words = struct.unpack(f"<{len(data) // 8}Q", data[: len(data) // 8 * 8])
    samples, i = [], 0
    while i < len(words):
        depth = words[i]
        samples.append(words[i + 1 : i + 1 + depth])
        i += 1 + depth
    return samples


def read_maps(path):
    """Executable file mappings as sorted (start, end, offset, file)."""
    maps = []
    for line in open(path):
        parts = line.split()
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        maps.append((start, end, int(parts[2], 16), parts[5]))
    maps.sort()
    return maps


def is_exec_type(path):
    """True for an ET_EXEC (non-PIE) ELF file: its addresses are absolute."""
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and struct.unpack("<H", header[16:18])[0] == 2


def function_symbols(module):
    """Sorted (start, end, name) of the module's defined functions (nm)."""
    out = subprocess.run(
        ["nm", "-C", "-n", "-S", "--defined-only", module],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout.splitlines()
    syms = []
    for line in out:
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in ("t", "T", "W", "w"):
            start = int(parts[0], 16)
            syms.append((start, start + int(parts[1], 16), parts[3]))
    return syms


def symbolize(addrs_by_module):
    """{module: {file_address: ([function, ...], has_line_info)}}, innermost
    inlined first, via one addr2line call per module. addr2line names the
    outermost function of an inlining chain by its bare DWARF name
    ("OnTouch"), so that entry takes the qualified name of the enclosing
    symbol instead."""
    names = {}
    for module, addrs in addrs_by_module.items():
        syms = function_symbols(module)
        starts = [sym[0] for sym in syms]
        out = subprocess.run(
            ["addr2line", "-a", "-i", "-f", "-C", "-e", module]
            + [hex(a) for a in sorted(addrs)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.splitlines()
        # Per address: the address line, then a (function, file:line) pair
        # per inlining level. Without line info (a stripped libc, say) the
        # name is only the nearest exported symbol, which may not be the
        # function that ran; say so.
        base = os.path.basename(module)
        table = names[module] = {}
        k = 0
        while k < len(out):
            addr = int(out[k], 16)
            k += 1
            chain, has_lines = [], False
            while k + 1 < len(out) and not out[k].startswith("0x"):
                fn, where = out[k], out[k + 1]
                k += 2
                if fn == "??":
                    chain.append(f"{base}+{addr:#x}")
                elif where.startswith("??"):
                    chain.append(f"{fn} ({base}, nearest symbol)")
                else:
                    chain.append(fn)
                    has_lines = True
            i = bisect.bisect_right(starts, addr) - 1
            if chain and i >= 0 and addr < syms[i][1]:
                chain[-1] = syms[i][2]
            table[addr] = (chain, has_lines)
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("raw")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--within", metavar="REGEX")
    ap.add_argument("--match", action="append", default=[],
                    metavar="NAME=REGEX")
    args = ap.parse_args()

    maps_path = re.sub(r"\.raw$", ".maps", args.raw)
    samples = read_samples(args.raw)
    maps = read_maps(maps_path)
    if not samples:
        sys.exit("no samples")
    starts = [m[0] for m in maps]
    exec_type = {}

    def locate(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return None
        start, _, offset, module = maps[i]
        if module not in exec_type:
            exec_type[module] = is_exec_type(module)
        return module, addr if exec_type[module] else addr - start + offset

    # Return addresses point after the call; step back one byte so the
    # caller's call site is what gets symbolized.
    located = []
    wanted = collections.defaultdict(set)
    for stack in samples:
        frames = []
        for depth, addr in enumerate(stack):
            loc = locate(addr if depth == 0 else addr - 1)
            frames.append(loc)
            if loc:
                wanted[loc[0]].add(loc[1])
        located.append(frames)
    names = symbolize(wanted)

    def lookup(loc):
        found = names[loc[0]].get(loc[1]) if loc else None
        return found if found and found[0] else (["[unknown]"], False)

    def leaf(frames):
        """The self-time name of a sample's leaf frame."""
        chain, has_lines = lookup(frames[0])
        if has_lines or frames[0] is None:
            return chain[0]
        for loc in frames[1:]:
            caller, caller_has_lines = lookup(loc)
            if caller_has_lines:
                module = os.path.basename(frames[0][0])
                return f"{module} (no line info) under {caller[0]}"
        return chain[0]

    n = 0
    self_count = collections.Counter()
    total_count = collections.Counter()
    match_count = collections.Counter()
    patterns = [m.split("=", 1) for m in args.match]
    for frames in located:
        stack_names = {fn for f in frames for fn in lookup(f)[0]}
        if args.within and not any(re.search(args.within, fn)
                                   for fn in stack_names):
            continue
        n += 1
        self_count[leaf(frames) if frames else "[empty]"] += 1
        for fn in stack_names:
            total_count[fn] += 1
        for label, regex in patterns:
            if any(re.search(regex, fn) for fn in stack_names):
                match_count[label] += 1

    if n == 0:
        sys.exit("no samples" + (" within " + args.within if args.within else ""))
    print(f"# {n} of {len(samples)} samples")
    for title, counter in (("self", self_count), ("total", total_count)):
        print(f"# {title}")
        for fn, c in counter.most_common(args.top):
            print(f"{100.0 * c / n:6.2f}%  {fn}")
    for label, _ in patterns:
        print(f"# match {label}: {100.0 * match_count[label] / n:.2f}%")


if __name__ == "__main__":
    main()
