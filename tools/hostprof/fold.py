#!/usr/bin/env python3
"""Symbolise a hostprof.out and fold it.

    fold.py <binary> <hostprof.out> [--root NAME] [--top N]

Prints folded stacks (`outer;inner count`, what flamegraph tools read)
or, with --top, the N functions with the most inclusive samples beside
their self samples. --root keeps only samples with a frame whose name
contains NAME and drops the frames outside it, so shares are of that
call (e.g. the benchmark's timed `run`). Frames are resolved with
`addr2line -f -i`, so inlined callees appear when the binary carries
line tables (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only).
"""
import collections
import os
import re
import subprocess
import sys


def main():
    args = sys.argv[1:]
    opt = {}
    for flag in ('--root', '--top'):
        if flag in args:
            at = args.index(flag)
            opt[flag] = args[at + 1]
            del args[at:at + 2]
    binary, path = args
    maps_text, samples_text = open(path).read().split('\n--\n')

    # Where each file is loaded: its lowest mapping minus that mapping's
    # file offset is what a PIE or shared object's addresses are added to.
    maps, base = [], {}
    for line in maps_text.splitlines():
        f = line.split()
        if len(f) >= 6 and f[5].startswith('/'):
            lo, hi = (int(x, 16) for x in f[0].split('-'))
            maps.append((lo, hi, f[5]))
            base[f[5]] = min(base.get(f[5], lo), lo - int(f[2], 16))

    def module(addr):
        return next((name for lo, hi, name in maps if lo <= addr < hi), None)

    samples = [[int(a, 16) for a in line.split()] for line in samples_text.splitlines()]
    # A return address points after its call; one byte back is inside it.
    mine = os.path.basename(binary)
    wanted = sorted({a - 1 for s in samples for a in s
                     if os.path.basename(module(a) or '') == mine})
    names = {}
    if wanted:
        # The profiled binary may have been built elsewhere: `binary`
        # names the copy that carries its line tables.
        loaded = base[module(wanted[0])]
        out = subprocess.run(['addr2line', '-a', '-f', '-i', '-C', '-e', binary],
                             input='\n'.join(hex(a - loaded) for a in wanted),
                             capture_output=True, text=True, check=True).stdout
        # Per address: its `0x…` line, then function/file:line pairs,
        # innermost inlined frame first.
        for group in re.split(r'^0x', out, flags=re.M)[1:]:
            lines = group.splitlines()
            names[int(lines[0], 16) + loaded] = [
                re.sub(r'::h[0-9a-f]{16}$', '', f) for f in lines[1::2]]

    def frames(addr):
        # Shared libraries here are stripped: name the library, not the
        # nearest exported symbol.
        return names.get(addr - 1) or ['[' + os.path.basename(module(addr) or '?') + ']']

    folded = collections.Counter()
    for sample in samples:
        stack = []  # outermost first
        for addr in reversed(sample):
            stack += reversed(frames(addr))
        if '--root' in opt:
            hits = [i for i, f in enumerate(stack) if opt['--root'] in f]
            if not hits:
                continue
            stack = stack[hits[0]:]
        folded[';'.join(stack)] += 1

    if '--top' not in opt:
        for stack, n in sorted(folded.items()):
            print(stack, n)
        return
    total = sum(folded.values())
    incl, self_ = collections.Counter(), collections.Counter()
    for stack, n in folded.items():
        frames = stack.split(';')
        self_[frames[-1]] += n
        for f in set(frames):
            incl[f] += n
    print(f'{total} samples')
    for f, n in incl.most_common(int(opt['--top'])):
        print(f'{100 * n / total:6.1f}% incl {100 * self_[f] / total:6.1f}% self  {f}')


if __name__ == '__main__':
    main()
