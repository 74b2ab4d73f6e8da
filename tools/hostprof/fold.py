#!/usr/bin/env python3
"""Symbolise a hostprof.out and fold it, or tally an alloclog.out.

    fold.py <binary> <hostprof.out> [--root NAME] [--top N] [--by-caller]
    fold.py <binary> <alloclog.out> --alloc [--root NAME] [--top N]

Prints folded stacks (`outer;inner count`, what flamegraph tools read)
or, with --top, the N functions with the most inclusive samples beside
their self samples. --root keeps only samples with a frame whose name
contains NAME and drops the frames outside it, so shares are of that
call (e.g. the benchmark's timed `run`). --by-caller charges each self
sample of a shared library (libc's `memmove`, `malloc`, `memset`, ...)
to the nearest frame of the program's own code, skipping the standard
library's (`core::`, `alloc::`, `std::`) but naming the innermost of
those beside it, and prints the top callers (--top N, default 30).
--alloc reads alloclog.c's output instead, one large allocation a line,
and prints per first program frame (the innermost frame of the
program's own code, as --by-caller picks it) the bytes allocated, the
count and the share of those bytes glibc served from its heap rather
than from a mmap of their own (--top N rows, default 30).
Frames are resolved with `addr2line -f -i`, so inlined callees appear
when the binary carries line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only).
"""
import collections
import os
import re
import subprocess
import sys


def is_library(frame):
    return frame.startswith('[') and frame.endswith(']')


def is_std(frame):
    # `__rust_alloc` / `__rdl_alloc` are the global allocator's shims.
    return frame.lstrip('<').startswith(
        ('core::', 'alloc::', 'std::', 'hashbrown::', '__rust', '__rdl'))


def first_own(frames):
    """The innermost frame of the program's own code (outermost first in
    `frames`), and the innermost standard-library frame below it."""
    own = [f for f in frames if not is_library(f)]
    caller = next((f for f in reversed(own) if not is_std(f)), '?')
    via = own[-1] if own and own[-1] != caller else None
    return caller, via


def by_caller(folded, top):
    """Prints the shared-library self samples by (library, caller)."""
    total = sum(folded.values())
    callers = collections.Counter()
    for stack, n in folded.items():
        frames = stack.split(';')
        if not is_library(frames[-1]):
            continue
        caller, via = first_own(frames)
        callers[(frames[-1], caller, via)] += n
    in_libs = sum(callers.values())
    print(f'{total} samples, {in_libs} ({100 * in_libs / max(total, 1):.1f}%) '
          'self in shared libraries')
    for (library, caller, via), n in callers.most_common(top):
        through = f'  (via {via})' if via else ''
        print(f'{100 * n / total:6.1f}% {n:6d}  {library} <- {caller}{through}')


def by_owner(stacks, sizes, top):
    """Prints the logged allocations by first program frame."""
    owners = collections.defaultdict(lambda: [0, 0, 0])  # bytes, count, heap bytes
    for stack, (size, kind) in zip(stacks, sizes):
        row = owners[first_own(stack)[0]]
        row[0] += size
        row[1] += 1
        row[2] += size if kind == 'h' else 0
    total = sum(r[0] for r in owners.values())
    heap = sum(r[2] for r in owners.values())
    print(f'{sum(r[1] for r in owners.values())} allocations, {total / 2**20:.1f} MiB, '
          f'{heap / 2**20:.1f} MiB ({100 * heap / max(total, 1):.1f}%) heap-served')
    for owner, (size, n, in_heap) in sorted(owners.items(), key=lambda kv: -kv[1][0])[:top]:
        print(f'{size / 2**20:9.1f} MiB {n:7d}  heap {100 * in_heap / size:5.1f}%  {owner}')


def main():
    args = sys.argv[1:]
    opt = {}
    for flag in ('--by-caller', '--alloc'):
        if flag in args:
            args.remove(flag)
            opt[flag] = True
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

    lines = [line.split() for line in samples_text.splitlines()]
    if '--alloc' in opt:
        # Each line leads with the allocation's size and h(eap)/m(map).
        sizes = [(int(f[0]), f[1]) for f in lines]
        lines = [f[2:] for f in lines]
    samples = [[int(a, 16) for a in f] for f in lines]
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

    stacks = []  # per sample, outermost frame first; None if outside --root
    for sample in samples:
        stack = []
        for addr in reversed(sample):
            stack += reversed(frames(addr))
        if '--root' in opt:
            hits = [i for i, f in enumerate(stack) if opt['--root'] in f]
            stack = stack[hits[0]:] if hits else None
        stacks.append(stack)

    if '--alloc' in opt:
        kept = [(s, z) for s, z in zip(stacks, sizes) if s is not None]
        by_owner([s for s, _ in kept], [z for _, z in kept], int(opt.get('--top', 30)))
        return
    folded = collections.Counter(';'.join(s) for s in stacks if s is not None)

    if '--by-caller' in opt:
        by_caller(folded, int(opt.get('--top', 30)))
        return
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
