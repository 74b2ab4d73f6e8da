/* alloclog: who makes the large allocations, in one LD_PRELOAD file.
 *
 * malloc, calloc, realloc and posix_memalign calls of at least
 * ALLOCLOG_MIN bytes (96 KiB) record their size, whether glibc served
 * them from the heap or from a mmap of their own, and the caller's
 * return addresses (glibc backtrace(), as hostprof.c) into a buffer
 * reserved up front. The heap/mmap split is the IS_MMAPPED bit of the
 * chunk header glibc keeps just below the pointer: a heap-served block
 * is one glibc may keep after it is freed, a mmapped one goes back to
 * the kernel at free. At exit the records are written as text to
 * $ALLOCLOG_OUT (default alloclog.out): /proc/self/maps, a "--" line,
 * then one line per allocation, "<bytes> <h|m> " and its hex return
 * addresses, innermost frame first. `fold.py --alloc` reads it.
 * Single-threaded targets only: the buffer has one writer. Frees are
 * not logged.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>

#define ALLOCLOG_MIN (96 << 10)
#define DEPTH 32
#define MAX_RECORDS (1 << 16)

void *__libc_malloc(size_t);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);
void *__libc_memalign(size_t, size_t);

struct record {
    size_t bytes;
    int mmapped;
    int depth;
    void *frames[DEPTH];
};

static struct record *records;
static int count;
static int busy; /* backtrace() may allocate: don't record that */

__attribute__((noinline)) static void note(void *p, size_t bytes) {
    if (!p || bytes < ALLOCLOG_MIN || !records || busy || count >= MAX_RECORDS) return;
    busy = 1;
    struct record *r = &records[count++];
    r->bytes = bytes;
    r->mmapped = (((size_t *)p)[-1] & 2) != 0;
    r->depth = backtrace(r->frames, DEPTH);
    busy = 0;
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    note(p, n);
    return p;
}

void *calloc(size_t k, size_t n) {
    void *p = __libc_calloc(k, n);
    note(p, k * n);
    return p;
}

void *realloc(void *old, size_t n) {
    void *p = __libc_realloc(old, n);
    note(p, n);
    return p;
}

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    if (!p) return ENOMEM;
    note(p, n);
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside a record */
    records = __libc_calloc(MAX_RECORDS, sizeof *records);
}

__attribute__((destructor)) static void finish(void) {
    if (!records) return;
    busy = 1;
    const char *path = getenv("ALLOCLOG_OUT");
    FILE *out = fopen(path ? path : "alloclog.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(maps);
    fputs("--\n", out);
    for (int i = 0; i < count; i++) {
        struct record *r = &records[i];
        fprintf(out, "%zu %c ", r->bytes, r->mmapped ? 'm' : 'h');
        /* frame 0 is note(), frame 1 the interposed call */
        for (int j = 2; j < r->depth; j++) fprintf(out, "%p ", r->frames[j]);
        fputc('\n', out);
    }
    fclose(out);
}
