/* hostprof: a sampling profiler in one LD_PRELOAD file.
 *
 * ITIMER_PROF fires every millisecond of CPU time; the handler records
 * the call stack's return addresses (glibc backtrace(), which unwinds
 * through .eh_frame, so an ordinary release build is enough) into a
 * buffer reserved up front. At exit the samples are written as text to
 * $HOSTPROF_OUT (default hostprof.out): /proc/self/maps, a "--" line,
 * then one line of hex addresses per sample, innermost frame first.
 * fold.py turns that into folded stacks. Single-threaded targets only:
 * the buffer has one writer.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 18)

static void *(*frames)[DEPTH];
static unsigned char *depths;
static volatile int count;

static void on_tick(int sig) {
    (void)sig;
    if (count >= MAX_SAMPLES) return;
    depths[count] = (unsigned char)backtrace(frames[count], DEPTH);
    count++;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    frames = calloc(MAX_SAMPLES, sizeof *frames);
    depths = calloc(MAX_SAMPLES, 1);
    if (!frames || !depths) return;
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {0};
    sa.sa_handler = on_tick;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(maps);
    fputs("--\n", out);
    for (int i = 0; i < count; i++) {
        /* frames 0 and 1 are on_tick and the signal trampoline */
        for (int j = 2; j < depths[i]; j++) fprintf(out, "%p ", frames[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}
