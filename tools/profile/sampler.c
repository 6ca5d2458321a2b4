/*
 * A wall-clock stack sampler, loaded with LD_PRELOAD.
 *
 * A CLOCK_MONOTONIC timer sends SIGPROF to the process's main thread every
 * 1/PROFILE_HZ seconds; the handler walks the frame-pointer chain from the
 * interrupted context and stores the return addresses in a preallocated
 * buffer (no allocation, no locks, no I/O in the handler). At exit the
 * samples go to $PROFILE_OUT (one line per sample, leaf first, hex) and the
 * process's memory map to $PROFILE_OUT.maps, which `symbolize.py` reads.
 *
 * The walk is only as complete as the frame pointers: build the program
 * with `-C force-frame-pointers=yes`. A library leaf such as memcmp or
 * memcpy pushes no frame pointer, so the chain skips its direct caller;
 * when the sample lands outside the executable, the word at the stack
 * pointer is taken as that caller if it is a return address into the
 * executable's text (the range is read once, at start).
 *
 * Environment: PROFILE_OUT (default "profile.out"), PROFILE_HZ (default
 * 997), PROFILE_MAX_SAMPLES (default 200000).
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define DEPTH 64

static uintptr_t *samples;  /* max_samples rows of DEPTH slots, 0-terminated */
static size_t max_samples;
static volatile size_t taken;
static volatile size_t dropped;
static uintptr_t stack_lo, stack_hi;  /* the main thread's stack */
static uintptr_t text_lo, text_hi;    /* the executable's text */
static timer_t timer;
static int armed;

static void on_sample(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    if (taken >= max_samples) {
        dropped++;
        return;
    }
    uintptr_t *row = samples + taken * DEPTH;
    const mcontext_t *mc = &((const ucontext_t *)uctx)->uc_mcontext;
    size_t n = 0;
    uintptr_t ip = (uintptr_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    row[n++] = ip;
    /* A leaf outside the executable (a libc memcmp) that pushed no frame
     * still has its return address on top of the stack: keep that caller,
     * unless the frame chain names it next anyway. */
    uintptr_t leaf_caller = 0;
    if ((ip < text_lo || ip >= text_hi) && sp >= stack_lo && sp + 8 <= stack_hi && sp % 8 == 0) {
        uintptr_t top = *(const uintptr_t *)sp;
        if (top >= text_lo && top < text_hi) {
            leaf_caller = top;
        }
    }
    if (leaf_caller != 0 && !(fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0 &&
                               ((const uintptr_t *)fp)[1] == leaf_caller)) {
        row[n++] = leaf_caller;
    }
    /* Each frame is [saved fp, return address]; frames only move up the
     * stack, so anything else ends the walk instead of faulting. */
    while (n < DEPTH - 1 && fp >= sp && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) {
            break;
        }
        row[n++] = frame[1];
        if (frame[0] <= fp) {
            break;
        }
        sp = fp;
        fp = frame[0];
    }
    row[n] = 0;
    taken++;
}

/* Take the executable's text range: the first object dl_iterate_phdr
 * reports is the program itself. */
static int find_text(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
            if (text_hi == 0 || lo < text_lo) {
                text_lo = lo;
            }
            if (lo + ph->p_memsz > text_hi) {
                text_hi = lo + ph->p_memsz;
            }
        }
    }
    return 1;
}

static long env_long(const char *name, long fallback) {
    const char *v = getenv(name);
    long x = v ? strtol(v, NULL, 10) : 0;
    return x > 0 ? x : fallback;
}

static void copy_file(const char *from, const char *to) {
    int in = open(from, O_RDONLY);
    int out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char buf[65536];
    ssize_t got;
    while (in >= 0 && out >= 0 && (got = read(in, buf, sizeof buf)) > 0) {
        if (write(out, buf, (size_t)got) != got) {
            break;
        }
    }
    if (in >= 0) close(in);
    if (out >= 0) close(out);
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *addr;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) {
        return;
    }
    pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    stack_lo = (uintptr_t)addr;
    stack_hi = stack_lo + size;
    dl_iterate_phdr(find_text, NULL);

    max_samples = (size_t)env_long("PROFILE_MAX_SAMPLES", 200000);
    samples = mmap(NULL, max_samples * DEPTH * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct sigevent ev;
    memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_THREAD_ID;
    ev.sigev_signo = SIGPROF;
    ev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) {
        fprintf(stderr, "sampler: timer_create: %s\n", strerror(errno));
        return;
    }
    long period_ns = 1000000000L / env_long("PROFILE_HZ", 997);
    struct itimerspec its = {{0, period_ns}, {0, period_ns}};
    timer_settime(timer, 0, &its, NULL);
    armed = 1;
}

__attribute__((destructor)) static void stop(void) {
    if (!armed) {
        return;
    }
    timer_delete(timer);
    armed = 0;
    const char *path = getenv("PROFILE_OUT");
    if (!path) {
        path = "profile.out";
    }
    FILE *f = fopen(path, "w");
    if (!f) {
        fprintf(stderr, "sampler: cannot write %s\n", path);
        return;
    }
    for (size_t i = 0; i < taken; i++) {
        const uintptr_t *row = samples + i * DEPTH;
        for (size_t j = 0; row[j] != 0; j++) {
            fprintf(f, j ? " %lx" : "%lx", (unsigned long)row[j]);
        }
        fputc('\n', f);
    }
    fclose(f);
    char maps[4096];
    snprintf(maps, sizeof maps, "%s.maps", path);
    copy_file("/proc/self/maps", maps);
    fprintf(stderr, "sampler: %zu samples (%zu dropped) -> %s\n", (size_t)taken, (size_t)dropped,
            path);
}
