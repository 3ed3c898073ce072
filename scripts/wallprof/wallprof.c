// wallprof: a wall-clock sampling profiler loaded with LD_PRELOAD.
//
// A POSIX timer on CLOCK_MONOTONIC sends SIGPROF to the process's main
// thread every kPeriodNs of real time, busy or not. The handler walks the
// frame-pointer chain from the interrupted context and appends one record
// per sample to wallprof.<pid>.raw in the working directory; at exit the
// process's /proc/self/maps is copied to wallprof.<pid>.maps so
// symbolize.py can map each address back to a module and a function. It
// needs a program built with -fno-omit-frame-pointer (and -g for line
// info); a frame without a frame pointer ends its stack early.
//
// Record format (native-endian uint64 words): depth, then depth addresses,
// leaf first (the interrupted pc, then return addresses).
//
// Build: cc -O2 -shared -fPIC -o libwallprof.so wallprof.c -lrt
// Run:   LD_PRELOAD=./libwallprof.so ./program args...
// x86-64 Linux only.
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum {
  kPeriodNs = 1013 * 1000,  // ~1 kHz; odd so it cannot lock onto a tick
  kMaxDepth = 128,
  kBufWords = 1 << 16,
};

static int g_fd = -1;
static timer_t g_timer;
static int g_timer_armed;
static uintptr_t g_stack_lo, g_stack_hi;  // main thread stack bounds
static uint64_t g_buf[kBufWords];
static size_t g_used;

// write(2) is async-signal-safe, so the handler may flush a full buffer.
static void Flush(void) {
  const char* p = (const char*)g_buf;
  size_t left = g_used * sizeof g_buf[0];
  while (left > 0) {
    const ssize_t n = write(g_fd, p, left);
    if (n <= 0) break;
    p += n;
    left -= (size_t)n;
  }
  g_used = 0;
}

static void OnSample(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  const ucontext_t* uc = (const ucontext_t*)ctx;
  uint64_t frames[kMaxDepth];
  int depth = 0;
  frames[depth++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  // Each frame holds [saved caller fp, return address]; callers live at
  // higher addresses than the interrupted stack pointer. Stop at anything
  // outside that live part of the stack or not ascending.
  uintptr_t lo = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  if (lo < g_stack_lo) lo = g_stack_lo;
  while (depth < kMaxDepth && fp >= lo &&
         fp + 2 * sizeof(uintptr_t) <= g_stack_hi && (fp & 7) == 0) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    const uintptr_t ret = frame[1];
    if (ret == 0) break;
    frames[depth++] = ret;
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  if (g_used + 1 + (size_t)depth > kBufWords) Flush();
  g_buf[g_used++] = (uint64_t)depth;
  memcpy(&g_buf[g_used], frames, (size_t)depth * sizeof frames[0]);
  g_used += (size_t)depth;
  errno = saved_errno;
}

static void CopyMaps(pid_t pid) {
  char path[64];
  snprintf(path, sizeof path, "wallprof.%d.maps", (int)pid);
  const int in = open("/proc/self/maps", O_RDONLY);
  const int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  char buf[4096];
  ssize_t n;
  while (in >= 0 && out >= 0 && (n = read(in, buf, sizeof buf)) > 0) {
    if (write(out, buf, (size_t)n) != n) break;
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

__attribute__((constructor)) static void Start(void) {
  pthread_attr_t attr;
  void* stack_addr = NULL;
  size_t stack_size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &stack_addr, &stack_size);
  pthread_attr_destroy(&attr);
  g_stack_lo = (uintptr_t)stack_addr;
  g_stack_hi = g_stack_lo + stack_size;

  char path[64];
  snprintf(path, sizeof path, "wallprof.%d.raw", (int)getpid());
  g_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (g_fd < 0) return;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;

  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;  // always the main thread's stack
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  struct itimerspec its;
  memset(&its, 0, sizeof its);
  its.it_interval.tv_nsec = kPeriodNs;
  its.it_value.tv_nsec = kPeriodNs;
  if (timer_settime(g_timer, 0, &its, NULL) == 0) g_timer_armed = 1;
}

__attribute__((destructor)) static void Stop(void) {
  if (g_timer_armed) {
    timer_delete(g_timer);
    g_timer_armed = 0;
  }
  if (g_fd < 0) return;
  // No more samples can arrive once SIGPROF is ignored.
  signal(SIGPROF, SIG_IGN);
  Flush();
  close(g_fd);
  g_fd = -1;
  CopyMaps(getpid());
}
