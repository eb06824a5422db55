/* Allocation-free clock, per-child peak RSS, timer slack and CPU
   pinning for the benchmark.

   The clock returns a tagged OCaml int, so timing a call adds no
   minor-heap words to the allocation counts measured around it. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <string.h>
#include <time.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

CAMLprim value umrs_perf_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

/* The open-loop generator sleeps in select() until the next send is
   due; the default 50 us slack would make every send that late. */
CAMLprim value umrs_perf_set_timerslack_ns(value ns)
{
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
  return Val_unit;
}

/* wait4 on one child: (pid, or 0 while it still runs; whether it
   exited with status 0; that child's own peak RSS in KiB). Unlike
   RUSAGE_CHILDREN this never counts other descendants, such as the
   build that ran before this process was exec'd. */
CAMLprim value umrs_perf_wait4(value pid, value nohang)
{
  CAMLparam2(pid, nohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  do {
    r = wait4(Int_val(pid), &status, Bool_val(nohang) ? WNOHANG : 0, &ru);
  } while (r < 0 && errno == EINTR);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1,
              Val_bool(r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Pin this process, and every child it starts later, to the last CPU
   it may run on. Returns that CPU, or -1 when pinning failed. */

CAMLprim value umrs_perf_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int cpu, last = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set)) last = cpu;
  if (last < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return Val_int(sched_setaffinity(0, sizeof set, &set) == 0 ? last : -1);
}
