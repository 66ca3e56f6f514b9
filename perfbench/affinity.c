/* sched_getaffinity/sched_setaffinity for the calling thread.
 *
 * serve-hot places the daemon and its one connection on cores of their
 * own, so the scheduler's choice between co-locating the two sides of
 * the ping-pong and splitting them does not change what a round trip
 * costs from one stretch of a run to the next. Threads and processes
 * started after [perfbench_set_affinity] inherit the mask.
 *
 * A mask is an OCaml int whose bit i is CPU i (CPUs 0-61). */

#define _GNU_SOURCE
#include <caml/fail.h>
#include <caml/mlvalues.h>
#include <sched.h>

#define MAX_CPU 62

value perfbench_get_affinity(value unit)
{
  cpu_set_t s;
  intnat mask = 0;
  (void)unit;
  CPU_ZERO(&s);
  if (sched_getaffinity(0, sizeof s, &s) != 0)
    caml_failwith("sched_getaffinity");
  for (int i = 0; i < MAX_CPU; i++)
    if (CPU_ISSET(i, &s)) mask |= (intnat)1 << i;
  return Val_long(mask);
}

value perfbench_set_affinity(value v)
{
  cpu_set_t s;
  intnat mask = Long_val(v);
  CPU_ZERO(&s);
  for (int i = 0; i < MAX_CPU; i++)
    if (mask & ((intnat)1 << i)) CPU_SET(i, &s);
  if (sched_setaffinity(0, sizeof s, &s) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}
