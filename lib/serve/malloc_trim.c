/* Return the C heap's free pages to the kernel (glibc's malloc_trim).
   OCaml 5 mallocs every block larger than 128 words and frees it when
   the GC sweeps it; glibc keeps the freed pages of each thread's malloc
   arena resident, so a daemon whose worker domains churn large blocks
   holds on to them. Elsewhere a no-op. */

#include <caml/mlvalues.h>
#include <caml/signals.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

value cinm_malloc_trim(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  /* the trim walks every malloc arena and touches no OCaml value: let
     the other domains collect meanwhile */
  caml_enter_blocking_section();
  malloc_trim(0);
  caml_leave_blocking_section();
#endif
  return Val_unit;
}
