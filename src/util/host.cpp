#include "util/host.hpp"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace massf {

unsigned host_cpus() {
#if defined(__linux__)
  // A fixed-size set covers up to CPU_SETSIZE (1024) CPUs; a larger host
  // fails with EINVAL and takes the fallback.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  return std::thread::hardware_concurrency();
}

}  // namespace massf
