// What the host lets this process run on.
#pragma once

namespace massf {

/// CPUs the calling thread may run on: the size of its affinity mask
/// (sched_getaffinity), so `taskset -c 0` or a cpuset-limited container
/// counts 1 however many cores the machine has. Falls back to
/// std::thread::hardware_concurrency() where the mask is unavailable;
/// like it, returns 0 when the host's parallelism is unreportable.
unsigned host_cpus();

}  // namespace massf
