/**
 * @file
 * Host-side probes of the benchmark process: heap allocation
 * counting (a replacement global operator new), a SIGPROF
 * program-counter sampler with ELF symbolization of the running
 * binary, and peak resident set size.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/** Heap allocations (count, bytes) since process start. */
struct AllocCounts
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};
AllocCounts allocCounts();

/** Start sampling the program counter on CPU time (SIGPROF). */
void profilerStart();
/** Stop sampling; samples accumulate across start/stop pairs. */
void profilerStop();
/** Samples taken so far. */
std::uint64_t profilerSamples();
/**
 * Share of samples (percent) per layer: sim, net, flash.ecc,
 * flash.nand, flash.server, fs, kv, core, libc (the C library and
 * allocator: malloc, free, memcpy), std (standard-library code on
 * types of no layer), bench (this benchmark's own code) and other.
 */
std::map<std::string, double> profileByLayer();

/** Peak resident set size of the process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
