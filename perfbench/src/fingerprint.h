#ifndef PERFBENCH_SRC_FINGERPRINT_H_
#define PERFBENCH_SRC_FINGERPRINT_H_

#include <string>

namespace perfbench {

// Host and build fingerprint of a run as a JSON object: CPU count and
// model, CPU features, the kernel backend actually dispatched, serving
// precision, execution engine, build type and flags (and whether NDEBUG
// compiled the DCHECKs out), compiler, and the workload's pool threads.
// Results whose fingerprints differ are not comparable.
std::string FingerprintJson(const std::string& workload, int threads);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_FINGERPRINT_H_
