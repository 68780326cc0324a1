#include "src/fingerprint.h"

#include <sched.h>
#include <sys/utsname.h>

#include <fstream>
#include <thread>

#include "build_info.h"
#include "tensor/backend.h"
#include "tensor/engine.h"
#include "tensor/quant.h"
#include "util/cpu_features.h"
#include "util/telemetry.h"

namespace perfbench {
namespace {

namespace util = contratopic::util;
namespace tensor = contratopic::tensor;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CpuFeatureList() {
  std::string features = util::CpuFeatures::Get().ToString();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) features += " avx512f";
#endif
  return features;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

std::string FingerprintJson(const std::string& workload, int threads) {
  utsname host{};
  uname(&host);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  util::JsonObject json;
  json.Put("workload", workload)
      .Put("pool_threads", threads)
      .Put("nproc", UsableCpus())
      .Put("hardware_concurrency",
           static_cast<int>(std::thread::hardware_concurrency()))
      .Put("cpu_model", CpuModel())
      .Put("cpu_features", CpuFeatureList())
      .Put("kernel_backend", tensor::ActiveKernels().name)
      .Put("serve_precision",
           tensor::ServePrecisionName(tensor::ActiveServePrecision()))
      .Put("exec_engine", tensor::ExecEngineName(tensor::ActiveExecEngine()))
      .Put("build_type", PERFBENCH_BUILD_TYPE)
      .Put("build_flags", PERFBENCH_BUILD_FLAGS)
      .Put("ndebug", ndebug)
      .Put("compiler", PERFBENCH_COMPILER)
      .Put("os", std::string(host.sysname) + " " + host.release + " " +
                     host.machine);
  return json.Build();
}

}  // namespace perfbench
