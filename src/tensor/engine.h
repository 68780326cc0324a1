#ifndef CONTRATOPIC_TENSOR_ENGINE_H_
#define CONTRATOPIC_TENSOR_ENGINE_H_

// The autodiff layer has one execution engine, the eager tape
// (tensor/autodiff.h, DESIGN.md §14). The name stays queryable so run
// fingerprints can record which engine produced a result.

namespace contratopic {
namespace tensor {

enum class ExecEngine { kTape };

inline ExecEngine ActiveExecEngine() { return ExecEngine::kTape; }

inline const char* ExecEngineName(ExecEngine /*engine*/) { return "tape"; }

}  // namespace tensor
}  // namespace contratopic

#endif  // CONTRATOPIC_TENSOR_ENGINE_H_
