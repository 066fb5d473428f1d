// Shared plumbing for the experiment harnesses: result directory, quick
// mode, and the standard header each bench prints.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace hybridcnn::bench {

/// Directory all benches write CSV artefacts into. Every bench routes its
/// files through util::results_path(results_dir(), ...), so
/// HYBRIDCNN_RESULTS_DIR redirects the whole artefact set at once.
inline std::string results_dir() {
  const char* v = std::getenv("HYBRIDCNN_RESULTS_DIR");
  return (v != nullptr && v[0] != '\0') ? std::string(v)
                                        : std::string("bench_results");
}

/// Set HYBRIDCNN_QUICK=1 to decimate the slow sweeps (CI-friendly runs).
inline bool quick_mode() {
  const char* v = std::getenv("HYBRIDCNN_QUICK");
  return v != nullptr && v[0] == '1';
}

/// Prints the standard experiment banner.
inline void banner(const char* experiment_id, const char* paper_artifact) {
  std::printf("\n================================================================\n");
  std::printf("Experiment %s — reproduces %s\n", experiment_id,
              paper_artifact);
  std::printf("Paper: Doran & Veljanovska, \"Hybrid Convolutional Neural "
              "Networks with Reliability Guarantee\", DSN 2024\n");
  if (quick_mode()) std::printf("(HYBRIDCNN_QUICK=1: decimated sweep)\n");
  std::printf("================================================================\n");
}

}  // namespace hybridcnn::bench
